//! `gsql-bench compare <a.json> <b.json>`: judge run set `b` against run
//! set `a` (two `run --out` documents) by the bounds in `BENCHMARK.json`.
//!
//! One row per (workload, metric), on the medians of each side's runs:
//! `regressed` when `b` is worse than `a` by more than the metric's bound,
//! `improved` when better by more than it, otherwise `unchanged` — or
//! `unresolved` when either side's own spread (interquartile range over
//! median) is wider than the bound, so the two cannot be told apart.
//! Metrics without a bound are printed as `same` or `differs`.

use crate::spec::{float, spec, MetricSpec};
use gsql_server::json::{self, Json};
use std::collections::BTreeMap;

/// workload → metric → one value per run.
type RunSet = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load(path: &str) -> Result<RunSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let runs = doc.get("runs").and_then(Json::as_array).ok_or(format!("{path}: no 'runs'"))?;
    let mut set = RunSet::new();
    for run in runs {
        let workload = run.get("workload").and_then(Json::as_str).unwrap_or_default();
        let Some(Json::Object(metrics)) = run.get("metrics") else { continue };
        for (name, m) in metrics {
            let Some(value) = m.get("value").and_then(float) else { continue };
            set.entry(workload.to_string())
                .or_default()
                .entry(name.clone())
                .or_default()
                .push(value);
        }
    }
    Ok(set)
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the driver's definition of spread); `None` below two values.
fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let len = data.len() as i64;
    if len < 2 {
        return None;
    }
    Some([1, 2, 3].map(|i| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1) - j * 4) as f64;
        (data[j as usize - 1] * (4.0 - delta) + data[j as usize] * delta) / 4.0
    }))
}

fn median(values: &[f64]) -> f64 {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let mid = data.len() / 2;
    if data.len() % 2 == 1 {
        data[mid]
    } else {
        (data[mid - 1] + data[mid]) / 2.0
    }
}

/// Interquartile range as a share of the median; 0 when it cannot be taken.
fn spread(values: &[f64]) -> f64 {
    match (quartiles(values), median(values)) {
        (Some([q1, _, q3]), m) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

fn verdict(metric: &MetricSpec, a: &[f64], b: &[f64]) -> &'static str {
    let (ma, mb) = (median(a), median(b));
    let Some(bound) = metric.bound else {
        return if a == b { "same" } else { "differs" };
    };
    let worse_by = if metric.higher_is_better { (ma - mb) / ma } else { (mb - ma) / ma };
    if worse_by > bound {
        "regressed"
    } else if worse_by < -bound {
        "improved"
    } else if spread(a) > bound || spread(b) > bound {
        "unresolved"
    } else {
        "unchanged"
    }
}

/// `Ok(false)` when any row regressed.
pub fn main(args: &[String]) -> Result<bool, String> {
    let [a_path, b_path] = args else {
        return Err(crate::USAGE.to_string());
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let s = spec();
    let mut regressed = 0;
    println!(
        "{:<18} {:<26} {:>14} {:>14} {:>8} {:>8} {:>8}  verdict",
        "workload", "metric", "a median", "b median", "a iqr%", "b iqr%", "bound%"
    );
    for workload in &s.workloads {
        for metric in s.end_to_end.iter().chain(&s.per_layer) {
            let values =
                |set: &RunSet| set.get(workload).and_then(|m| m.get(&metric.name)).cloned();
            let (Some(va), Some(vb)) = (values(&a), values(&b)) else { continue };
            let verdict = verdict(metric, &va, &vb);
            regressed += usize::from(verdict == "regressed");
            println!(
                "{:<18} {:<26} {:>14.4} {:>14.4} {:>8.2} {:>8.2} {:>8}  {verdict}",
                workload,
                metric.name,
                median(&va),
                median(&vb),
                spread(&va) * 100.0,
                spread(&vb) * 100.0,
                metric.bound.map_or("-".to_string(), |b| format!("{:.0}", b * 100.0)),
            );
        }
    }
    println!("{regressed} regressed");
    Ok(regressed == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(higher_is_better: bool) -> MetricSpec {
        MetricSpec {
            name: "m".to_string(),
            unit: "ms".to_string(),
            higher_is_better,
            bound: Some(0.1),
        }
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let steady = [100.0, 100.5, 99.5, 100.2];
        assert_eq!(verdict(&metric(false), &steady, &[120.0; 4]), "regressed");
        assert_eq!(verdict(&metric(false), &steady, &[80.0; 4]), "improved");
        assert_eq!(verdict(&metric(true), &steady, &[80.0; 4]), "regressed");
        assert_eq!(verdict(&metric(false), &steady, &[105.0; 4]), "unchanged");
        let noisy = [80.0, 100.0, 120.0, 101.0];
        assert_eq!(verdict(&metric(false), &steady, &noisy), "unresolved");
        let unbounded = MetricSpec { bound: None, ..metric(false) };
        assert_eq!(verdict(&unbounded, &[7.0], &[7.0]), "same");
        assert_eq!(verdict(&unbounded, &[7.0], &[8.0]), "differs");
    }
}
