//! `BENCHMARK.json`, as the driver sees it: the one list of workload names,
//! metric names, units and regression bounds. `run` emits exactly these
//! names and `compare` applies exactly these bounds, so neither can drift
//! from the committed file.

use gsql_server::json::{self, Json};
use std::sync::OnceLock;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the baseline median the metric may worsen by; per-layer
    /// metrics have none.
    pub bound: Option<f64>,
}

#[derive(Debug)]
pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    /// The metrics a run in this mode must print.
    pub fn metrics(&self, trace: bool) -> &[MetricSpec] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

/// A JSON number, whichever way it was written.
pub fn float(j: &Json) -> Option<f64> {
    match j {
        Json::Int(v) => Some(*v as f64),
        Json::Float(v) => Some(*v),
        _ => None,
    }
}

fn metric_list(doc: &Json, key: &str) -> Vec<MetricSpec> {
    let str_of = |m: &Json, k: &str| {
        m.get(k)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("{key}: missing '{k}'"))
            .to_string()
    };
    doc.get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json: missing '{key}'"))
        .iter()
        .map(|m| MetricSpec {
            name: str_of(m, "name"),
            unit: str_of(m, "unit"),
            higher_is_better: str_of(m, "better") == "higher",
            bound: m.get("bound").and_then(float),
        })
        .collect()
}

/// The committed benchmark definition (parsed once).
pub fn spec() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| {
        let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_array)
            .expect("BENCHMARK.json: missing 'workloads'")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("workload name").to_string())
            .collect();
        Spec {
            run_seconds: doc.get("run_seconds").and_then(Json::as_i64).expect("run_seconds") as u64,
            workloads,
            end_to_end: metric_list(&doc, "end_to_end"),
            per_layer: metric_list(&doc, "per_layer"),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The driver's schema rules that a typo here would break silently.
    #[test]
    fn committed_file_meets_the_contract() {
        let s = spec();
        assert!((1..=60).contains(&s.run_seconds));
        assert!((2..=8).contains(&s.workloads.len()));
        let setup = s.end_to_end.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert!(setup.unit == "s" && !setup.higher_is_better);
        for m in &s.end_to_end {
            let b = m.bound.expect("every end-to-end metric has a bound");
            assert!(b > 0.0 && b <= 0.25, "{}: bound {b}", m.name);
            assert!(b <= setup.bound.unwrap(), "setup_s carries the largest bound");
        }
        assert!(s.per_layer.iter().all(|m| m.bound.is_none()));
        let mut names: Vec<&str> = s
            .workloads
            .iter()
            .chain(s.end_to_end.iter().chain(&s.per_layer).map(|m| &m.name))
            .map(String::as_str)
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");
        for m in s.end_to_end.iter().chain(&s.per_layer) {
            assert!(m.unit.len() <= 16, "{}: unit '{}'", m.name, m.unit);
        }
    }
}
