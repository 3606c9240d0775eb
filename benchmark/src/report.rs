//! One workload run's result document.
//!
//! A child process prints one [`Report`] as a single JSON line. Values
//! whose name `BENCHMARK.json` lists for the run's mode land under
//! `metrics` (the gated set the driver reads); everything else a workload
//! records — p99, max, the parts of `setup_s`, layer-only numbers — lands
//! under `info`, printed but never gated.

use crate::spec::spec;
use gsql_server::json::Json;

#[derive(Debug)]
pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub attempted: u64,
    pub failed: u64,
    values: Vec<(String, f64, String)>,
    notes: Vec<(String, String)>,
}

fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Object(members.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn measured(value: f64, unit: &str) -> Json {
    obj(vec![("value", Json::Float(value)), ("unit", Json::from(unit))])
}

impl Report {
    pub fn new(workload: &str, seed: u64, seconds: f64, trace: bool, smoke: bool) -> Report {
        Report {
            workload: workload.to_string(),
            seed,
            seconds,
            trace,
            smoke,
            attempted: 0,
            failed: 0,
            values: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Record one measured value (a later `put` of the same name wins).
    pub fn put(&mut self, name: &str, value: f64, unit: &str) {
        self.values.retain(|(n, _, _)| n != name);
        self.values.push((name.to_string(), value, unit.to_string()));
    }

    /// Record a textual fact about the run (settings, policies, counts).
    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    /// Describe one failed operation; only the first few are kept.
    pub fn failure(&mut self, what: impl ToString) {
        let seen = self.notes.iter().filter(|(k, _)| k == "failure").count();
        if seen < 3 {
            self.note("failure", what);
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _, _)| n == name).map(|(_, v, _)| *v)
    }

    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    /// The full document. In a traced run a per-layer metric the workload
    /// never touches reads 0: its layer did no work there.
    pub fn to_json(&self) -> Json {
        let listed = spec().metrics(self.trace);
        let mut metrics = Vec::new();
        for m in listed {
            let value = match self.get(&m.name) {
                Some(v) => v,
                None if self.trace => 0.0,
                None => panic!("{}: end-to-end metric '{}' not measured", self.workload, m.name),
            };
            metrics.push((m.name.clone(), measured(value, &m.unit)));
        }
        let info = self
            .values
            .iter()
            .filter(|(n, _, _)| listed.iter().all(|m| &m.name != n))
            .map(|(n, v, u)| (n.clone(), measured(*v, u)))
            .collect();
        let notes = self.notes.iter().map(|(k, v)| (k.clone(), Json::from(v.as_str()))).collect();
        obj(vec![
            ("workload", Json::from(self.workload.as_str())),
            ("seed", Json::from(self.seed)),
            ("seconds", Json::Float(self.seconds)),
            ("trace", Json::Int(i64::from(self.trace))),
            ("smoke", Json::Bool(self.smoke)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("metrics", Json::Object(metrics)),
            ("info", Json::Object(info)),
            ("notes", Json::Object(notes)),
        ])
    }
}

/// The driver's result line: exactly `correct`, `attempted`, `failed` and
/// `metrics` of a child's document.
pub fn contract_line(doc: &Json) -> String {
    let pick = |k: &str| (k.to_string(), doc.get(k).cloned().unwrap_or(Json::Null));
    Json::Object(vec![pick("correct"), pick("attempted"), pick("failed"), pick("metrics")]).encode()
}
