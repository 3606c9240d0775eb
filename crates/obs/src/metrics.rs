//! Sharded atomic instruments and the Prometheus-rendering [`Registry`].
//!
//! Every instrument spreads its hot path over [`SHARDS`] cache-line-padded
//! atomic cells; a writer picks its shard with
//! `gsql_parallel::thread_slot() % SHARDS`, so pipeline workers hammering
//! the same counter never contend on one cache line. Reads merge the
//! shards — reads are rare (a `/metrics` scrape, an `EXPLAIN ANALYZE`
//! render), writes are the per-morsel / per-query hot path.

use gsql_parallel::thread_slot;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of shards per instrument. A power of two so the modulo is cheap;
/// 16 covers every realistic worker count without wasting memory.
pub const SHARDS: usize = 16;

/// One cache line of counter state, padded so neighbouring shards never
/// share a line.
#[derive(Debug, Default)]
#[repr(align(64))]
struct PadCell(AtomicU64);

/// A monotonically increasing counter. `inc`/`add` are one relaxed
/// `fetch_add` on the caller's shard; `get` sums all shards.
#[derive(Debug)]
pub struct Counter {
    shards: [PadCell; SHARDS],
}

impl Default for Counter {
    fn default() -> Counter {
        Counter::new()
    }
}

impl Counter {
    /// A zeroed counter (usually obtained via [`Registry::counter`]).
    pub fn new() -> Counter {
        Counter { shards: std::array::from_fn(|_| PadCell::default()) }
    }

    /// Add 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.shards[thread_slot() % SHARDS].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Merged value across all shards.
    pub fn get(&self) -> u64 {
        self.shards.iter().map(|s| s.0.load(Ordering::Relaxed)).sum()
    }
}

/// A signed gauge (single atomic: gauges are set/adjusted rarely, e.g.
/// queue depth on admit/pop, cache entries after an insert).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A zeroed gauge.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Add `n` (may be negative).
    #[inline]
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtract `n`.
    #[inline]
    pub fn sub(&self, n: i64) {
        self.value.fetch_sub(n, Ordering::Relaxed);
    }

    /// Overwrite the value.
    #[inline]
    pub fn set(&self, n: i64) {
        self.value.store(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Per-shard histogram state: one count cell per bucket (the last is the
/// overflow bucket), plus sum / count / max of observed values.
#[derive(Debug)]
struct HistShard {
    counts: Vec<AtomicU64>,
    sum: AtomicU64,
    count: AtomicU64,
    max: AtomicU64,
}

/// A fixed-bucket histogram of `u64` observations (microseconds, settled
/// vertices, …). Bucket bounds are inclusive upper bounds; values above the
/// last bound land in an implicit `+Inf` bucket. Observation is three
/// relaxed `fetch_add`s and one `fetch_max` on the caller's shard.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<u64>,
    shards: Vec<HistShard>,
}

impl Histogram {
    /// A histogram over the given inclusive upper bounds (sorted and
    /// deduplicated; must be non-empty).
    pub fn new(bounds: &[u64]) -> Histogram {
        let mut bounds = bounds.to_vec();
        bounds.sort_unstable();
        bounds.dedup();
        assert!(!bounds.is_empty(), "histogram needs at least one bucket bound");
        let shards = (0..SHARDS)
            .map(|_| HistShard {
                counts: (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect(),
                sum: AtomicU64::new(0),
                count: AtomicU64::new(0),
                max: AtomicU64::new(0),
            })
            .collect();
        Histogram { bounds, shards }
    }

    /// Record one observation.
    #[inline]
    pub fn observe(&self, value: u64) {
        let shard = &self.shards[thread_slot() % SHARDS];
        let bucket = self.bounds.partition_point(|&ub| ub < value);
        shard.counts[bucket].fetch_add(1, Ordering::Relaxed);
        shard.sum.fetch_add(value, Ordering::Relaxed);
        shard.count.fetch_add(1, Ordering::Relaxed);
        shard.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Merge all shards into one consistent-enough snapshot (each cell is
    /// read once; concurrent writers may land between reads, which only
    /// ever under-reports the newest observations).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut counts = vec![0u64; self.bounds.len() + 1];
        let mut sum = 0u64;
        let mut count = 0u64;
        let mut max = 0u64;
        for shard in &self.shards {
            for (acc, cell) in counts.iter_mut().zip(&shard.counts) {
                *acc += cell.load(Ordering::Relaxed);
            }
            sum += shard.sum.load(Ordering::Relaxed);
            count += shard.count.load(Ordering::Relaxed);
            max = max.max(shard.max.load(Ordering::Relaxed));
        }
        HistogramSnapshot { bounds: self.bounds.clone(), counts, sum, count, max }
    }
}

/// A merged, point-in-time view of a [`Histogram`].
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// Inclusive upper bounds, ascending; the final count bucket is `+Inf`.
    pub bounds: Vec<u64>,
    /// Per-bucket (non-cumulative) counts; `bounds.len() + 1` entries.
    pub counts: Vec<u64>,
    /// Sum of all observed values.
    pub sum: u64,
    /// Number of observations.
    pub count: u64,
    /// Largest observed value.
    pub max: u64,
}

impl HistogramSnapshot {
    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Estimate the `p`-th percentile (`0.0..=1.0`) as the upper bound of
    /// the first bucket whose cumulative count reaches `p * count`. The
    /// overflow bucket reports the observed max.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (p.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cumulative += c;
            if cumulative >= target {
                return if i < self.bounds.len() { self.bounds[i] } else { self.max };
            }
        }
        self.max
    }
}

/// Default latency buckets in microseconds: 50µs to 10s, roughly 1-2.5-5
/// per decade.
pub fn latency_buckets_us() -> Vec<u64> {
    vec![
        50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
        1_000_000, 2_500_000, 5_000_000, 10_000_000,
    ]
}

/// Default settled-vertex buckets: powers of four from 1 to ~1M.
pub fn settled_buckets() -> Vec<u64> {
    vec![1, 4, 16, 64, 256, 1_024, 4_096, 16_384, 65_536, 262_144, 1_048_576]
}

#[derive(Debug)]
enum InstrumentKind {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

#[derive(Debug)]
struct Instrument {
    name: String,
    help: String,
    labels: Vec<(String, String)>,
    kind: InstrumentKind,
}

/// An open collection of named instruments, rendered in Prometheus text
/// exposition format. Registration happens at construction time (engine
/// startup, server startup); the registry lock is never taken on a query
/// hot path.
#[derive(Debug, Default)]
pub struct Registry {
    instruments: Mutex<Vec<Instrument>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Register an unlabelled counter.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.counter_with(name, help, &[])
    }

    /// Register a counter with constant labels. Same-name registrations
    /// share one `HELP`/`TYPE` block in the rendered output.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let handle = Arc::new(Counter::new());
        self.push(name, help, labels, InstrumentKind::Counter(Arc::clone(&handle)));
        handle
    }

    /// Register an unlabelled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        self.gauge_with(name, help, &[])
    }

    /// Register a gauge with constant labels. Same-name registrations
    /// share one `HELP`/`TYPE` block in the rendered output.
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let handle = Arc::new(Gauge::new());
        self.push(name, help, labels, InstrumentKind::Gauge(Arc::clone(&handle)));
        handle
    }

    /// Register an unlabelled histogram over the given bucket bounds.
    pub fn histogram(&self, name: &str, help: &str, bounds: &[u64]) -> Arc<Histogram> {
        self.histogram_with(name, help, &[], bounds)
    }

    /// Register a histogram with constant labels.
    pub fn histogram_with(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        bounds: &[u64],
    ) -> Arc<Histogram> {
        let handle = Arc::new(Histogram::new(bounds));
        self.push(name, help, labels, InstrumentKind::Histogram(Arc::clone(&handle)));
        handle
    }

    fn push(&self, name: &str, help: &str, labels: &[(&str, &str)], kind: InstrumentKind) {
        let labels = labels.iter().map(|&(k, v)| (k.to_string(), v.to_string())).collect();
        self.instruments.lock().expect("registry poisoned").push(Instrument {
            name: name.to_string(),
            help: help.to_string(),
            labels,
            kind,
        });
    }

    /// Render every instrument in Prometheus text exposition format.
    /// Instruments sharing a name are grouped under one `HELP`/`TYPE`
    /// header at the first registration's position.
    pub fn render(&self) -> String {
        let instruments = self.instruments.lock().expect("registry poisoned");
        // Group by name, preserving first-registration order.
        let mut order: Vec<&str> = Vec::new();
        for inst in instruments.iter() {
            if !order.contains(&inst.name.as_str()) {
                order.push(&inst.name);
            }
        }
        let mut out = String::new();
        for name in order {
            let group: Vec<&Instrument> = instruments.iter().filter(|i| i.name == name).collect();
            let first = group[0];
            let type_name = match first.kind {
                InstrumentKind::Counter(_) => "counter",
                InstrumentKind::Gauge(_) => "gauge",
                InstrumentKind::Histogram(_) => "histogram",
            };
            out.push_str(&format!("# HELP {name} {}\n# TYPE {name} {type_name}\n", first.help));
            for inst in group {
                match &inst.kind {
                    InstrumentKind::Counter(c) => {
                        out.push_str(&format!(
                            "{name}{} {}\n",
                            label_set(&inst.labels, None),
                            c.get()
                        ));
                    }
                    InstrumentKind::Gauge(g) => {
                        out.push_str(&format!(
                            "{name}{} {}\n",
                            label_set(&inst.labels, None),
                            g.get()
                        ));
                    }
                    InstrumentKind::Histogram(h) => {
                        let snap = h.snapshot();
                        let mut cumulative = 0u64;
                        for (i, &c) in snap.counts.iter().enumerate() {
                            cumulative += c;
                            let le = if i < snap.bounds.len() {
                                snap.bounds[i].to_string()
                            } else {
                                "+Inf".to_string()
                            };
                            out.push_str(&format!(
                                "{name}_bucket{} {cumulative}\n",
                                label_set(&inst.labels, Some(&le)),
                            ));
                        }
                        out.push_str(&format!(
                            "{name}_sum{} {}\n",
                            label_set(&inst.labels, None),
                            snap.sum
                        ));
                        out.push_str(&format!(
                            "{name}_count{} {}\n",
                            label_set(&inst.labels, None),
                            snap.count
                        ));
                    }
                }
            }
        }
        out
    }
}

fn label_set(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> =
        labels.iter().map(|(k, v)| format!("{k}=\"{}\"", crate::json_escape(v))).collect();
    if let Some(le) = le {
        parts.push(format!("le=\"{le}\""));
    }
    format!("{{{}}}", parts.join(","))
}

/// Statement verb, for the `gsql_queries_total{verb=…}` counter family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryVerb {
    /// `SELECT` (including graph selects/joins).
    Select,
    /// `INSERT`.
    Insert,
    /// `UPDATE`.
    Update,
    /// `DELETE`.
    Delete,
    /// `CREATE`/`DROP` of tables and indexes.
    Ddl,
    /// `SET`, `SHOW`, `DESCRIBE`, `EXPLAIN`, …
    Utility,
}

const VERBS: [QueryVerb; 6] = [
    QueryVerb::Select,
    QueryVerb::Insert,
    QueryVerb::Update,
    QueryVerb::Delete,
    QueryVerb::Ddl,
    QueryVerb::Utility,
];

impl QueryVerb {
    /// The label value.
    pub fn as_str(self) -> &'static str {
        match self {
            QueryVerb::Select => "select",
            QueryVerb::Insert => "insert",
            QueryVerb::Update => "update",
            QueryVerb::Delete => "delete",
            QueryVerb::Ddl => "ddl",
            QueryVerb::Utility => "utility",
        }
    }

    fn index(self) -> usize {
        VERBS.iter().position(|&v| v == self).expect("verb in table")
    }
}

/// Statement outcome, for the `gsql_queries_total{outcome=…}` label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryOutcome {
    /// Completed successfully.
    Ok,
    /// Failed with any non-timeout error.
    Error,
    /// Exceeded its deadline.
    Timeout,
}

const OUTCOMES: [QueryOutcome; 3] = [QueryOutcome::Ok, QueryOutcome::Error, QueryOutcome::Timeout];

impl QueryOutcome {
    /// The label value.
    pub fn as_str(self) -> &'static str {
        match self {
            QueryOutcome::Ok => "ok",
            QueryOutcome::Error => "error",
            QueryOutcome::Timeout => "timeout",
        }
    }

    fn index(self) -> usize {
        OUTCOMES.iter().position(|&o| o == self).expect("outcome in table")
    }
}

/// Traversal kinds recorded by [`EngineMetrics::record_traversal`]: the
/// plain fallbacks (`bfs`, `dijkstra`, `bidir-bfs`) plus the accelerated
/// point-to-point (`alt`, `ch`) and batched (`alt-multi`, `ch-m2m`) tiers.
pub const ACCEL_KINDS: [&str; 7] =
    ["bfs", "dijkstra", "bidir-bfs", "alt", "ch", "alt-multi", "ch-m2m"];

/// Who asked for a graph build — or `extension` for a graph index's graph
/// grown by the rows appended since it was built: the `source` label of
/// `gsql_graph_builds_total` (see [`EngineMetrics::record_graph_build`]).
const BUILD_SOURCES: [&str; 4] = ["statement", "graph_index", "path_index", "extension"];

/// The typed catalog of engine-wide instruments, all registered on one
/// [`Registry`]. Owned by the `Database`; every layer records through it.
#[derive(Debug)]
pub struct EngineMetrics {
    registry: Arc<Registry>,
    queries: [[Arc<Counter>; 3]; 6],
    query_latency: Arc<Histogram>,
    /// Plan-cache hits (the database's one plan cache, every session).
    pub plan_cache_hits: Arc<Counter>,
    /// Plan-cache misses.
    pub plan_cache_misses: Arc<Counter>,
    /// Plans evicted because the schema version moved.
    pub plan_cache_invalidations: Arc<Counter>,
    /// Entries currently resident in the plan cache.
    pub plan_cache_entries: Arc<Gauge>,
    pipelines: Arc<Counter>,
    morsels: Arc<Counter>,
    queue_wait: Arc<Histogram>,
    traversals: [Arc<Counter>; 7],
    settled: [Arc<Histogram>; 7],
    graph_builds: [Arc<Counter>; 4],
    graph_build_duration: Arc<Histogram>,
    /// Indexed weighted statements served a resident weight vector.
    pub weight_cache_hits: Arc<Counter>,
    /// Indexed weighted statements that had to evaluate their weights.
    pub weight_cache_misses: Arc<Counter>,
    /// Bytes of weight vectors resident across all graphs.
    pub weight_cache_bytes: Arc<Gauge>,
    /// WAL records appended by the durability layer.
    pub wal_appends: Arc<Counter>,
    /// Framed bytes written to the WAL (headers included).
    pub wal_bytes: Arc<Counter>,
    /// Snapshot checkpoint wall time in microseconds.
    pub checkpoint_duration: Arc<Histogram>,
    /// WAL records replayed by the most recent `Database::open`.
    pub recovery_replayed: Arc<Gauge>,
}

impl Default for EngineMetrics {
    fn default() -> EngineMetrics {
        EngineMetrics::new()
    }
}

impl EngineMetrics {
    /// Build the catalog on a fresh registry.
    pub fn new() -> EngineMetrics {
        let registry = Arc::new(Registry::new());
        let queries = std::array::from_fn(|v| {
            std::array::from_fn(|o| {
                registry.counter_with(
                    "gsql_queries_total",
                    "Statements executed, by verb and outcome.",
                    &[("verb", VERBS[v].as_str()), ("outcome", OUTCOMES[o].as_str())],
                )
            })
        });
        let query_latency = registry.histogram(
            "gsql_query_duration_microseconds",
            "End-to-end statement latency in microseconds.",
            &latency_buckets_us(),
        );
        let plan_cache_hits =
            registry.counter("gsql_plan_cache_hits_total", "Plan-cache lookups served a plan.");
        let plan_cache_misses =
            registry.counter("gsql_plan_cache_misses_total", "Plan-cache lookups that missed.");
        let plan_cache_invalidations = registry.counter(
            "gsql_plan_cache_invalidations_total",
            "Cached plans discarded because the schema version moved.",
        );
        let plan_cache_entries =
            registry.gauge("gsql_plan_cache_entries", "Entries resident in the plan cache.");
        let pipelines =
            registry.counter("gsql_pipelines_total", "Fused pipelines executed to completion.");
        let morsels = registry
            .counter("gsql_pipeline_morsels_total", "Morsels processed by pipeline workers.");
        let queue_wait = registry.histogram(
            "gsql_pipeline_queue_wait_microseconds",
            "Time a morsel sat in the queue before a worker pulled it.",
            &latency_buckets_us(),
        );
        let traversals = std::array::from_fn(|k| {
            registry.counter_with(
                "gsql_traversals_total",
                "Graph traversals executed, by algorithm kind.",
                &[("kind", ACCEL_KINDS[k])],
            )
        });
        let settled = std::array::from_fn(|k| {
            registry.histogram_with(
                "gsql_traversal_settled_vertices",
                "Vertices settled per traversal, by algorithm kind.",
                &[("kind", ACCEL_KINDS[k])],
                &settled_buckets(),
            )
        });
        let graph_builds = std::array::from_fn(|s| {
            registry.counter_with(
                "gsql_graph_builds_total",
                "Graphs built from an edge table (dictionary + CSR), by who asked, or extended.",
                &[("source", BUILD_SOURCES[s])],
            )
        });
        let graph_build_duration = registry.histogram(
            "gsql_graph_build_duration_microseconds",
            "Wall time of one graph build in microseconds.",
            &latency_buckets_us(),
        );
        let weight_cache_hits = registry.counter(
            "gsql_weight_cache_hits_total",
            "CHEAPEST SUM weight vectors served from the graph's weight cache.",
        );
        let weight_cache_misses = registry.counter(
            "gsql_weight_cache_misses_total",
            "CHEAPEST SUM weight vectors evaluated because the graph's weight cache had none.",
        );
        let weight_cache_bytes = registry.gauge(
            "gsql_weight_cache_bytes",
            "Bytes of prepared weight vectors resident on materialized graphs.",
        );
        let wal_appends =
            registry.counter("gsql_wal_appends_total", "WAL records appended by the engine.");
        let wal_bytes = registry
            .counter("gsql_wal_bytes_total", "Framed bytes written to the WAL, headers included.");
        let checkpoint_duration = registry.histogram(
            "gsql_checkpoint_duration_microseconds",
            "Snapshot checkpoint wall time in microseconds.",
            &latency_buckets_us(),
        );
        let recovery_replayed = registry.gauge(
            "gsql_recovery_replayed_records",
            "WAL records replayed by the most recent database open.",
        );
        // The registry keeps the handle alive; the value never changes.
        registry
            .gauge_with(
                "gsql_build_info",
                "Build metadata; constant 1 with version labels.",
                &[("version", env!("CARGO_PKG_VERSION"))],
            )
            .set(1);
        EngineMetrics {
            registry,
            queries,
            query_latency,
            plan_cache_hits,
            plan_cache_misses,
            plan_cache_invalidations,
            plan_cache_entries,
            pipelines,
            morsels,
            queue_wait,
            traversals,
            settled,
            graph_builds,
            graph_build_duration,
            weight_cache_hits,
            weight_cache_misses,
            weight_cache_bytes,
            wal_appends,
            wal_bytes,
            checkpoint_duration,
            recovery_replayed,
        }
    }

    /// The registry backing this catalog (servers register their own
    /// instruments on it so one `/metrics` render covers everything).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Record one finished statement.
    pub fn record_query(&self, verb: QueryVerb, outcome: QueryOutcome, micros: u64) {
        self.queries[verb.index()][outcome.index()].inc();
        self.query_latency.observe(micros);
    }

    /// Total statements recorded for a verb/outcome pair.
    pub fn queries_total(&self, verb: QueryVerb, outcome: QueryOutcome) -> u64 {
        self.queries[verb.index()][outcome.index()].get()
    }

    /// The end-to-end statement latency histogram.
    pub fn query_latency(&self) -> &Arc<Histogram> {
        &self.query_latency
    }

    /// Record a weight-cache lookup on an indexed graph.
    pub fn record_weight_cache(&self, hit: bool) {
        if hit {
            self.weight_cache_hits.inc();
        } else {
            self.weight_cache_misses.inc();
        }
    }

    /// Record a completed pipeline and its morsel count.
    pub fn record_pipeline(&self, morsels: u64) {
        self.pipelines.inc();
        self.morsels.add(morsels);
    }

    /// Pipelines executed so far.
    pub fn pipelines_total(&self) -> u64 {
        self.pipelines.get()
    }

    /// Morsels processed so far.
    pub fn morsels_total(&self) -> u64 {
        self.morsels.get()
    }

    /// Record how long one morsel waited in the queue.
    #[inline]
    pub fn observe_queue_wait_us(&self, micros: u64) {
        self.queue_wait.observe(micros);
    }

    /// The morsel queue-wait histogram.
    pub fn queue_wait(&self) -> &Arc<Histogram> {
        &self.queue_wait
    }

    /// Record one traversal of the given kind (one of [`ACCEL_KINDS`]) and
    /// how many vertices it settled. Unknown kinds are ignored rather than
    /// panicking — observability must never take a query down.
    pub fn record_traversal(&self, kind: &str, settled: u64) {
        if let Some(k) = ACCEL_KINDS.iter().position(|&n| n == kind) {
            self.traversals[k].inc();
            self.settled[k].observe(settled);
        }
    }

    /// Traversals recorded for a kind (`0` for unknown kinds).
    pub fn traversals_total(&self, kind: &str) -> u64 {
        ACCEL_KINDS.iter().position(|&n| n == kind).map_or(0, |k| self.traversals[k].get())
    }

    /// Settled-vertex snapshot for a kind.
    pub fn settled_snapshot(&self, kind: &str) -> Option<HistogramSnapshot> {
        ACCEL_KINDS.iter().position(|&n| n == kind).map(|k| self.settled[k].snapshot())
    }

    /// Record one graph build asked for by `source` (`statement`,
    /// `graph_index` or `path_index`; unknown sources are ignored, like
    /// unknown traversal kinds) and how long it took.
    pub fn record_graph_build(&self, source: &str, micros: u64) {
        if let Some(s) = BUILD_SOURCES.iter().position(|&n| n == source) {
            self.graph_builds[s].inc();
            self.graph_build_duration.observe(micros);
        }
    }

    /// Graph builds recorded for a source (`0` for unknown sources).
    pub fn graph_builds_total(&self, source: &str) -> u64 {
        BUILD_SOURCES.iter().position(|&n| n == source).map_or(0, |s| self.graph_builds[s].get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_merges_across_threads() {
        let c = Arc::new(Counter::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.get(), 8000);
    }

    #[test]
    fn gauge_add_sub_set() {
        let g = Gauge::new();
        g.add(5);
        g.sub(2);
        assert_eq!(g.get(), 3);
        g.set(-7);
        assert_eq!(g.get(), -7);
    }

    #[test]
    fn histogram_buckets_and_percentiles() {
        let h = Histogram::new(&[10, 100, 1000]);
        for v in [1, 5, 10, 11, 99, 100, 500, 5000] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.counts, vec![3, 3, 1, 1]); // <=10, <=100, <=1000, +Inf
        assert_eq!(s.count, 8);
        assert_eq!(s.sum, 1 + 5 + 10 + 11 + 99 + 100 + 500 + 5000);
        assert_eq!(s.max, 5000);
        assert_eq!(s.percentile(0.0), 10);
        assert_eq!(s.percentile(0.5), 100);
        assert_eq!(s.percentile(1.0), 5000); // overflow bucket reports max
        assert_eq!(s.mean(), s.sum / 8);
    }

    #[test]
    fn empty_histogram_is_zeroed() {
        let s = Histogram::new(&[10]).snapshot();
        assert_eq!((s.count, s.sum, s.max, s.percentile(0.99), s.mean()), (0, 0, 0, 0, 0));
    }

    #[test]
    fn render_groups_same_name_under_one_header() {
        let r = Registry::new();
        let a = r.counter_with("x_total", "X.", &[("kind", "a")]);
        let b = r.counter_with("x_total", "X.", &[("kind", "b")]);
        a.add(2);
        b.add(3);
        let text = r.render();
        assert_eq!(text.matches("# HELP x_total X.").count(), 1);
        assert_eq!(text.matches("# TYPE x_total counter").count(), 1);
        assert!(text.contains("x_total{kind=\"a\"} 2\n"));
        assert!(text.contains("x_total{kind=\"b\"} 3\n"));
    }

    #[test]
    fn render_histogram_is_cumulative_with_inf() {
        let r = Registry::new();
        let h = r.histogram("lat_us", "Latency.", &[10, 100]);
        h.observe(5);
        h.observe(50);
        h.observe(500);
        let text = r.render();
        assert!(text.contains("# TYPE lat_us histogram"));
        assert!(text.contains("lat_us_bucket{le=\"10\"} 1\n"));
        assert!(text.contains("lat_us_bucket{le=\"100\"} 2\n"));
        assert!(text.contains("lat_us_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("lat_us_sum 555\n"));
        assert!(text.contains("lat_us_count 3\n"));
    }

    #[test]
    fn engine_metrics_catalog_renders_all_families() {
        let m = EngineMetrics::new();
        m.record_query(QueryVerb::Select, QueryOutcome::Ok, 1234);
        m.plan_cache_hits.inc();
        m.plan_cache_misses.inc();
        m.record_pipeline(17);
        m.observe_queue_wait_us(42);
        m.record_traversal("ch", 99);
        m.record_traversal("not-a-kind", 1); // ignored, not a panic
        m.record_graph_build("graph_index", 6_500);
        m.record_weight_cache(true);
        m.record_weight_cache(false);
        m.weight_cache_bytes.add(2_896_000);
        assert_eq!(m.graph_builds_total("graph_index"), 1);
        assert_eq!(m.graph_builds_total("statement"), 0);
        assert_eq!(m.queries_total(QueryVerb::Select, QueryOutcome::Ok), 1);
        assert_eq!(m.traversals_total("ch"), 1);
        assert_eq!(m.traversals_total("bfs"), 0);
        assert_eq!(m.settled_snapshot("ch").unwrap().count, 1);
        let text = m.registry().render();
        for family in [
            "gsql_queries_total",
            "gsql_query_duration_microseconds",
            "gsql_plan_cache_hits_total",
            "gsql_plan_cache_misses_total",
            "gsql_plan_cache_invalidations_total",
            "gsql_plan_cache_entries",
            "gsql_pipelines_total",
            "gsql_pipeline_morsels_total",
            "gsql_pipeline_queue_wait_microseconds",
            "gsql_traversals_total",
            "gsql_traversal_settled_vertices",
            "gsql_graph_builds_total",
            "gsql_graph_build_duration_microseconds",
            "gsql_weight_cache_hits_total",
            "gsql_weight_cache_misses_total",
            "gsql_weight_cache_bytes",
        ] {
            assert!(text.contains(&format!("# TYPE {family} ")), "missing {family}");
        }
        assert!(text.contains("gsql_queries_total{verb=\"select\",outcome=\"ok\"} 1\n"));
        assert!(text.contains("gsql_traversals_total{kind=\"ch\"} 1\n"));
        assert!(text.contains("gsql_weight_cache_hits_total 1\n"));
        assert!(text.contains("gsql_weight_cache_misses_total 1\n"));
        assert!(text.contains("gsql_weight_cache_bytes 2896000\n"));
    }
}
