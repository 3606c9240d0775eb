//! Server-level counters — thin handles into the engine-wide
//! [`gsql_obs::Registry`], so `/metrics` renders them with every engine
//! instrument and nothing is double-booked.
//!
//! Two of these counters carry the graceful-shutdown invariant: every
//! *admitted* connection (accepted and enqueued) must end up *responded*
//! (a response fully written, however the query went). Shutdown drains the
//! queue before workers exit, so `admitted == responded` afterwards —
//! [`crate::ServerHandle::shutdown`] asserts exactly that. `responded` is
//! bumped at the same point the endpoint latency histogram records, so the
//! request-duration histogram's total count equals `responded` at every
//! instant, not just at shutdown.

use gsql_obs::{latency_buckets_us, Counter, EngineMetrics, Gauge, Histogram};
use std::sync::Arc;

/// Latency/throughput view over one endpoint's request-duration histogram
/// (`gsql_http_request_duration_microseconds{endpoint=…}`). Request count,
/// total and max all live inside the histogram — one observation per
/// settled request.
#[derive(Debug)]
pub struct EndpointStats {
    latency: Arc<Histogram>,
}

impl EndpointStats {
    fn new(metrics: &EngineMetrics, endpoint: &str) -> EndpointStats {
        EndpointStats {
            latency: metrics.registry().histogram_with(
                "gsql_http_request_duration_microseconds",
                "End-to-end request handling latency by endpoint.",
                &[("endpoint", endpoint)],
                &latency_buckets_us(),
            ),
        }
    }

    /// Record one settled request.
    pub fn record(&self, micros: u64) {
        self.latency.observe(micros);
    }
}

/// Counters shared by the acceptor and every worker, registered in the
/// database's metrics registry at server startup.
#[derive(Debug)]
pub struct ServerStats {
    /// Connections accepted and enqueued for a worker.
    pub admitted: Arc<Counter>,
    /// Connections a worker settled (response written, or the client had
    /// already gone away).
    pub responded: Arc<Counter>,
    /// Connections turned away with 503 (queue full) or during shutdown.
    pub refused: Arc<Counter>,
    /// Requests a worker is executing right now.
    pub in_flight: Arc<Gauge>,
    /// Query statements that failed (any error class).
    pub query_errors: Arc<Counter>,
    /// Query statements aborted by their deadline (subset of errors).
    pub query_timeouts: Arc<Counter>,
    /// Admitted connections currently waiting for a worker.
    pub queue_depth: Arc<Gauge>,
    /// Time admitted connections spent queued before a worker picked them
    /// up, microseconds.
    pub queue_wait: Arc<Histogram>,
    pub query: EndpointStats,
    pub health: EndpointStats,
    pub metrics_endpoint: EndpointStats,
    pub slowlog_endpoint: EndpointStats,
    /// Everything that never reached a real endpoint: unparseable or
    /// oversized requests, unknown paths, wrong methods, vanished clients.
    pub other: EndpointStats,
}

impl ServerStats {
    /// Register every server instrument in `metrics`' registry.
    pub fn new(metrics: &EngineMetrics) -> ServerStats {
        let r = metrics.registry();
        ServerStats {
            admitted: r.counter(
                "gsql_http_admitted_total",
                "Connections accepted and enqueued for a worker.",
            ),
            responded: r.counter(
                "gsql_http_responded_total",
                "Connections settled by a worker (response written or client gone).",
            ),
            refused: r.counter(
                "gsql_http_refused_total",
                "Connections turned away with 503 (admission queue full).",
            ),
            in_flight: r.gauge("gsql_http_in_flight", "Query statements executing right now."),
            query_errors: r.counter(
                "gsql_http_query_errors_total",
                "Query requests that failed with any error class.",
            ),
            query_timeouts: r.counter(
                "gsql_http_query_timeouts_total",
                "Query requests aborted by their deadline (subset of errors).",
            ),
            queue_depth: r.gauge(
                "gsql_http_queue_depth",
                "Admitted connections currently waiting for a worker.",
            ),
            queue_wait: r.histogram(
                "gsql_http_queue_wait_microseconds",
                "Time admitted connections waited for a worker.",
                &latency_buckets_us(),
            ),
            query: EndpointStats::new(metrics, "query"),
            health: EndpointStats::new(metrics, "health"),
            metrics_endpoint: EndpointStats::new(metrics, "metrics"),
            slowlog_endpoint: EndpointStats::new(metrics, "slowlog"),
            other: EndpointStats::new(metrics, "other"),
        }
    }
}

/// RAII in-flight marker: increments on creation, decrements on drop (so
/// panics and early returns cannot leak the gauge).
pub struct InFlight<'a>(&'a ServerStats);

impl<'a> InFlight<'a> {
    pub fn enter(stats: &'a ServerStats) -> InFlight<'a> {
        stats.in_flight.add(1);
        InFlight(stats)
    }
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        self.0.in_flight.sub(1);
    }
}
