//! # gsql-parallel
//!
//! The engine's data-parallel runtime: a small **scoped worker pool** over
//! `std::thread::scope`, the morsel queue pipelines pull from, and the
//! process-wide `threads` / `morsel_rows` defaults. No external
//! dependencies (the build environment is offline, like the `rand-shim`
//! crate).
//!
//! Design constraints, driven by the engine:
//!
//! * **Determinism** — every primitive returns results in input order, no
//!   matter how work was scheduled. Operators built on top produce output
//!   that is bit-for-bit identical to their sequential form.
//! * **Exact sequential fallback** — a [`Pool`] with one thread never
//!   spawns and runs the closure inline on the caller, so `threads = 1`
//!   takes the same code path a sequential loop would.
//! * **Scoped borrows** — workers borrow the caller's data (`&Csr`,
//!   `&Table`, …) directly; nothing is `'static` or reference-counted.
//!
//! Three scheduling shapes are provided:
//!
//! * [`Pool::map_chunks`] — *static* contiguous chunking, for uniform
//!   per-item work (sort runs, row hashing, join builds). Chunk results
//!   concatenate in chunk order. [`Pool::map_chunks_mut`] also hands each
//!   chunk its own disjoint `&mut` part of an output slice (the weight
//!   gather writes slot weights in place this way), so parallel writes
//!   need neither locks nor `unsafe`: the crate forbids `unsafe` code.
//! * [`Pool::map`] / [`Pool::map_with`] — *dynamic* index stealing over an
//!   atomic cursor, for irregular per-item work (one graph traversal per
//!   distinct source). `map_with` gives every worker a private scratch
//!   state (e.g. a distance/visited arena) created once per worker.
//! * [`Pool::broadcast`] — one call per worker, the pipeline driver's
//!   shape over a shared [`MorselQueue`].

#![forbid(unsafe_code)]

use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Minimum items per chunk before [`Pool::chunks`] splits work across
/// threads: below this, thread startup dominates any win.
pub const MIN_CHUNK: usize = 256;

/// Default rows per morsel for pipelined execution: large enough that
/// per-morsel dispatch overhead vanishes, small enough that a morsel's
/// working set stays cache-resident and workers rebalance often.
pub const DEFAULT_MORSEL_ROWS: usize = 65_536;

/// Hard ceiling on a [`Pool`]'s width. Widths beyond any real machine only
/// multiply spawn overhead — and unbounded widths would let a runaway
/// configuration exhaust OS thread limits (spawn failure panics).
pub const MAX_THREADS: usize = 1024;

/// The process-wide default degree of parallelism: the number of hardware
/// threads available to this process (at least 1). Cached after the first
/// call, because every new session asks for it.
pub fn default_threads() -> usize {
    static CACHE: OnceLock<usize> = OnceLock::new();
    *CACHE.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// A small per-thread slot number, assigned on first use from a global
/// counter and fixed for the thread's lifetime. Sharded instruments
/// (`gsql-obs` counters/histograms) key their shard choice on
/// `thread_slot() % SHARDS`, so concurrent workers land on different cache
/// lines without any registration handshake. Slots are never reused; the
/// modulo makes that harmless.
pub fn thread_slot() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SLOT: usize = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    SLOT.with(|s| *s)
}

/// A shared work queue handing out fixed-size **morsels** (contiguous row
/// ranges) of `0..rows` to pipeline workers.
///
/// Workers grab the next morsel with [`MorselQueue::next`]; the atomic
/// cursor guarantees every morsel is handed out exactly once and that the
/// *set* of handed-out morsels is always a prefix `0..k` of the morsel
/// sequence. That prefix property is what makes [`MorselQueue::stop`] safe
/// for LIMIT short-circuits: when a sink stops the queue after `k` grabbed
/// morsels, the rows produced so far are exactly the rows of morsels
/// `0..k`, i.e. a contiguous prefix of the input — identical to what a
/// sequential scan would have produced first.
///
/// Morsel *boundaries* depend only on `(rows, morsel_rows)`, never on the
/// worker count, so per-morsel partial results merged in morsel-index
/// order are bit-identical at every thread count.
pub struct MorselQueue {
    rows: usize,
    morsel_rows: usize,
    cursor: AtomicUsize,
    stop: AtomicBool,
}

/// One unit of pipeline work: morsel `index` covering input rows `rows`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Morsel {
    /// Position in the morsel sequence (0-based); partial results merge in
    /// this order.
    pub index: usize,
    /// The contiguous input-row range this morsel covers.
    pub rows: Range<usize>,
}

impl MorselQueue {
    /// A queue over `rows` input rows cut into morsels of `morsel_rows`
    /// (clamped to at least 1). The final morsel may be short.
    pub fn new(rows: usize, morsel_rows: usize) -> MorselQueue {
        MorselQueue {
            rows,
            morsel_rows: morsel_rows.max(1),
            cursor: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
        }
    }

    /// Total number of morsels this queue will hand out when run to
    /// completion.
    pub fn morsel_count(&self) -> usize {
        self.rows.div_ceil(self.morsel_rows)
    }

    /// Rows per morsel (the last morsel may be shorter).
    pub fn morsel_rows(&self) -> usize {
        self.morsel_rows
    }

    /// Total input rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Grab the next morsel, or `None` when the queue is exhausted or
    /// stopped.
    pub fn next(&self) -> Option<Morsel> {
        if self.stop.load(Ordering::Acquire) {
            return None;
        }
        let index = self.cursor.fetch_add(1, Ordering::Relaxed);
        let start = index.checked_mul(self.morsel_rows)?;
        if start >= self.rows {
            return None;
        }
        let end = (start + self.morsel_rows).min(self.rows);
        Some(Morsel { index, rows: start..end })
    }

    /// Stop handing out morsels (already-grabbed morsels finish normally).
    /// Used by LIMIT sinks to short-circuit upstream production.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Release);
    }

    /// True once [`MorselQueue::stop`] has been called.
    pub fn is_stopped(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }
}

/// A scoped worker pool of a fixed width.
///
/// The pool owns no threads between calls: each primitive spawns up to
/// `threads - 1` scoped workers and uses the calling thread as the first
/// worker, so borrows of caller data are safe and nothing outlives the
/// call. With `threads == 1` every primitive degenerates to an inline
/// sequential loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A pool of `threads` workers (clamped to `1..=`[`MAX_THREADS`]).
    pub fn new(threads: usize) -> Pool {
        Pool { threads: threads.clamp(1, MAX_THREADS) }
    }

    /// The single-threaded pool: every primitive runs inline.
    pub fn sequential() -> Pool {
        Pool::new(1)
    }

    /// The configured width.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// True when this pool never spawns.
    pub fn is_sequential(&self) -> bool {
        self.threads == 1
    }

    /// Partition `0..len` into contiguous chunks: one per worker, but never
    /// smaller than [`MIN_CHUNK`] items (tiny inputs stay on one chunk).
    /// Chunks are in index order and cover the range exactly.
    pub fn chunks(&self, len: usize) -> Vec<Range<usize>> {
        let workers = self.threads.min(len.div_ceil(MIN_CHUNK)).max(1);
        let base = len / workers;
        let extra = len % workers;
        let mut out = Vec::with_capacity(workers);
        let mut start = 0;
        for w in 0..workers {
            let size = base + usize::from(w < extra);
            out.push(start..start + size);
            start += size;
        }
        debug_assert_eq!(start, len);
        out
    }

    /// Map each chunk of `0..len` through `f`; results are returned in
    /// chunk (= index) order, so concatenating them reproduces the
    /// sequential output exactly.
    pub fn map_chunks<T: Send>(&self, len: usize, f: impl Fn(Range<usize>) -> T + Sync) -> Vec<T> {
        // A slice of `()` takes no memory: it only carries the length.
        self.map_chunks_mut(&mut vec![(); len], |range, _| f(range))
    }

    /// [`Pool::map_chunks`] over the indices of `data`, each chunk also
    /// handed its own part of `data` to write: disjoint `&mut` slices, so
    /// parallel writes need no synchronisation. One chunk runs inline.
    pub fn map_chunks_mut<D: Send, T: Send>(
        &self,
        data: &mut [D],
        f: impl Fn(Range<usize>, &mut [D]) -> T + Sync,
    ) -> Vec<T> {
        let mut rest = data;
        let mut parts = Vec::new();
        for range in self.chunks(rest.len()) {
            let (part, tail) = std::mem::take(&mut rest).split_at_mut(range.len());
            parts.push((range, part));
            rest = tail;
        }
        if parts.len() <= 1 {
            return parts.into_iter().map(|(range, part)| f(range, part)).collect();
        }
        let f = &f;
        std::thread::scope(|s| {
            let mut rest = parts.into_iter();
            let (range, part) = rest.next().expect("at least one chunk");
            let handles: Vec<_> = rest.map(|(r, p)| s.spawn(move || f(r, p))).collect();
            let mut out = Vec::with_capacity(handles.len() + 1);
            out.push(f(range, part));
            for h in handles {
                out.push(h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)));
            }
            out
        })
    }

    /// Map every index of `0..len` through `f` with dynamic scheduling:
    /// workers steal the next index from a shared atomic cursor, so
    /// irregular per-item costs balance automatically. Results are returned
    /// in index order regardless of scheduling.
    pub fn map<T: Send>(&self, len: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
        self.map_with(len, || (), |(), i| f(i))
    }

    /// [`Pool::map`] with per-worker scratch state: `init` runs once on
    /// each worker, and `f` receives that worker's state mutably for every
    /// index it processes. This is how traversal scratch arenas (distance /
    /// visited arrays) are reused across work items without sharing.
    pub fn map_with<S, T: Send>(
        &self,
        len: usize,
        init: impl Fn() -> S + Sync,
        f: impl Fn(&mut S, usize) -> T + Sync,
    ) -> Vec<T> {
        let workers = self.threads.min(len).max(1);
        if workers <= 1 {
            let mut state = init();
            return (0..len).map(|i| f(&mut state, i)).collect();
        }
        let cursor = AtomicUsize::new(0);
        let run_worker = || {
            let mut state = init();
            let mut local: Vec<(usize, T)> = Vec::new();
            loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= len {
                    break;
                }
                local.push((i, f(&mut state, i)));
            }
            local
        };
        let locals: Vec<Vec<(usize, T)>> = std::thread::scope(|s| {
            let handles: Vec<_> = (1..workers).map(|_| s.spawn(run_worker)).collect();
            let mut all = vec![run_worker()];
            for h in handles {
                all.push(h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)));
            }
            all
        });
        // Reassemble in index order.
        let mut slots: Vec<Option<T>> = (0..len).map(|_| None).collect();
        for local in locals {
            for (i, v) in local {
                debug_assert!(slots[i].is_none(), "index {i} produced twice");
                slots[i] = Some(v);
            }
        }
        slots.into_iter().map(|v| v.expect("every index produced exactly once")).collect()
    }

    /// Run `f(worker_index)` once on each of up to `workers` workers
    /// (clamped to the pool width, at least 1) and return the per-worker
    /// results in worker-index order. This is the pipeline-driver shape:
    /// each worker loops on a shared [`MorselQueue`] until it drains,
    /// accumulating morsel-indexed partials that the caller merges
    /// deterministically.
    pub fn broadcast<T: Send>(&self, workers: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
        let workers = workers.clamp(1, self.threads);
        if workers == 1 {
            return vec![f(0)];
        }
        let f = &f;
        std::thread::scope(|s| {
            let handles: Vec<_> = (1..workers).map(|w| s.spawn(move || f(w))).collect();
            let mut out = Vec::with_capacity(workers);
            out.push(f(0));
            for h in handles {
                out.push(h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)));
            }
            out
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn chunks_cover_range_in_order() {
        let pool = Pool::new(4);
        for len in [0usize, 1, 255, 256, 257, 1024, 1000, 4096, 10_000] {
            let chunks = pool.chunks(len);
            let mut next = 0;
            for c in &chunks {
                assert_eq!(c.start, next);
                next = c.end;
            }
            assert_eq!(next, len);
            assert!(chunks.len() <= 4);
        }
        // Tiny inputs stay on one chunk.
        assert_eq!(pool.chunks(10).len(), 1);
        // Sequential pools never split.
        assert_eq!(Pool::sequential().chunks(100_000).len(), 1);
    }

    #[test]
    fn map_chunks_concatenates_in_order() {
        let pool = Pool::new(8);
        let n = 10_000;
        let parts = pool.map_chunks(n, |r| r.collect::<Vec<usize>>());
        let flat: Vec<usize> = parts.into_iter().flatten().collect();
        assert_eq!(flat, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn map_returns_index_order_under_stealing() {
        let pool = Pool::new(8);
        let out = pool.map(1000, |i| i * 3);
        assert_eq!(out, (0..1000).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn map_with_reuses_worker_state() {
        let pool = Pool::new(4);
        let inits = AtomicU64::new(0);
        let out = pool.map_with(
            100,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                0u64
            },
            |calls, i| {
                *calls += 1;
                (*calls, i)
            },
        );
        // Per-worker call counters: each worker's sequence is 1, 2, 3, …;
        // summed over all items the counters cover all 100 calls.
        assert_eq!(out.iter().map(|&(_, i)| i).collect::<Vec<_>>(), (0..100).collect::<Vec<_>>());
        let total_inits = inits.load(Ordering::Relaxed);
        assert!((1..=4).contains(&total_inits), "one init per worker, got {total_inits}");
    }

    #[test]
    fn pool_width_is_clamped() {
        assert_eq!(Pool::new(0).threads(), 1);
        assert_eq!(Pool::new(usize::MAX).threads(), MAX_THREADS);
    }

    #[test]
    fn sequential_pool_runs_inline() {
        let pool = Pool::sequential();
        assert!(pool.is_sequential());
        let out = pool.map(10, |i| i + 1);
        assert_eq!(out, (1..=10).collect::<Vec<_>>());
        let sums = pool.map_chunks(10_000, |r| r.sum::<usize>());
        assert_eq!(sums.len(), 1);
    }

    #[test]
    fn map_chunks_mut_hands_each_chunk_its_own_part() {
        for threads in [1, 4] {
            let mut data = vec![0usize; 5000];
            let sums = Pool::new(threads).map_chunks_mut(&mut data, |range, part| {
                assert_eq!(range.len(), part.len());
                for (i, x) in range.clone().zip(part) {
                    *x = 4999 - i;
                }
                range.len()
            });
            assert_eq!(sums.iter().sum::<usize>(), 5000, "threads {threads}");
            assert!(data.iter().enumerate().all(|(i, &x)| x == 4999 - i), "threads {threads}");
        }
        assert_eq!(Pool::new(4).map_chunks_mut(&mut [0u8; 0], |r, _| r.len()), [0]);
    }

    #[test]
    fn worker_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            Pool::new(4).map(2048, |i| {
                if i == 2000 {
                    panic!("boom");
                }
                i
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn default_threads_is_the_available_parallelism() {
        let available = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(default_threads(), available);
        assert!(default_threads() >= 1);
    }

    #[test]
    fn thread_slot_is_stable_per_thread_and_distinct_across_threads() {
        let here = thread_slot();
        assert_eq!(here, thread_slot(), "slot must be stable within a thread");
        let slots = Pool::new(4).broadcast(4, |_| thread_slot());
        // The calling thread participates as worker 0; spawned workers get
        // fresh (distinct) slots.
        assert_eq!(slots[0], here);
        for (i, a) in slots.iter().enumerate() {
            for b in &slots[i + 1..] {
                assert_ne!(a, b, "two live threads share a slot");
            }
        }
    }

    #[test]
    fn morsel_queue_covers_rows_exactly_once() {
        for (rows, morsel_rows) in [(0usize, 7usize), (1, 7), (6, 7), (7, 7), (8, 7), (100, 7)] {
            let q = MorselQueue::new(rows, morsel_rows);
            assert_eq!(q.morsel_count(), rows.div_ceil(morsel_rows));
            let mut covered = 0;
            let mut expect_index = 0;
            while let Some(m) = q.next() {
                assert_eq!(m.index, expect_index);
                assert_eq!(m.rows.start, covered);
                assert!(m.rows.len() <= morsel_rows && !m.rows.is_empty());
                covered = m.rows.end;
                expect_index += 1;
            }
            assert_eq!(covered, rows, "rows={rows} morsel_rows={morsel_rows}");
            assert_eq!(expect_index, q.morsel_count());
            assert!(q.next().is_none(), "exhausted queue stays exhausted");
        }
    }

    #[test]
    fn morsel_queue_parallel_grab_is_disjoint_and_complete() {
        let q = MorselQueue::new(10_000, 64);
        let grabbed: Vec<Vec<Morsel>> = Pool::new(8).broadcast(8, |_| {
            let mut local = Vec::new();
            while let Some(m) = q.next() {
                local.push(m);
            }
            local
        });
        let mut all: Vec<Morsel> = grabbed.into_iter().flatten().collect();
        all.sort_by_key(|m| m.index);
        let mut covered = 0;
        for (i, m) in all.iter().enumerate() {
            assert_eq!(m.index, i);
            assert_eq!(m.rows.start, covered);
            covered = m.rows.end;
        }
        assert_eq!(covered, 10_000);
    }

    #[test]
    fn morsel_queue_stop_halts_production() {
        let q = MorselQueue::new(1000, 10);
        assert!(q.next().is_some());
        assert!(!q.is_stopped());
        q.stop();
        assert!(q.is_stopped());
        assert!(q.next().is_none());
    }

    #[test]
    fn morsel_queue_clamps_zero_morsel_rows() {
        let q = MorselQueue::new(5, 0);
        assert_eq!(q.morsel_rows(), 1);
        assert_eq!(q.morsel_count(), 5);
    }

    #[test]
    fn broadcast_runs_each_worker_once_in_order() {
        let out = Pool::new(4).broadcast(4, |w| w * 10);
        assert_eq!(out, vec![0, 10, 20, 30]);
        // Clamped to pool width and to at least one worker.
        assert_eq!(Pool::new(2).broadcast(8, |w| w), vec![0, 1]);
        assert_eq!(Pool::sequential().broadcast(0, |w| w), vec![0]);
    }
}
