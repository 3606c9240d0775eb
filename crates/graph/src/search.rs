//! The one search interface of the graph runtime — the paper's single
//! library call (§3.2): pairs in, per-pair reachability, cost and path out
//! ([`Search`]), within one [`Budget`] of workers, deadline and observer.

use crate::batch::PairResult;
use crate::error::GraphError;
use crate::{Result, TraversalKind, TraversalObserver};
use gsql_parallel::Pool;
use std::sync::atomic::Ordering;
use std::time::Instant;

/// What one [`Search::run`] may spend, and who is told about it.
#[derive(Clone, Copy, Default)]
pub struct Budget<'o> {
    /// Worker-pool width (`0` and `1` both mean sequential).
    pub threads: usize,
    /// Abandon the run once this instant passes, polled only by
    /// [`Budget::fan_out`]: a search times out only there, and only with
    /// [`GraphError::DeadlineExceeded`].
    pub deadline: Option<Instant>,
    /// Told every traversal's [`TraversalKind`] and settled count
    /// ([`Budget::traversal`]) and the answering structure's shape
    /// ([`Budget::shape`]).
    pub observer: Option<&'o dyn TraversalObserver>,
}

impl Budget<'_> {
    /// Fail with [`GraphError::DeadlineExceeded`] once the deadline has
    /// passed: the poll of a long build between its steps.
    pub fn poll(&self) -> Result<()> {
        match self.deadline {
            Some(deadline) if Instant::now() >= deadline => Err(GraphError::DeadlineExceeded),
            _ => Ok(()),
        }
    }

    /// Report one traversal of `kind` that settled `settled` vertices.
    pub fn traversal(&self, kind: TraversalKind, settled: usize) {
        if let Some(observer) = self.observer {
            observer.traversal(kind, settled);
        }
    }

    /// Report the size of the structure that answered a run.
    pub fn shape(&self, key: &'static str, value: usize) {
        if let Some(observer) = self.observer {
            observer.shape(key, value);
        }
    }

    /// Run `task` for every index of `0..tasks` on the budget's workers,
    /// each worker reusing one scratch from `init`; results come back in
    /// index order, so the output is identical at every width.
    ///
    /// The deadline is polled before every task and is sticky: once one
    /// task sees it pass, the remaining tasks are skipped and the run fails
    /// with [`GraphError::DeadlineExceeded`] — never with partial results.
    pub fn fan_out<S, T: Send>(
        &self,
        tasks: usize,
        init: impl Fn() -> S + Sync,
        task: impl Fn(&mut S, usize) -> T + Sync,
    ) -> Result<Vec<T>> {
        let expired = std::sync::atomic::AtomicBool::new(false);
        Pool::new(self.threads)
            .map_with(tasks, init, |scratch, i| {
                if expired.load(Ordering::Relaxed) || self.poll().is_err() {
                    expired.store(true, Ordering::Relaxed);
                    return None;
                }
                Some(task(scratch, i))
            })
            .into_iter()
            .collect::<Option<Vec<T>>>()
            .ok_or(GraphError::DeadlineExceeded)
    }

    /// One search per pair: `search(scratch, source, dest)` answers one
    /// pair and returns the vertices it settled, reported as one traversal
    /// of `kind` whether or not it found a path. The pairs are
    /// [`Budget::fan_out`] tasks, so each worker leases one scratch from
    /// `init` and the answers come back in input-pair order.
    pub fn per_pair<S>(
        &self,
        pairs: &[(u32, u32)],
        kind: TraversalKind,
        init: impl Fn() -> S + Sync,
        search: impl Fn(&mut S, u32, u32) -> (PairResult, usize) + Sync,
    ) -> Result<Vec<PairResult>> {
        self.fan_out(pairs.len(), init, |scratch, i| {
            let (answer, settled) = search(scratch, pairs[i].0, pairs[i].1);
            self.traversal(kind, settled);
            answer
        })
    }

    /// One search per distinct source: `search(scratch, source, targets)`
    /// answers the targets of one source group in order, and the answers
    /// are scattered back into input-pair order. The first group's error
    /// (in source order) fails the run.
    pub fn per_source<S>(
        &self,
        pairs: &[(u32, u32)],
        init: impl Fn() -> S + Sync,
        search: impl Fn(&mut S, u32, &[u32]) -> Result<Vec<PairResult>> + Sync,
    ) -> Result<Vec<PairResult>> {
        // Input indices grouped by source: one group per distinct source.
        let mut order: Vec<usize> = (0..pairs.len()).collect();
        order.sort_unstable_by_key(|&i| pairs[i].0);
        let groups: Vec<&[usize]> = order.chunk_by(|&a, &b| pairs[a].0 == pairs[b].0).collect();
        let answers = self.fan_out(groups.len(), init, |scratch, g| {
            let targets: Vec<u32> = groups[g].iter().map(|&i| pairs[i].1).collect();
            search(scratch, pairs[groups[g][0]].0, &targets)
        })?;
        let answers = answers.into_iter().collect::<Result<Vec<_>>>()?;
        let mut results = vec![PairResult::UNREACHABLE; pairs.len()];
        for (group, answer) in groups.iter().zip(answers) {
            for (&i, r) in group.iter().zip(answer) {
                results[i] = r;
            }
        }
        Ok(results)
    }
}

/// One traversal kind behind the runtime's single call.
///
/// `run` answers every `(source, dest)` pair in input order. Costs are
/// exact and identical at every `budget.threads`; a timeout is only ever
/// [`GraphError::DeadlineExceeded`]. `want_path` asks for the edge rows of
/// one shortest path per reachable pair; searches that only compute costs
/// (the accelerated ones) document that they leave `path` empty.
pub trait Search: Sync {
    /// Answer every pair within `budget`.
    fn run(
        &self,
        pairs: &[(u32, u32)],
        budget: &Budget<'_>,
        want_path: bool,
    ) -> Result<Vec<PairResult>>;
}

/// Reject the first pair endpoint outside a graph of `n` vertices.
pub fn check_vertices(pairs: &[(u32, u32)], n: u32) -> Result<()> {
    match pairs.iter().flat_map(|&(s, d)| [s, d]).find(|&v| v >= n) {
        Some(id) => Err(GraphError::VertexOutOfRange { id, n }),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn fan_out_keeps_index_order_and_fails_whole_on_a_past_deadline() {
        for threads in [1, 4] {
            let budget = Budget { threads, ..Budget::default() };
            assert_eq!(budget.fan_out(9, || (), |(), i| i * i).unwrap()[8], 64);
            let past =
                Budget { deadline: Some(Instant::now() - Duration::from_millis(1)), ..budget };
            assert_eq!(past.fan_out(9, || (), |(), i| i), Err(GraphError::DeadlineExceeded));
            let future =
                Budget { deadline: Some(Instant::now() + Duration::from_secs(3600)), ..budget };
            assert_eq!(future.fan_out(3, || (), |(), i| i).unwrap(), [0, 1, 2]);
        }
    }

    /// The one deadline shape every search shares: a past deadline is
    /// `DeadlineExceeded` at one worker and at four, a far one changes
    /// nothing.
    #[test]
    fn every_search_times_out_on_a_past_deadline() {
        use crate::{reverse_csr, BidirBfs, Csr, PreparedWeights, SourceSearch, WeightSpec};
        let g = Csr::from_edges(5, &[0, 0, 1, 2, 3], &[1, 2, 3, 3, 4]).unwrap();
        let rev = reverse_csr(&g);
        let int = PreparedWeights::new(&g, &WeightSpec::Int(vec![10, 1, 1, 1, 1]), 1).unwrap();
        let float = PreparedWeights::new(&g, &WeightSpec::Float(vec![0.5; 5]), 1).unwrap();
        let (bfs, bidir) = (SourceSearch::bfs(&g), BidirBfs { forward: &g, backward: &rev });
        let (dijkstra_int, dijkstra_float) =
            (SourceSearch::new(&g, &int), SourceSearch::new(&g, &float));
        let searches: [&dyn Search; 4] = [&bfs, &dijkstra_int, &dijkstra_float, &bidir];
        let pairs = [(0, 4), (4, 0), (2, 2)];
        for (i, search) in searches.into_iter().enumerate() {
            for threads in [1, 4] {
                let past = Instant::now() - Duration::from_millis(1);
                let budget = Budget { threads, deadline: Some(past), observer: None };
                let err = search.run(&pairs, &budget, true).unwrap_err();
                assert_eq!(err, GraphError::DeadlineExceeded, "search {i} threads {threads}");
                let far = Budget { deadline: Some(past + Duration::from_secs(3600)), ..budget };
                let plain = Budget { threads, ..Budget::default() };
                let (timed, untimed) =
                    (search.run(&pairs, &far, true), search.run(&pairs, &plain, true));
                let costs = |r: Result<Vec<PairResult>>| -> Vec<_> {
                    r.unwrap().into_iter().map(|p| p.cost).collect()
                };
                assert_eq!(costs(timed), costs(untimed), "search {i} threads {threads}");
            }
        }
    }

    #[test]
    fn per_source_answers_in_input_order() {
        let pairs = [(2, 7), (1, 5), (2, 8), (1, 6)];
        let budget = Budget { threads: 4, ..Budget::default() };
        let results = budget
            .per_source(
                &pairs,
                || (),
                |(), source, targets| {
                    let cost = |t: &u32| crate::CostValue::Int(i64::from(source * 10 + t));
                    Ok(targets.iter().map(|t| PairResult::reached(cost(t), None)).collect())
                },
            )
            .unwrap();
        let costs: Vec<f64> = results.iter().map(|r| r.cost.unwrap().as_f64()).collect();
        assert_eq!(costs, [27.0, 15.0, 28.0, 16.0]);
    }

    #[test]
    fn out_of_range_endpoints_are_rejected() {
        assert_eq!(check_vertices(&[(0, 1), (1, 2)], 3), Ok(()));
        assert_eq!(
            check_vertices(&[(0, 1), (1, 3)], 3),
            Err(GraphError::VertexOutOfRange { id: 3, n: 3 })
        );
    }
}
