//! Contraction-hierarchy preprocessing: node ordering and shortcut
//! insertion (Geisberger et al., WEA'08).
//!
//! A contraction hierarchy removes vertices one by one in a heuristic
//! *importance* order; whenever removing `v` would break a shortest path
//! `u → v → w`, a **shortcut** edge `u → w` of weight `d(u,v) + d(v,w)` is
//! inserted — unless a bounded **witness search** proves an equally cheap
//! detour avoiding `v` already exists. The surviving edges (originals plus
//! shortcuts), each pointing from a lower-ranked to a higher-ranked
//! endpoint, form two search graphs:
//!
//! * the **upward graph** `G↑` — forward edges into higher ranks, searched
//!   from the source;
//! * the **downward graph** `G↓` (stored reversed) — original edges out of
//!   higher ranks, searched backward from the destination.
//!
//! Every shortest path in the original graph is cost-equal to an
//! *up-then-down* path over the hierarchy, so the bidirectional upward
//! Dijkstra in [`crate::ch_query()`] is exact — shortcut insertion is purely
//! conservative (a failed witness search adds a shortcut, never drops one),
//! which is why the witness limits trade preprocessing quality for build
//! time without ever affecting correctness.
//!
//! Ordering uses the classic **edge difference** (shortcuts added minus
//! edges removed) plus a **deleted neighbours** term that spreads the
//! contraction evenly. The contraction itself proceeds in **independent-set
//! rounds** (the standard parallel-CH scheme): every round selects the
//! vertices that are strict local minima of a deterministic key —
//! `(priority, hash(v), v)`, the hash term breaking uniform-priority
//! plateaus so rounds stay wide — over their uncontracted overlay
//! neighbours. No two selected vertices share an edge, so their witness
//! searches and shortcut sets are computed concurrently against the
//! round-start overlay and stay valid when applied: a witness path through
//! a co-selected vertex survives its contraction via that vertex's own
//! shortcuts. Selection, shortcut enumeration, and the post-round priority
//! refresh of touched neighbours all fan out over the `gsql-parallel`
//! pool, while shortcut application, rank assignment (ascending vertex id
//! within a round) and detachment run sequentially — every parallel piece
//! returns results in input order, so the built hierarchy is identical at
//! every thread count.

use crate::INF;
use gsql_graph::Csr;
use gsql_parallel::Pool;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Settled-vertex budget of one witness search. Larger budgets find more
/// witnesses (fewer shortcuts, better queries) at higher preprocessing
/// cost; exceeding the budget merely inserts a redundant shortcut.
const WITNESS_SETTLED_LIMIT: usize = 64;

/// One upward search graph in CSR form: for every vertex, its edges toward
/// higher-ranked vertices.
#[derive(Debug, Clone, Default)]
pub(crate) struct UpGraph {
    offsets: Vec<usize>,
    targets: Vec<u32>,
    weights: Vec<u64>,
}

impl UpGraph {
    /// Flatten per-vertex adjacency (already sorted by target) into CSR.
    fn from_adj(adj: &[Vec<(u32, u64)>]) -> UpGraph {
        let mut offsets = Vec::with_capacity(adj.len() + 1);
        offsets.push(0usize);
        let mut total = 0usize;
        for list in adj {
            total += list.len();
            offsets.push(total);
        }
        let mut targets = Vec::with_capacity(total);
        let mut weights = Vec::with_capacity(total);
        for list in adj {
            for &(t, w) in list {
                targets.push(t);
                weights.push(w);
            }
        }
        UpGraph { offsets, targets, weights }
    }

    /// `(target, weight)` pairs of `v`'s upward edges.
    #[inline]
    pub(crate) fn neighbors(&self, v: u32) -> impl Iterator<Item = (u32, u64)> + '_ {
        let range = self.offsets[v as usize]..self.offsets[v as usize + 1];
        self.targets[range.clone()].iter().copied().zip(self.weights[range].iter().copied())
    }

    fn num_edges(&self) -> usize {
        self.targets.len()
    }
}

/// A built contraction hierarchy: the contraction order plus the upward and
/// (reversed) downward search graphs consumed by [`crate::ch_query()`].
#[derive(Debug, Clone)]
pub struct ContractionHierarchy {
    /// `rank[v]` = position of `v` in the contraction order (0 = first
    /// contracted = least important).
    rank: Vec<u32>,
    /// Forward edges into higher ranks (the source-side search graph).
    pub(crate) fwd_up: UpGraph,
    /// Reverse edges into higher ranks: `bwd_up[v]` holds `(u, w)` for every
    /// original-direction edge `u → v` with `rank[u] > rank[v]` (the
    /// destination-side search graph).
    pub(crate) bwd_up: UpGraph,
    /// Number of shortcut edges inserted during preprocessing.
    shortcuts: usize,
}

impl ContractionHierarchy {
    /// Build a hierarchy over `forward` with per-CSR-slot `weights`
    /// (`None` = unit weights), exactly as [`Csr::permute_weights_int`]
    /// produces them — non-negative; the SQL layer additionally validates
    /// strict positivity, but zero weights are handled exactly.
    ///
    /// `threads` sizes the worker pool for the order-independent pieces
    /// (initial priorities, final CSR assembly); the result is identical
    /// for every thread count.
    pub fn build(forward: &Csr, weights: Option<&[i64]>, threads: usize) -> ContractionHierarchy {
        let n = forward.num_vertices() as usize;
        // Overlay adjacency, deduplicating parallel edges to their minimum
        // weight and dropping self-loops (neither can shorten any path).
        let mut out_adj: Vec<HashMap<u32, u64>> = vec![HashMap::new(); n];
        let mut in_adj: Vec<HashMap<u32, u64>> = vec![HashMap::new(); n];
        for u in 0..n as u32 {
            for (slot, v) in forward.neighbors(u) {
                if v == u {
                    continue;
                }
                let w = weights.map_or(1, |ws| {
                    debug_assert!(ws[slot] >= 0, "negative weight reached CH build");
                    ws[slot] as u64
                });
                let e = out_adj[u as usize].entry(v).or_insert(u64::MAX);
                *e = (*e).min(w);
                let e = in_adj[v as usize].entry(u).or_insert(u64::MAX);
                *e = (*e).min(w);
            }
        }

        let mut deleted_neighbors: Vec<u32> = vec![0; n];
        // Initial priorities: one simulated contraction per vertex, an
        // independent computation fanned out over the pool (per-worker
        // witness scratch, results in input order).
        let pool = Pool::new(threads);
        let mut prios: Vec<i64> = pool.map_with(
            n,
            || WitnessSearch::new(n),
            |wit, v| priority(v as u32, &out_adj, &in_adj, &deleted_neighbors, wit),
        );

        let mut rank: Vec<u32> = vec![u32::MAX; n];
        let mut fwd_up_adj: Vec<Vec<(u32, u64)>> = vec![Vec::new(); n];
        let mut bwd_up_adj: Vec<Vec<(u32, u64)>> = vec![Vec::new(); n];
        let mut shortcuts = 0usize;
        let mut next_rank = 0u32;
        let mut remaining: Vec<u32> = (0..n as u32).collect();
        let mut in_round: Vec<bool> = vec![false; n];
        while !remaining.is_empty() {
            // Round key: priority first, then a hash so uniform-priority
            // regions (chains, grids) still select wide independent sets,
            // then the id to make every key distinct (which also makes the
            // key-minimal vertex a guaranteed pick — termination).
            let key = |v: u32| (prios[v as usize], splitmix64(v as u64), v);
            // A vertex joins the round iff it beats every uncontracted
            // overlay neighbour; adjacent vertices can never both win, so
            // the selected set is independent.
            let picked: Vec<bool> = pool.map(remaining.len(), |i| {
                let v = remaining[i];
                let kv = key(v);
                out_adj[v as usize].keys().chain(in_adj[v as usize].keys()).all(|&u| key(u) > kv)
            });
            let selected: Vec<u32> = remaining
                .iter()
                .zip(&picked)
                .filter_map(|(&v, &p)| if p { Some(v) } else { None })
                .collect();
            debug_assert!(!selected.is_empty());

            // Witness searches + shortcut sets against the round-start
            // overlay, one independent task per selected vertex. Witness
            // paths must avoid the *entire* selected set, not just the
            // vertex being contracted: two co-selected vertices could
            // otherwise each skip a shortcut on the strength of a witness
            // running through the other (which this round also removes).
            // Avoiding the whole set means a found witness survives the
            // round verbatim — its vertices stay, and edges between
            // surviving vertices are never removed — so skipping stays
            // safe; extra shortcuts always are.
            for &v in &selected {
                in_round[v as usize] = true;
            }
            let added_per: Vec<Vec<(u32, u32, u64)>> = pool.map_with(
                selected.len(),
                || WitnessSearch::new(n),
                |wit, i| {
                    let mut added = Vec::new();
                    shortcuts_of(
                        selected[i],
                        &out_adj,
                        &in_adj,
                        wit,
                        Some(&in_round),
                        |u, w, wt| {
                            added.push((u, w, wt));
                        },
                    );
                    added
                },
            );
            for &v in &selected {
                in_round[v as usize] = false;
            }

            // Apply sequentially in ascending vertex id (the order
            // `selected` is already in): shortcut bookkeeping and rank
            // assignment are deterministic regardless of thread count.
            let mut touched: Vec<u32> = Vec::new();
            for (added, &v) in added_per.iter().zip(&selected) {
                for &(u, w, wt) in added {
                    let e = out_adj[u as usize].entry(w).or_insert(u64::MAX);
                    if *e == u64::MAX {
                        shortcuts += 1;
                    }
                    *e = (*e).min(wt);
                    let e = in_adj[w as usize].entry(u).or_insert(u64::MAX);
                    *e = (*e).min(wt);
                }

                // Detach v. Its remaining neighbours are exactly the
                // not-yet-contracted ones, so the recorded edges all point
                // upward in rank.
                let mut outs: Vec<(u32, u64)> =
                    out_adj[v as usize].iter().map(|(&t, &w)| (t, w)).collect();
                outs.sort_unstable();
                let mut ins: Vec<(u32, u64)> =
                    in_adj[v as usize].iter().map(|(&t, &w)| (t, w)).collect();
                ins.sort_unstable();
                for &(w, _) in &outs {
                    in_adj[w as usize].remove(&v);
                    deleted_neighbors[w as usize] += 1;
                    touched.push(w);
                }
                for &(u, _) in &ins {
                    out_adj[u as usize].remove(&v);
                    deleted_neighbors[u as usize] += 1;
                    touched.push(u);
                }
                fwd_up_adj[v as usize] = outs;
                bwd_up_adj[v as usize] = ins;
                rank[v as usize] = next_rank;
                next_rank += 1;
            }

            // Refresh the priorities the round invalidated — the former
            // neighbours of contracted vertices — in parallel (sorted +
            // dedup'd, so the refresh set and result order are
            // deterministic).
            touched.sort_unstable();
            touched.dedup();
            let fresh: Vec<i64> = pool.map_with(
                touched.len(),
                || WitnessSearch::new(n),
                |wit, i| priority(touched[i], &out_adj, &in_adj, &deleted_neighbors, wit),
            );
            for (&v, f) in touched.iter().zip(fresh) {
                prios[v as usize] = f;
            }
            remaining.retain(|&v| rank[v as usize] == u32::MAX);
        }
        debug_assert_eq!(next_rank as usize, n);

        // The two search-graph CSRs are independent assemblies.
        let mut graphs =
            pool.map(2, |i| UpGraph::from_adj(if i == 0 { &fwd_up_adj } else { &bwd_up_adj }));
        let bwd_up = graphs.pop().expect("two graphs");
        let fwd_up = graphs.pop().expect("two graphs");
        ContractionHierarchy { rank, fwd_up, bwd_up, shortcuts }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> u32 {
        self.rank.len() as u32
    }

    /// Number of shortcut edges the preprocessing inserted.
    pub fn shortcuts(&self) -> usize {
        self.shortcuts
    }

    /// The contraction order: `rank()[v]` is `v`'s position (0 = contracted
    /// first). Exposed for the equivalence tests' thread-independence
    /// checks.
    pub fn rank(&self) -> &[u32] {
        &self.rank
    }

    /// Approximate heap size of the hierarchy in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.rank.len() * std::mem::size_of::<u32>()
            + (self.fwd_up.num_edges() + self.bwd_up.num_edges())
                * (std::mem::size_of::<u32>() + std::mem::size_of::<u64>())
            + (self.fwd_up.offsets.len() + self.bwd_up.offsets.len()) * std::mem::size_of::<usize>()
    }

    /// Clone the hierarchy into its raw parts for serialization.
    pub fn to_parts(&self) -> ChParts {
        let up = |g: &UpGraph| UpGraphParts {
            offsets: g.offsets.clone(),
            targets: g.targets.clone(),
            weights: g.weights.clone(),
        };
        ChParts {
            rank: self.rank.clone(),
            fwd: up(&self.fwd_up),
            bwd: up(&self.bwd_up),
            shortcuts: self.shortcuts as u64,
        }
    }

    /// Reassemble a hierarchy from serialized parts, validating the CSR
    /// invariants ([`ContractionHierarchy::to_parts`] round-trips exactly).
    /// The error string names the violated invariant.
    pub fn from_parts(parts: ChParts) -> Result<ContractionHierarchy, String> {
        let n = parts.rank.len();
        let check = |side: &str, p: &UpGraphParts| -> Result<(), String> {
            if p.offsets.len() != n + 1 {
                return Err(format!(
                    "{side} upward graph has {} offsets for {n} vertices",
                    p.offsets.len()
                ));
            }
            if p.offsets.first() != Some(&0) || p.offsets.windows(2).any(|w| w[0] > w[1]) {
                return Err(format!("{side} upward graph offsets are not monotone from 0"));
            }
            let m = *p.offsets.last().unwrap_or(&0);
            if p.targets.len() != m || p.weights.len() != m {
                return Err(format!(
                    "{side} upward graph declares {m} edges but has {} targets / {} weights",
                    p.targets.len(),
                    p.weights.len()
                ));
            }
            if p.targets.iter().any(|&t| t as usize >= n) {
                return Err(format!("{side} upward graph target out of range"));
            }
            Ok(())
        };
        check("forward", &parts.fwd)?;
        check("backward", &parts.bwd)?;
        let up = |p: UpGraphParts| UpGraph {
            offsets: p.offsets,
            targets: p.targets,
            weights: p.weights,
        };
        Ok(ContractionHierarchy {
            rank: parts.rank,
            fwd_up: up(parts.fwd),
            bwd_up: up(parts.bwd),
            shortcuts: parts.shortcuts as usize,
        })
    }
}

/// Raw contents of one upward search graph (see [`ChParts`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UpGraphParts {
    /// CSR offsets, length `n + 1`.
    pub offsets: Vec<usize>,
    /// Higher-ranked neighbor of each slot.
    pub targets: Vec<u32>,
    /// Edge weight of each slot.
    pub weights: Vec<u64>,
}

/// The raw parts of a [`ContractionHierarchy`], used by the persistence
/// layer to serialize a built hierarchy and reassemble it on warm start
/// without re-running preprocessing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChParts {
    /// Contraction order (`rank[v]` = position of `v`).
    pub rank: Vec<u32>,
    /// The source-side (forward upward) search graph.
    pub fwd: UpGraphParts,
    /// The destination-side (backward upward) search graph.
    pub bwd: UpGraphParts,
    /// Number of shortcuts inserted at build time (reporting only).
    pub shortcuts: u64,
}

/// SplitMix64 finalizer: the deterministic per-vertex hash that spreads
/// the independent-set round key across uniform-priority regions.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The priority of `v`: twice the edge difference (shortcuts a contraction
/// would insert minus edges it removes) plus the deleted-neighbours count.
/// Smaller contracts earlier; ties break by hash then vertex id through
/// the round key.
fn priority(
    v: u32,
    out_adj: &[HashMap<u32, u64>],
    in_adj: &[HashMap<u32, u64>],
    deleted_neighbors: &[u32],
    witness: &mut WitnessSearch,
) -> i64 {
    let mut needed = 0i64;
    shortcuts_of(v, out_adj, in_adj, witness, None, |_, _, _| needed += 1);
    let removed = (out_adj[v as usize].len() + in_adj[v as usize].len()) as i64;
    2 * (needed - removed) + deleted_neighbors[v as usize] as i64
}

/// Enumerate the shortcuts contracting `v` requires: for every uncontracted
/// in-neighbour `u` and out-neighbour `w` (`u ≠ w`), emit `(u, w, d(u,v) +
/// d(v,w))` unless a bounded witness search finds a path `u ⇝ w` avoiding
/// `v` that is at least as cheap. Deterministic: neighbours are visited in
/// sorted order and the witness search breaks heap ties by vertex id.
fn shortcuts_of(
    v: u32,
    out_adj: &[HashMap<u32, u64>],
    in_adj: &[HashMap<u32, u64>],
    witness: &mut WitnessSearch,
    banned: Option<&[bool]>,
    mut emit: impl FnMut(u32, u32, u64),
) {
    let vi = v as usize;
    if out_adj[vi].is_empty() || in_adj[vi].is_empty() {
        return;
    }
    let mut outs: Vec<(u32, u64)> = out_adj[vi].iter().map(|(&t, &w)| (t, w)).collect();
    outs.sort_unstable();
    let mut ins: Vec<(u32, u64)> = in_adj[vi].iter().map(|(&t, &w)| (t, w)).collect();
    ins.sort_unstable();
    let max_out = outs.iter().map(|&(_, w)| w).max().unwrap_or(0);
    for &(u, w_uv) in &ins {
        // One witness search per in-neighbour covers all out-neighbours:
        // labels beyond `w_uv + max_out` can never beat any shortcut.
        witness.run(out_adj, u, v, banned, w_uv.saturating_add(max_out));
        for &(w, w_vw) in &outs {
            if w == u {
                continue;
            }
            let via = w_uv.saturating_add(w_vw);
            if witness.dist(w) <= via {
                continue; // a witness path avoids v at no extra cost
            }
            emit(u, w, via);
        }
    }
}

/// Reusable bounded Dijkstra for witness searches: epoch-stamped labels (no
/// per-run clearing) over the overlay adjacency, excluding one vertex,
/// stopping at [`WITNESS_SETTLED_LIMIT`] settled vertices or once the
/// frontier passes the weight limit.
struct WitnessSearch {
    dist: Vec<u64>,
    epoch: Vec<u32>,
    current: u32,
    heap: BinaryHeap<Reverse<(u64, u32)>>,
}

impl WitnessSearch {
    fn new(n: usize) -> WitnessSearch {
        WitnessSearch { dist: vec![0; n], epoch: vec![0; n], current: 0, heap: BinaryHeap::new() }
    }

    /// Label of `v` from the last [`WitnessSearch::run`], [`INF`] when `v`
    /// was not reached within the limits.
    fn dist(&self, v: u32) -> u64 {
        if self.epoch[v as usize] == self.current {
            self.dist[v as usize]
        } else {
            INF
        }
    }

    fn label(&mut self, v: u32, d: u64) -> bool {
        let vi = v as usize;
        if self.epoch[vi] == self.current && self.dist[vi] <= d {
            return false;
        }
        self.epoch[vi] = self.current;
        self.dist[vi] = d;
        true
    }

    /// Bounded Dijkstra from `source` avoiding `excluded` and, when
    /// `banned` is given, every flagged vertex — the whole independent set
    /// of the current round, so witness paths only use vertices (and
    /// therefore edges) that survive the round intact.
    fn run(
        &mut self,
        out_adj: &[HashMap<u32, u64>],
        source: u32,
        excluded: u32,
        banned: Option<&[bool]>,
        limit: u64,
    ) {
        self.current = self.current.wrapping_add(1);
        self.heap.clear();
        self.label(source, 0);
        self.heap.push(Reverse((0, source)));
        let mut settled = 0usize;
        while let Some(Reverse((d, u))) = self.heap.pop() {
            if d > self.dist(u) {
                continue; // stale entry
            }
            if d > limit {
                break; // no label past here can beat any shortcut
            }
            settled += 1;
            if settled > WITNESS_SETTLED_LIMIT {
                break;
            }
            for (&t, &w) in &out_adj[u as usize] {
                if t == excluded || banned.is_some_and(|b| b[t as usize]) {
                    continue;
                }
                let nd = d.saturating_add(w);
                if nd <= limit && self.label(t, nd) {
                    self.heap.push(Reverse((nd, t)));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ch_query::ch_query;
    use gsql_graph::{dijkstra_int, reverse_csr};

    /// 0->1, 0->2, 1->3, 2->3, 3->4 — the workspace's diamond.
    fn diamond() -> Csr {
        Csr::from_edges(5, &[0, 0, 1, 2, 3], &[1, 2, 3, 3, 4]).unwrap()
    }

    #[test]
    fn diamond_distances_match_dijkstra() {
        let g = diamond();
        let raw = [10i64, 1, 1, 1, 1];
        let wf = g.permute_weights_int(&raw).unwrap();
        let ch = ContractionHierarchy::build(&g, Some(&wf), 1);
        for s in 0..5u32 {
            let truth = dijkstra_int(&g, s, &[], &wf).dist;
            for d in 0..5u32 {
                let r = ch_query(&ch, s, d);
                let expected =
                    if truth[d as usize] == u64::MAX { None } else { Some(truth[d as usize]) };
                assert_eq!(r.dist, expected, "pair ({s}, {d})");
            }
        }
    }

    #[test]
    fn unweighted_matches_hops_and_unreachable() {
        let g = diamond();
        let ch = ContractionHierarchy::build(&g, None, 2);
        assert_eq!(ch_query(&ch, 0, 4).dist, Some(3));
        assert_eq!(ch_query(&ch, 0, 0).dist, Some(0));
        assert_eq!(ch_query(&ch, 4, 0).dist, None);
    }

    #[test]
    fn build_is_thread_independent() {
        let g = diamond();
        let base = ContractionHierarchy::build(&g, None, 1);
        for threads in [2, 4, 8] {
            let par = ContractionHierarchy::build(&g, None, threads);
            assert_eq!(par.rank(), base.rank(), "threads {threads}");
            assert_eq!(par.shortcuts(), base.shortcuts(), "threads {threads}");
        }
    }

    #[test]
    fn parallel_edges_and_self_loops_are_normalized() {
        // 0->1 twice (weights 7 and 3), a self-loop on 0, 1->2.
        let g = Csr::from_edges(3, &[0, 0, 0, 1], &[1, 1, 0, 2]).unwrap();
        let raw = [7i64, 3, 5, 2];
        let wf = g.permute_weights_int(&raw).unwrap();
        let ch = ContractionHierarchy::build(&g, Some(&wf), 1);
        assert_eq!(ch_query(&ch, 0, 2).dist, Some(5)); // 3 + 2, loop ignored
    }

    #[test]
    fn zero_weight_edges_are_exact() {
        // 0 -(0)-> 1 -(0)-> 2 -(4)-> 3, plus 0 -(5)-> 3 direct.
        let g = Csr::from_edges(4, &[0, 1, 2, 0], &[1, 2, 3, 3]).unwrap();
        let slot_weights: Vec<i64> =
            (0..g.num_edges()).map(|slot| [0i64, 0, 4, 5][g.edge_row(slot) as usize]).collect();
        let ch = ContractionHierarchy::build(&g, Some(&slot_weights), 1);
        assert_eq!(ch_query(&ch, 0, 3).dist, Some(4));
        assert_eq!(ch_query(&ch, 0, 2).dist, Some(0));
        assert_eq!(ch_query(&ch, 3, 0).dist, None);
    }

    #[test]
    fn empty_graph() {
        let g = Csr::from_edges(0, &[], &[]).unwrap();
        let _r = reverse_csr(&g);
        let ch = ContractionHierarchy::build(&g, None, 4);
        assert_eq!(ch.num_vertices(), 0);
        assert_eq!(ch.shortcuts(), 0);
    }
}
