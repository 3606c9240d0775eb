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
//! **Order.** A vertex's priority is twice its edge difference (shortcuts
//! a contraction would insert minus edges it removes), plus its
//! original-edges difference (original edges those shortcuts stand for
//! minus those the removed edges stand for), plus its deleted-neighbours
//! count. The original-edges term charges a shortcut for the path it
//! spans, so long shortcuts are deferred and the core densifies less.
//!
//! **Rounds.** The contraction proceeds in deterministic **independent-set
//! rounds**: the winners of a round are the vertices whose key —
//! `(priority, hash(v), v)`, the hash breaking uniform-priority plateaus so
//! rounds stay wide — is a strict local minimum over their uncontracted
//! neighbours. No two winners share an edge, so their shortcut sets are
//! computed concurrently against the round-start overlay, with witness
//! paths avoiding every winner, and stay valid when applied. Priorities
//! are updated **lazily**: contracting `v` marks its neighbours stale, a
//! stale winner's priority is re-derived from the shortcut set its round
//! just computed, and it is contracted only if it still wins.
//!
//! **Witness searches.** The overlay is flat — per-vertex edge lists,
//! deduplicated on insert, out-lists sorted by weight — and every search
//! is one bounded Dijkstra per (vertex, in-neighbour) that stops once
//! every out-neighbour is decided — settled, or labelled within its
//! shortcut's weight — or its bound (the largest undecided shortcut) is
//! passed. Its hop and settled limits are staged by the overlay's
//! average degree (`STAGES`); the initial priorities are simulated with a
//! quarter of the contraction's settled budget. One search scratch per
//! worker is kept across rounds.
//!
//! **Determinism.** Every parallel phase — the round's selection, the
//! simulations, the contractions — returns results in input order, the
//! searches fanning out one task per (vertex, in-neighbour) over the
//! `gsql-parallel` pool; shortcut application, rank assignment (ascending
//! vertex id within a round) and detachment run sequentially. The
//! hierarchy is identical at every thread count.
//!
//! **Cost.** On `gsql_datagen::road::grid_network` grids (weights 1–9, 10 %
//! of vertical roads closed) on 2 vCPUs the build takes ≈ 0.25 s at 100²,
//! ≈ 1.3 s at 200² and ≈ 3 s at 300², inserting 1.53, 1.63 and 1.67
//! shortcuts per edge. A grid has no road hierarchy, so its top-level
//! separators end as dense cores; the witness work there, not in the
//! sparse rounds, is what grows faster than `|V|`.

use crate::INF;
use gsql_graph::{Arena, Budget, Csr, GraphError, Spares};
use gsql_parallel::Pool;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

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
    /// The largest weight total a hierarchy holds: costs are `i64`.
    pub const MAX_WEIGHT_TOTAL: u64 = i64::MAX as u64;

    /// Build a hierarchy over `forward` with per-CSR-slot `weights`
    /// (`None` = unit weights), exactly as [`Csr::permute_weights_int`]
    /// produces them — non-negative; the SQL layer additionally validates
    /// strict positivity, but zero weights are handled exactly.
    ///
    /// `threads` sizes the worker pool; the result is identical for every
    /// thread count. No deadline: [`ContractionHierarchy::build_within`]
    /// is the bounded form. Panics on weights above [`Self::MAX_WEIGHT_TOTAL`].
    pub fn build(forward: &Csr, weights: Option<&[i64]>, threads: usize) -> ContractionHierarchy {
        let budget = Budget { threads, ..Budget::default() };
        Self::build_within(forward, weights, &budget).expect("no deadline was set")
    }

    /// [`ContractionHierarchy::build`] on `budget`'s workers, polling its
    /// deadline once per contraction round: a build that outlives it fails
    /// with [`GraphError::DeadlineExceeded`] and returns nothing; weights
    /// above [`Self::MAX_WEIGHT_TOTAL`] with [`GraphError::WeightTotalTooLarge`].
    pub fn build_within(
        forward: &Csr,
        weights: Option<&[i64]>,
        budget: &Budget<'_>,
    ) -> Result<ContractionHierarchy, GraphError> {
        let n = forward.num_vertices() as usize;
        let pool = Pool::new(budget.threads);
        let spares = Spares::new();
        crate::check_total(weights, Self::MAX_WEIGHT_TOTAL)?;
        budget.poll()?;
        let mut overlay = Overlay::new(forward, weights);
        let mut deleted_neighbors: Vec<u32> = vec![0; n];
        let all: Vec<u32> = (0..n as u32).collect();
        // Initial priorities: one simulated contraction per vertex, under
        // the stage's cheaper limits.
        let simulate = Stage::of(&overlay, n).simulate;
        let simulated = shortcut_sets(&pool, &spares, &all, &overlay, None, simulate);
        let mut prios: Vec<i64> = (all.iter().zip(simulated))
            .map(|(&v, set)| priority(v, &overlay, &deleted_neighbors, &set))
            .collect();
        let mut stale: Vec<bool> = vec![false; n];

        let mut rank: Vec<u32> = vec![u32::MAX; n];
        let mut fwd_up_adj: Vec<Vec<(u32, u64)>> = vec![Vec::new(); n];
        let mut bwd_up_adj: Vec<Vec<(u32, u64)>> = vec![Vec::new(); n];
        let mut shortcuts = 0usize;
        let mut next_rank = 0u32;
        let mut remaining = all;
        let mut in_round: Vec<bool> = vec![false; n];
        while !remaining.is_empty() {
            budget.poll()?;
            let stage = Stage::of(&overlay, remaining.len());
            // A vertex wins the round iff its key beats every uncontracted
            // overlay neighbour's: adjacent vertices can never both win, so
            // the winners are independent. The key is the priority, then a
            // hash so uniform-priority regions (chains, grids) still select
            // wide sets, then the id to make every key distinct (which also
            // makes the key-minimal vertex a guaranteed winner).
            let local_minimum = |prios: &[i64], v: u32| {
                let key = |v: u32| (prios[v as usize], splitmix64(v as u64), v);
                let kv = key(v);
                overlay.neighbors(v).all(|u| key(u) > kv)
            };
            let won: Vec<bool> = pool.map(remaining.len(), |i| local_minimum(&prios, remaining[i]));
            let winners: Vec<u32> =
                remaining.iter().zip(&won).filter(|(_, &w)| w).map(|(&v, _)| v).collect();
            debug_assert!(!winners.is_empty());

            // Witness searches + shortcut sets against the round-start
            // overlay, one independent task per winner and in-neighbour.
            // Witness paths must avoid *every* winner, not just the vertex
            // being contracted: two winners could otherwise each skip a
            // shortcut on the strength of a witness running through the
            // other (which this round may also remove). Avoiding them all
            // means a found witness survives the round verbatim — its
            // vertices stay, and edges between surviving vertices are never
            // removed — so skipping stays safe; extra shortcuts always are.
            for &v in &winners {
                in_round[v as usize] = true;
            }
            let sets =
                shortcut_sets(&pool, &spares, &winners, &overlay, Some(&in_round), stage.contract);
            for &v in &winners {
                in_round[v as usize] = false;
            }
            // Lazy updates: a stale winner's priority is re-derived from
            // the shortcut set just found, and it is contracted only if it
            // still wins; a winner that was not stale always does.
            let mut updated = false;
            for (&v, set) in winners.iter().zip(&sets) {
                if std::mem::take(&mut stale[v as usize]) {
                    prios[v as usize] = priority(v, &overlay, &deleted_neighbors, set);
                    updated = true;
                }
            }
            let keep: Vec<bool> =
                winners.iter().map(|&v| !updated || local_minimum(&prios, v)).collect();

            // Apply sequentially in ascending vertex id (the order
            // `winners` is already in): shortcut bookkeeping and rank
            // assignment are deterministic regardless of thread count.
            let contracted = winners.iter().zip(&sets).zip(&keep).filter(|(_, &k)| k);
            for ((&v, set), _) in contracted {
                for s in set {
                    shortcuts += usize::from(overlay.insert(s.from, s.link));
                }
                // Detach v. Its remaining neighbours are exactly the
                // not-yet-contracted ones, so the recorded edges all point
                // upward in rank; each of them is now stale.
                let (outs, ins) = overlay.detach(v);
                for u in outs.iter().chain(&ins).map(|l| l.head) {
                    deleted_neighbors[u as usize] += 1;
                    stale[u as usize] = true;
                }
                let up = |links: Vec<Link>| {
                    let mut up: Vec<(u32, u64)> =
                        links.iter().map(|l| (l.head, l.weight)).collect();
                    up.sort_unstable();
                    up
                };
                fwd_up_adj[v as usize] = up(outs);
                bwd_up_adj[v as usize] = up(ins);
                rank[v as usize] = next_rank;
                next_rank += 1;
            }
            remaining.retain(|&v| rank[v as usize] == u32::MAX);
        }
        debug_assert_eq!(next_rank as usize, n);

        // The two search-graph CSRs are independent assemblies.
        let mut graphs =
            pool.map(2, |i| UpGraph::from_adj(if i == 0 { &fwd_up_adj } else { &bwd_up_adj }));
        let bwd_up = graphs.pop().expect("two graphs");
        let fwd_up = graphs.pop().expect("two graphs");
        Ok(ContractionHierarchy { rank, fwd_up, bwd_up, shortcuts })
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

    /// Reassemble a hierarchy of a graph of `num_vertices` vertices from
    /// serialized parts, validating that it covers exactly those vertices
    /// and the CSR invariants ([`ContractionHierarchy::to_parts`]
    /// round-trips exactly). The error string names the violated invariant.
    pub fn from_parts(num_vertices: u32, parts: ChParts) -> Result<ContractionHierarchy, String> {
        let n = parts.rank.len();
        if n != num_vertices as usize {
            return Err(format!("hierarchy ranks {n} vertices of a graph of {num_vertices}"));
        }
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

/// The shortcut set contracting each vertex `v` of `vs` requires against
/// the current overlay: for every in-neighbour `u` and out-neighbour
/// `w ≠ u`, the shortcut `u → w` of weight `d(u,v) + d(v,w)`, unless a
/// witness search within `limits`, avoiding `v` and the `banned` vertices,
/// finds a path `u ⇝ w` at least as cheap. One search per (vertex,
/// in-neighbour) covers every out-neighbour. The searches fan out over the
/// pool, each worker on one leased scratch, and the sets come back in `vs`
/// order: the overlay lists are in a fixed order and the search breaks
/// heap ties by vertex id, so they are identical at every pool width.
fn shortcut_sets(
    pool: &Pool,
    spares: &Spares<WitnessSearch>,
    vs: &[u32],
    overlay: &Overlay,
    banned: Option<&[bool]>,
    limits: Limits,
) -> Vec<Vec<Shortcut>> {
    let tasks: Vec<(u32, Link)> =
        vs.iter().flat_map(|&v| overlay.inc[v as usize].iter().map(move |&l| (v, l))).collect();
    let per_task = pool.map_with(
        tasks.len(),
        || spares.lease(),
        |witness, i| {
            let (v, into) = tasks[i];
            witness.run(overlay, v, into, banned, limits);
            let outs = overlay.out[v as usize].iter().filter(|out| out.head != into.head);
            outs.filter_map(|out| {
                let weight = into.weight.saturating_add(out.weight);
                let hops = into.hops.saturating_add(out.hops);
                let link = Link { head: out.head, hops, weight };
                // None when a witness path avoids v at no extra cost.
                (witness.dist(out.head) > weight).then_some(Shortcut { from: into.head, link })
            })
            .collect::<Vec<_>>()
        },
    );
    let mut per_task = per_task.into_iter();
    let in_degree = |v: u32| overlay.inc[v as usize].len();
    vs.iter().map(|&v| per_task.by_ref().take(in_degree(v)).flatten().collect()).collect()
}

/// The priority of `v` when contracting it inserts `set`: twice the edge
/// difference (shortcuts inserted minus edges removed), plus the
/// original-edges difference (original edges the shortcuts stand for minus
/// those the removed edges stand for), plus the deleted-neighbours count.
/// Smaller contracts earlier; ties break by hash then vertex id through
/// the round key.
fn priority(v: u32, overlay: &Overlay, deleted_neighbors: &[u32], set: &[Shortcut]) -> i64 {
    let count = |links: &mut dyn Iterator<Item = &Link>| {
        links.fold((0i64, 0i64), |(n, h), l| (n + 1, h + i64::from(l.hops)))
    };
    let (added, added_hops) = count(&mut set.iter().map(|s| &s.link));
    let (removed, removed_hops) =
        count(&mut overlay.out[v as usize].iter().chain(&overlay.inc[v as usize]));
    2 * (added - removed) + (added_hops - removed_hops) + deleted_neighbors[v as usize] as i64
}

/// One shortcut a contraction requires: `from → link.head`.
#[derive(Debug, Clone, Copy)]
struct Shortcut {
    from: u32,
    link: Link,
}

/// One overlay edge, seen from one endpoint: the other endpoint, the
/// number of original edges it stands for, and its weight.
#[derive(Debug, Clone, Copy)]
struct Link {
    head: u32,
    hops: u32,
    weight: u64,
}

/// The uncontracted part of the graph plus the shortcuts inserted so far,
/// as flat per-vertex lists: `out[u]` holds `u → head` sorted by weight
/// (so a witness search stops scanning at its bound), `inc[w]` holds
/// `head → w`. Parallel edges are kept at their minimum weight and
/// self-loops dropped (neither can shorten any path); an insert
/// deduplicates against the list.
struct Overlay {
    out: Vec<Vec<Link>>,
    inc: Vec<Vec<Link>>,
    /// Live edges: the sum of the `out` list lengths.
    edges: usize,
}

impl Overlay {
    fn new(forward: &Csr, weights: Option<&[i64]>) -> Overlay {
        let n = forward.num_vertices() as usize;
        let mut out: Vec<Vec<Link>> = Vec::with_capacity(n);
        let mut inc: Vec<Vec<Link>> = vec![Vec::new(); n];
        let mut edges = 0usize;
        for u in 0..n as u32 {
            let mut links: Vec<Link> = forward
                .neighbors(u)
                .filter(|&(_, v)| v != u)
                .map(|(slot, head)| {
                    let weight = weights.map_or(1, |ws| {
                        debug_assert!(ws[slot] >= 0, "negative weight reached CH build");
                        ws[slot] as u64
                    });
                    Link { head, hops: 1, weight }
                })
                .collect();
            links.sort_unstable_by_key(|l| (l.head, l.weight));
            links.dedup_by_key(|l| l.head);
            links.sort_by_key(|l| l.weight); // stable: ties stay in head order
            for l in &links {
                inc[l.head as usize].push(Link { head: u, ..*l });
            }
            edges += links.len();
            out.push(links);
        }
        Overlay { out, inc, edges }
    }

    /// Every uncontracted neighbour of `v`, in either direction.
    fn neighbors(&self, v: u32) -> impl Iterator<Item = u32> + '_ {
        self.out[v as usize].iter().chain(&self.inc[v as usize]).map(|l| l.head)
    }

    /// Insert `from → link.head`, or lower an existing edge to its weight,
    /// keeping `out[from]` sorted by weight; true when the edge is new.
    fn insert(&mut self, from: u32, link: Link) -> bool {
        let to = link.head;
        let out = &mut self.out[from as usize];
        let fresh = match out.iter().position(|l| l.head == to) {
            Some(i) if link.weight < out[i].weight => {
                out.remove(i);
                let back = self.inc[to as usize].iter_mut().find(|l| l.head == from);
                *back.expect("overlay lists agree") = Link { head: from, ..link };
                false
            }
            Some(_) => return false,
            None => {
                self.inc[to as usize].push(Link { head: from, ..link });
                self.edges += 1;
                true
            }
        };
        let at = out.partition_point(|l| l.weight <= link.weight);
        out.insert(at, link);
        fresh
    }

    /// Remove `v` and its edges; returns its out- and in-lists.
    fn detach(&mut self, v: u32) -> (Vec<Link>, Vec<Link>) {
        let outs = std::mem::take(&mut self.out[v as usize]);
        let ins = std::mem::take(&mut self.inc[v as usize]);
        for l in &outs {
            self.inc[l.head as usize].retain(|b| b.head != v);
        }
        for l in &ins {
            self.out[l.head as usize].retain(|b| b.head != v);
        }
        self.edges -= outs.len() + ins.len();
        (outs, ins)
    }
}

/// The bounds of one witness search: it relaxes no edge out of a vertex
/// reached in `hops` edges and stops after `settled` settled vertices.
#[derive(Debug, Clone, Copy)]
struct Limits {
    hops: u32,
    settled: u32,
}

/// The witness limits of one round: the simulation's and the contraction's.
#[derive(Debug, Clone, Copy)]
struct Stage {
    simulate: Limits,
    contract: Limits,
}

/// Staged witness limits (Geisberger et al.), chosen each round by the
/// overlay's average out-degree: the first stage whose bound exceeds it
/// applies. A sparse overlay needs only short, cheap witnesses; as the core
/// densifies, the hop and settled limits rise, because every witness a
/// search misses there becomes a shortcut that densifies the core further.
/// The initial priority simulation runs a quarter of the contraction's
/// settled budget.
const STAGES: [(f64, Limits, Limits); 4] = [
    (3.3, Limits { hops: 3, settled: 16 }, Limits { hops: 4, settled: 64 }),
    (5.0, Limits { hops: 4, settled: 16 }, Limits { hops: 6, settled: 64 }),
    (10.0, Limits { hops: 5, settled: 32 }, Limits { hops: 8, settled: 128 }),
    (f64::INFINITY, Limits { hops: 6, settled: 64 }, Limits { hops: 10, settled: 256 }),
];

impl Stage {
    fn of(overlay: &Overlay, remaining: usize) -> Stage {
        let degree = overlay.edges as f64 / remaining.max(1) as f64;
        let &(_, simulate, contract) =
            STAGES.iter().find(|s| degree < s.0).expect("the last stage is unbounded");
        Stage { simulate, contract }
    }
}

/// A witness-search label: distance, hop count and the run it belongs to.
#[derive(Debug, Clone, Copy, Default)]
struct Label {
    dist: u64,
    hops: u32,
    run: u32,
}

/// Reusable bounded Dijkstra for witness searches: run-stamped labels (no
/// per-run clearing) over the overlay, avoiding the contracted vertex,
/// stopping once every target is decided (settled, or labelled within its
/// shortcut's weight), the settled budget is spent or the frontier passes
/// the weight bound.
#[derive(Default)]
struct WitnessSearch {
    labels: Vec<Label>,
    /// `target[v] == run` marks a target of the current run that is not
    /// decided yet.
    target: Vec<u32>,
    /// `via[v]`: the weight of the shortcut to target `v`.
    via: Vec<u64>,
    run: u32,
    heap: BinaryHeap<Reverse<(u64, u32)>>,
}

/// A build's [`Spares`] keeps its witness searches across rounds; run
/// stamps forget a search when the next starts, so a lease clears nothing.
impl Arena for WitnessSearch {
    fn clear(&mut self) {}
}

impl WitnessSearch {
    /// Label of `v` from the last [`WitnessSearch::run`], [`INF`] when `v`
    /// was not reached within the limits.
    fn dist(&self, v: u32) -> u64 {
        let l = &self.labels[v as usize];
        if l.run == self.run {
            l.dist
        } else {
            INF
        }
    }

    /// Bounded Dijkstra over the overlay from `into.head`, an in-neighbour
    /// of `v`, toward `v`'s out-neighbours, avoiding `v` and, when `banned`
    /// is given, every flagged vertex — the round's winners, so witness
    /// paths only use vertices (and therefore edges) that survive the
    /// round intact. The weight bound is the largest shortcut still
    /// undecided: it shrinks as out-neighbours are decided. Stopping early
    /// changes no decision — labels only fall, and nothing past the bound
    /// can witness an undecided shortcut.
    fn run(
        &mut self,
        overlay: &Overlay,
        v: u32,
        into: Link,
        banned: Option<&[bool]>,
        limits: Limits,
    ) {
        let (source, first, targets) = (into.head, into.weight, &overlay.out[v as usize]);
        let n = overlay.out.len();
        if self.labels.len() < n {
            // A fresh search (or a smaller build's) grows to the overlay.
            self.labels.resize(n, Label::default());
            self.target.resize(n, 0);
            self.via.resize(n, 0);
        }
        self.run = self.run.wrapping_add(1);
        if self.run == 0 {
            // Stamps wrapped: forget every label and target of old runs.
            self.labels.fill(Label::default());
            self.target.fill(0);
            self.run = 1;
        }
        self.heap.clear();
        let run = self.run;
        let mut left = 0u32;
        for t in targets.iter().filter(|t| t.head != source) {
            self.target[t.head as usize] = run;
            self.via[t.head as usize] = first.saturating_add(t.weight);
            left += 1;
        }
        // `targets` is sorted by weight, so the largest undecided shortcut
        // belongs to the last undecided target: `open` only moves down.
        let mut open = targets.len();
        let mut undecided = |target: &[u32]| {
            while open > 0 && target[targets[open - 1].head as usize] != run {
                open -= 1;
            }
            targets[..open].last().map_or(0, |t| first.saturating_add(t.weight))
        };
        let mut bound = undecided(&self.target);
        if left == 0 {
            return;
        }
        self.labels[source as usize] = Label { dist: 0, hops: 0, run };
        self.heap.push(Reverse((0, source)));
        let mut settled = 0u32;
        while let Some(Reverse((d, u))) = self.heap.pop() {
            let label = self.labels[u as usize];
            if d > label.dist {
                continue; // stale entry
            }
            if d > bound {
                break; // no label past here can beat any shortcut
            }
            if self.target[u as usize] == run {
                left -= 1;
                if left == 0 {
                    break;
                }
                self.target[u as usize] = 0;
                bound = undecided(&self.target);
            }
            settled += 1;
            if settled >= limits.settled {
                break;
            }
            if label.hops >= limits.hops {
                continue;
            }
            // Out-lists are sorted by weight: past the bound, stop.
            for l in &overlay.out[u as usize] {
                let nd = d.saturating_add(l.weight);
                if nd > bound {
                    break;
                }
                let t = l.head;
                if t == v || banned.is_some_and(|b| b[t as usize]) {
                    continue;
                }
                let slot = &mut self.labels[t as usize];
                if slot.run != run || nd < slot.dist {
                    *slot = Label { dist: nd, hops: label.hops + 1, run };
                    self.heap.push(Reverse((nd, t)));
                    // A tentative label within the shortcut's weight
                    // already is a witness: that target is decided.
                    if self.target[t as usize] == run && nd <= self.via[t as usize] {
                        left -= 1;
                        if left == 0 {
                            return;
                        }
                        self.target[t as usize] = 0;
                        bound = undecided(&self.target);
                    }
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
    fn a_past_deadline_fails_the_build_and_a_far_one_changes_nothing() {
        use std::time::{Duration, Instant};
        let g = diamond();
        for threads in [1, 4] {
            let past = Instant::now() - Duration::from_millis(1);
            let budget = Budget { threads, deadline: Some(past), observer: None };
            let err = ContractionHierarchy::build_within(&g, None, &budget).unwrap_err();
            assert_eq!(err, GraphError::DeadlineExceeded, "threads {threads}");
            let far = Budget { deadline: Some(past + Duration::from_secs(3600)), ..budget };
            let bounded = ContractionHierarchy::build_within(&g, None, &far).unwrap();
            let plain = ContractionHierarchy::build(&g, None, threads);
            assert_eq!(bounded.rank(), plain.rank(), "threads {threads}");
            assert_eq!(bounded.shortcuts(), plain.shortcuts(), "threads {threads}");
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
