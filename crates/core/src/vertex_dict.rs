//! The vertex dictionary: key value ↔ dense vertex id (paper §3.1, the
//! translation of `V = S ∪ D` into the dense domain `H = {0, …, |V|−1}`).
//!
//! Building it is most of what an unindexed `REACHES … OVER` statement
//! costs (paper Fig. 1a), so the dictionary has two representations,
//! selected by the key columns' type and nothing else:
//!
//! * [`VertexDict::Int`] when both key columns are `INTEGER`: an
//!   open-addressed `i64 → u32` table filled straight from the column
//!   slices. It is the key kernel specialised to one key type, and it stays
//!   because it pays: on SNB-shaped keys (362 k edges, 10 k vertices, a
//!   2-vCPU box) it encodes in 2.6–4.6 ms against 21–37 ms for the
//!   kernel's [`IdTable`], and every graph the benchmark builds has
//!   `INTEGER` keys.
//! * [`VertexDict::Generic`] for every other key type: the key kernel
//!   (`exec/keys.rs`) — its hash, its SQL equality and an [`IdTable`] over
//!   the key cells.
//!
//! Both assign ids in **first-seen order over rows, source before
//! destination**. That order is an invariant, not an implementation detail:
//! it fixes the CSR layout, hence BFS/Dijkstra tie-breaking, the rows of
//! every returned path and the persisted path-index bytes.

use crate::exec::keys::{cells_eq, hash_rows, Cells, IdTable};
use gsql_storage::{Column, ColumnBuilder, DataType, Value};

/// Vertex key value → dense id, plus the ids' values in id order.
#[derive(Debug)]
pub(crate) enum VertexDict {
    /// `INTEGER` keys.
    Int(IntDict),
    /// Every other key type: the kernel's table, and each id's key (row
    /// `id` of `keys`, which holds no NULL).
    Generic { ids: IdTable, keys: Column },
}

impl VertexDict {
    /// Encode the key columns of an edge snapshot without NULL endpoints
    /// into dense id arrays, returning `(dictionary, src ids, dst ids)`.
    pub(crate) fn encode(src: &Column, dst: &Column) -> (VertexDict, Vec<u32>, Vec<u32>) {
        match (src.as_int_slice(), dst.as_int_slice()) {
            (Some((s, _)), Some((d, _))) => {
                let mut dict = IntDict::default();
                let mut src_ids = Vec::with_capacity(s.len());
                let mut dst_ids = Vec::with_capacity(d.len());
                for (&s, &d) in s.iter().zip(d) {
                    src_ids.push(dict.intern(s));
                    dst_ids.push(dict.intern(d));
                }
                (VertexDict::Int(dict), src_ids, dst_ids)
            }
            _ => Self::encode_generic(src, dst),
        }
    }

    /// [`VertexDict::encode`] through the `Generic` representation whatever
    /// the key type (the fallback arm; tests also force it on `INTEGER`
    /// keys as the reference the `Int` representation must agree with).
    ///
    /// While encoding, an id's key is read back from the row that first
    /// showed it; the keys are gathered into one column at the end.
    fn encode_generic(src: &Column, dst: &Column) -> (VertexDict, Vec<u32>, Vec<u32>) {
        let n_rows = src.len().min(dst.len());
        let sides = [Cells::of_column(src), Cells::of_column(dst)];
        let [src_hashes, dst_hashes] = sides.map(|side| hash_rows(&[side], 0..n_rows));
        let mut ids = IdTable::with_capacity(16);
        // Each id's first-seen cell: `row << 1 | side` (0 = source).
        let mut first: Vec<usize> = Vec::new();
        let mut out = [Vec::with_capacity(n_rows), Vec::with_capacity(n_rows)];
        for (row, hashes) in src_hashes.into_iter().zip(dst_hashes).enumerate() {
            for (side, hash) in [hashes.0, hashes.1].into_iter().enumerate() {
                let (id, new) = ids.find_or_insert(hash, |id| {
                    cells_eq(sides[side], row, sides[first[id] & 1], first[id] >> 1)
                });
                if new {
                    first.push(row << 1 | side);
                }
                out[side].push(id as u32);
            }
        }
        let mut keys = Column::nulls(src.data_type(), first.len());
        for (side, col) in [src, dst].into_iter().enumerate() {
            let (at, rows): (Vec<usize>, Vec<usize>) = (0..first.len())
                .filter(|&id| first[id] & 1 == side)
                .map(|id| (id, first[id] >> 1))
                .unzip();
            keys.scatter(&at, &col.take(&rows)).expect("EDGE key columns share one type");
        }
        let [src_ids, dst_ids] = out;
        (VertexDict::Generic { ids, keys }, src_ids, dst_ids)
    }

    /// Rebuild a dictionary from its values in id order (warm restart).
    /// Every value must be a non-NULL `key_type` value and appear once;
    /// anything else means the persisted bytes are corrupt.
    pub(crate) fn from_values(
        key_type: DataType,
        values: Vec<Value>,
    ) -> Result<VertexDict, String> {
        if let Some(bad) = values.iter().find(|v| v.data_type() != Some(key_type)) {
            return Err(format!("persisted dictionary holds {bad} under a {key_type} key"));
        }
        let n = values.len();
        let dict = if key_type == DataType::Int {
            let mut dict = IntDict::default();
            for v in &values {
                dict.intern(v.as_int().expect("type checked above"));
            }
            VertexDict::Int(dict)
        } else {
            let mut keys = ColumnBuilder::new(key_type);
            for v in values {
                keys.push(v).expect("type checked above");
            }
            let keys = keys.finish();
            let cells = Cells::with_nulls(&keys, false);
            let mut ids = IdTable::with_capacity(n);
            for (row, hash) in hash_rows(&[cells], 0..n).into_iter().enumerate() {
                ids.find_or_insert(hash, |id| cells_eq(cells, row, cells, id));
            }
            VertexDict::Generic { ids, keys }
        };
        if dict.len() != n {
            return Err("persisted dictionary contains duplicate vertex values".to_string());
        }
        Ok(dict)
    }

    /// The dense id of `v`, under SQL equality: `Double(3.0)` finds key `3`;
    /// a non-integral or out-of-range double, a value of another type and
    /// NULL find nothing.
    pub(crate) fn lookup(&self, v: &Value) -> Option<u32> {
        match self {
            VertexDict::Int(dict) => match *v {
                Value::Int(key) => dict.get(key),
                // Exactly the doubles that denote an i64 (the upper bound
                // is 2^63, which `i64::MAX as f64` rounds up to).
                Value::Double(d)
                    if d.fract() == 0.0 && d >= i64::MIN as f64 && d < i64::MAX as f64 =>
                {
                    dict.get(d as i64)
                }
                _ => None,
            },
            VertexDict::Generic { ids, keys } => {
                if v.is_null() {
                    return None;
                }
                let (probe, keys) =
                    (Cells::of_values(std::slice::from_ref(v)), Cells::with_nulls(keys, false));
                let hash = hash_rows(&[probe], 0..1)[0];
                ids.find(hash, |id| cells_eq(probe, 0, keys, id)).map(|id| id as u32)
            }
        }
    }

    /// Number of vertices.
    pub(crate) fn len(&self) -> usize {
        match self {
            VertexDict::Int(dict) => dict.keys.len(),
            VertexDict::Generic { ids, .. } => ids.hashes().len(),
        }
    }

    /// The key values in dense-id order.
    pub(crate) fn values(&self) -> Vec<Value> {
        match self {
            VertexDict::Int(dict) => dict.keys.iter().map(|&k| Value::Int(k)).collect(),
            VertexDict::Generic { keys, .. } => keys.iter().collect(),
        }
    }

    /// The representation's name, as reported by the `graph_build` span and
    /// `EXPLAIN ANALYZE`.
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            VertexDict::Int(_) => "int",
            VertexDict::Generic { .. } => "generic",
        }
    }
}

/// Marks a vacant [`IntDict`] slot. Occupancy lives in the id, not the key,
/// so `i64::MIN` and `i64::MAX` are ordinary keys.
const VACANT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Slot {
    key: i64,
    id: u32,
}

/// Open-addressed `i64 → u32` table (linear probing, multiplicative hash)
/// plus the keys in id order. The table doubles as the number of **distinct**
/// keys grows and is never sized by the row count, so a 362 k-row edge
/// table over 10 k vertices holds a 32 k-slot table.
///
/// The hash is fixed, not keyed: keys crafted to collide can only slow
/// down graph builds over the table that holds them.
#[derive(Debug, Default)]
pub(crate) struct IntDict {
    /// Power-of-two sized, at most half full; empty until the first key.
    slots: Vec<Slot>,
    /// `64 − log2(slots.len())`: the hash keeps the product's top bits.
    shift: u32,
    /// id → key.
    keys: Vec<i64>,
}

impl IntDict {
    const INITIAL_SLOTS: usize = 16;

    #[inline]
    fn home(&self, key: i64) -> usize {
        // Fibonacci hashing: 2^64 / φ, odd.
        ((key as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// Probe for `key`: its id, or the vacant slot where it belongs. The
    /// table must not be empty (it never fills up, so the walk ends).
    #[inline]
    fn probe(&self, key: i64) -> Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut at = self.home(key);
        loop {
            let slot = self.slots[at];
            if slot.id == VACANT {
                return Err(at);
            }
            if slot.key == key {
                return Ok(slot.id);
            }
            at = (at + 1) & mask;
        }
    }

    /// The id of `key`, assigning the next dense id on first sight.
    #[inline]
    fn intern(&mut self, key: i64) -> u32 {
        if self.keys.len() * 2 >= self.slots.len() {
            self.grow();
        }
        match self.probe(key) {
            Ok(id) => id,
            Err(vacant) => {
                let id = self.keys.len() as u32;
                self.slots[vacant] = Slot { key, id };
                self.keys.push(key);
                id
            }
        }
    }

    fn get(&self, key: i64) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        self.probe(key).ok()
    }

    #[cold]
    fn grow(&mut self) {
        let len = (self.slots.len() * 2).max(Self::INITIAL_SLOTS);
        self.slots = vec![Slot { key: 0, id: VACANT }; len];
        self.shift = 64 - len.trailing_zeros();
        for id in 0..self.keys.len() {
            let key = self.keys[id];
            let vacant = self.probe(key).expect_err("keys are distinct");
            self.slots[vacant] = Slot { key, id: id as u32 };
        }
    }
}

/// Generated-input differential test: random edge tables over every key
/// type, checked against oracles written here (a linear-scan dictionary, a
/// sort-based transpose, Bellman–Ford) that share no code with the engine.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::graph_op::build_graph;
    use crate::Database;
    use gsql_graph::Csr;
    use gsql_storage::{ColumnDef, Date, Mutation, Schema, Table};
    use rand::prelude::*;
    use std::sync::Arc;

    #[derive(Debug, Clone, Copy)]
    enum Keys {
        /// Small integers, negatives included.
        Int,
        /// `i64::MIN` and `i64::MAX` together with their neighbours.
        IntExtremes,
        /// Integers beyond ±2^53, where neighbours collide under `as f64`.
        IntBig,
        Varchar,
        Date,
        Boolean,
    }

    const KINDS: [Keys; 6] =
        [Keys::Int, Keys::IntExtremes, Keys::IntBig, Keys::Varchar, Keys::Date, Keys::Boolean];

    impl Keys {
        fn data_type(self) -> DataType {
            match self {
                Keys::Int | Keys::IntExtremes | Keys::IntBig => DataType::Int,
                Keys::Varchar => DataType::Varchar,
                Keys::Date => DataType::Date,
                Keys::Boolean => DataType::Bool,
            }
        }

        /// The `i`-th key of this kind's universe (`i < 12`).
        fn key(self, i: usize) -> Value {
            const EXTREMES: [i64; 6] = [i64::MIN, i64::MAX, i64::MIN + 1, i64::MAX - 1, -1, 0];
            let i = i as i64;
            match self {
                Keys::Int => Value::Int(i * 7 - 20),
                Keys::IntExtremes => Value::Int(EXTREMES[i as usize % EXTREMES.len()]),
                Keys::IntBig => {
                    Value::Int(if i % 2 == 0 { (1 << 53) + i / 2 } else { -(1 << 53) - i / 2 })
                }
                Keys::Varchar => Value::Str(if i == 0 { String::new() } else { format!("v{i}") }),
                Keys::Date => Value::Date(Date(i as i32 * 31 - 100)),
                Keys::Boolean => Value::Bool(i % 2 == 0),
            }
        }
    }

    const UNIVERSE: usize = 12;

    /// `(s, d, w)` rows: NULL endpoints, duplicate rows and self-loops all
    /// occur; `rows` may be 0 or 1.
    fn random_rows(rng: &mut StdRng, kind: Keys, rows: usize, spread: usize) -> Vec<Vec<Value>> {
        let mut out: Vec<Vec<Value>> = Vec::with_capacity(rows);
        for _ in 0..rows {
            let endpoint = |rng: &mut StdRng| {
                if rng.gen_range(0..10) == 0 {
                    Value::Null
                } else {
                    kind.key(rng.gen_range(0..spread))
                }
            };
            let row = match (rng.gen_range(0..8), out.last()) {
                (0, Some(previous)) => previous.clone(),
                (1, _) => {
                    let v = endpoint(rng);
                    vec![v.clone(), v, Value::Int(rng.gen_range(1..9))]
                }
                _ => vec![endpoint(rng), endpoint(rng), Value::Int(rng.gen_range(1..9))],
            };
            out.push(row);
        }
        out
    }

    fn edge_table(kind: Keys, rows: &[Vec<Value>]) -> Table {
        let mut t = Table::empty(Schema::new(vec![
            ColumnDef::new("s", kind.data_type()),
            ColumnDef::new("d", kind.data_type()),
            ColumnDef::not_null("w", DataType::Int),
        ]));
        for row in rows {
            t.append_row(row.clone()).unwrap();
        }
        t
    }

    /// The oracle dictionary: distinct endpoint values of the rows without a
    /// NULL endpoint, in first-seen order (source before destination), found
    /// by linear scan.
    fn reference_vertices(rows: &[Vec<Value>]) -> Vec<Value> {
        let mut seen: Vec<Value> = Vec::new();
        for row in rows.iter().filter(|r| !r[0].is_null() && !r[1].is_null()) {
            for v in &row[..2] {
                if !seen.contains(v) {
                    seen.push(v.clone());
                }
            }
        }
        seen
    }

    fn position(vertices: &[Value], v: &Value) -> Option<u32> {
        vertices.iter().position(|x| x == v).map(|i| i as u32)
    }

    fn tables(mut check: impl FnMut(Keys, &[Vec<Value>])) {
        let mut rng = StdRng::seed_from_u64(0x5eed_d1c7);
        for kind in KINDS {
            for rows in [0, 1, 1, 2, 5, 17, 40, 40, 90, 90] {
                let spread = rng.gen_range(1..=UNIVERSE);
                check(kind, &random_rows(&mut rng, kind, rows, spread));
            }
        }
    }

    #[test]
    fn representations_agree_with_each_other_and_a_linear_scan() {
        tables(|kind, rows| {
            let graph = build_graph(Arc::new(edge_table(kind, rows)), 0, 1).unwrap();
            let (src, dst) = (graph.edges.column(0), graph.edges.column(1));
            let (typed, typed_src, typed_dst) = VertexDict::encode(src, dst);
            let (generic, generic_src, generic_dst) = VertexDict::encode_generic(src, dst);
            let is_int = kind.data_type() == DataType::Int;
            assert_eq!(typed.kind(), if is_int { "int" } else { "generic" }, "{kind:?}");
            assert_eq!(generic.kind(), "generic");

            // Ids: first-seen order, whatever the representation.
            let vertices = reference_vertices(rows);
            let kept = rows.iter().filter(|r| !r[0].is_null() && !r[1].is_null());
            let (want_src, want_dst): (Vec<u32>, Vec<u32>) = kept
                .map(|r| (position(&vertices, &r[0]).unwrap(), position(&vertices, &r[1]).unwrap()))
                .unzip();
            assert_eq!(typed_src, want_src, "{kind:?} {rows:?}");
            assert_eq!(typed_dst, want_dst, "{kind:?} {rows:?}");
            assert_eq!((generic_src, generic_dst), (want_src.clone(), want_dst.clone()));
            assert_eq!(typed.values(), vertices);
            assert_eq!(generic.values(), vertices);
            assert_eq!((typed.len(), generic.len()), (vertices.len(), vertices.len()));

            // Same ids, same CSR: trusted, checked and the graph's own.
            let n = vertices.len() as u32;
            let trusted = Csr::from_dense_edges(n, &typed_src, &typed_dst);
            assert_eq!(trusted, Csr::from_edges(n, &want_src, &want_dst).unwrap());
            assert_eq!(trusted.raw_parts(), graph.csr.raw_parts());

            // Lookups: present keys, absent keys, NULL, a foreign type.
            for i in 0..UNIVERSE + 3 {
                let v = kind.key(i);
                let want = position(&vertices, &v);
                assert_eq!(typed.lookup(&v), want, "{kind:?} {v}");
                assert_eq!(generic.lookup(&v), want, "{kind:?} {v}");
                assert_eq!(graph.lookup(&v), want, "{kind:?} {v}");
            }
            for dict in [&typed, &generic] {
                assert_eq!(dict.lookup(&Value::Null), None);
                let foreign = if is_int { Value::from("7") } else { Value::Int(7) };
                assert_eq!(dict.lookup(&foreign), None, "{kind:?}");
            }
            // Double images of integer keys (SQL equality). From ±2^53 on,
            // several keys share one image and SQL equality stops being
            // one-to-one — the generic map answers with whichever key it
            // probes first, the Int table with the key the double denotes —
            // so only unambiguous images are compared.
            if is_int {
                for i in 0..UNIVERSE + 3 {
                    let k = kind.key(i).as_int().unwrap();
                    if k.unsigned_abs() < 1 << 53 {
                        let image = Value::Double(k as f64);
                        assert_eq!(typed.lookup(&image), position(&vertices, &Value::Int(k)));
                        assert_eq!(generic.lookup(&image), typed.lookup(&image), "{k}");
                    }
                    // (At ±2^52 and beyond, `k + 0.5` is not representable.)
                    if k.unsigned_abs() < 1 << 52 {
                        let off = Value::Double(k as f64 + 0.5);
                        assert_eq!((typed.lookup(&off), generic.lookup(&off)), (None, None));
                    }
                }
                for d in [1e300, -1e300, 9.3e18, f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
                    let v = Value::Double(d);
                    assert_eq!((typed.lookup(&v), generic.lookup(&v)), (None, None), "{d}");
                }
            }

            // Persistence: values in id order rebuild the same dictionary.
            let restored = VertexDict::from_values(kind.data_type(), typed.values()).unwrap();
            assert_eq!(restored.kind(), typed.kind());
            assert_eq!(restored.values(), vertices);
            for (id, v) in vertices.iter().enumerate() {
                assert_eq!(restored.lookup(v), Some(id as u32));
            }
        });
    }

    #[test]
    fn from_values_rejects_duplicates_nulls_and_foreign_types() {
        for (ty, values) in [
            (DataType::Int, vec![Value::Int(1), Value::Int(2), Value::Int(1)]),
            (DataType::Varchar, vec![Value::from("a"), Value::from("a")]),
            (DataType::Int, vec![Value::Int(1), Value::Null]),
            (DataType::Int, vec![Value::from("1")]),
            (DataType::Date, vec![Value::Int(1)]),
        ] {
            assert!(VertexDict::from_values(ty, values.clone()).is_err(), "{ty} {values:?}");
        }
        assert_eq!(VertexDict::from_values(DataType::Int, Vec::new()).unwrap().len(), 0);
    }

    #[test]
    fn int_dictionary_grows_from_the_distinct_count() {
        // 20 000 rows over 100 keys: the table stays at 256 slots.
        let keys: Vec<i64> = (0..20_000).map(|i| (i % 100) * 1_000_003 - 50).collect();
        let column = Column::from_ints(keys.clone());
        let (dict, src, dst) = VertexDict::encode(&column, &column);
        assert_eq!(src, dst);
        assert_eq!(dict.len(), 100);
        let VertexDict::Int(table) = &dict else {
            panic!("INTEGER keys take the Int representation")
        };
        assert_eq!(table.slots.len(), 256);
        for (row, &k) in keys.iter().enumerate() {
            assert_eq!(dict.lookup(&Value::Int(k)), Some(src[row]));
        }
        assert_eq!(dict.lookup(&Value::Int(49)), None);
    }

    /// Forward CSR → `(offsets, targets, edge_rows)` of its transpose, by
    /// stable sort instead of counting sort.
    fn reference_transpose(csr: &Csr) -> (Vec<usize>, Vec<u32>, Vec<u32>) {
        let n = csr.num_vertices();
        let mut flipped: Vec<(u32, u32, u32)> = (0..n)
            .flat_map(|u| csr.neighbors(u).map(move |(slot, v)| (v, u, csr.edge_row(slot))))
            .collect();
        flipped.sort_by_key(|&(v, _, _)| v);
        let mut offsets = vec![0usize; n as usize + 1];
        for &(v, _, _) in &flipped {
            offsets[v as usize + 1] += 1;
        }
        for v in 0..n as usize {
            offsets[v + 1] += offsets[v];
        }
        let targets = flipped.iter().map(|&(_, u, _)| u).collect();
        let rows = flipped.iter().map(|&(_, _, row)| row).collect();
        (offsets, targets, rows)
    }

    #[test]
    fn reverse_csr_is_the_transpose() {
        tables(|kind, rows| {
            let graph = build_graph(Arc::new(edge_table(kind, rows)), 0, 1).unwrap();
            let (offsets, targets, edge_rows) = reference_transpose(&graph.csr);
            assert_eq!(
                graph.reverse().raw_parts(),
                (offsets.as_slice(), targets.as_slice(), edge_rows.as_slice()),
                "{kind:?} {rows:?}"
            );
        });
    }

    /// Cheapest cost from `source` to every reference vertex over the rows
    /// without a NULL endpoint; `unit` counts hops instead of summing `w`.
    fn bellman_ford(
        rows: &[Vec<Value>],
        vertices: &[Value],
        source: u32,
        unit: bool,
    ) -> Vec<Option<i64>> {
        let mut dist: Vec<Option<i64>> = vec![None; vertices.len()];
        dist[source as usize] = Some(0);
        for _ in 0..vertices.len() {
            for row in rows {
                let (Some(u), Some(v)) = (position(vertices, &row[0]), position(vertices, &row[1]))
                else {
                    continue;
                };
                let w = if unit { 1 } else { row[2].as_int().unwrap() };
                if let Some(du) = dist[u as usize] {
                    if dist[v as usize].is_none_or(|dv| du + w < dv) {
                        dist[v as usize] = Some(du + w);
                    }
                }
            }
        }
        dist
    }

    #[test]
    fn sql_answers_equal_bellman_ford_and_paths_walk_real_edges() {
        const Q13: &str = "SELECT CHEAPEST SUM(1) AS hops WHERE ? REACHES ? OVER e EDGE (s, d)";
        const Q14: &str = "SELECT CHEAPEST SUM(f: f.w) AS (cost, path) \
                           WHERE ? REACHES ? OVER e f EDGE (s, d)";
        let mut rng = StdRng::seed_from_u64(0xbe11_f04d);
        tables(|kind, rows| {
            let db = Database::new();
            db.catalog().create_table("e", edge_table(kind, &[]).schema().clone()).unwrap();
            db.catalog().apply("e", Mutation::Append(rows.to_vec())).unwrap();
            let vertices = reference_vertices(rows);
            for _ in 0..12 {
                let (x, y) =
                    (kind.key(rng.gen_range(0..UNIVERSE)), kind.key(rng.gen_range(0..UNIVERSE)));
                let ends = position(&vertices, &x).zip(position(&vertices, &y));
                let want = |unit| {
                    ends.and_then(|(s, d)| bellman_ford(rows, &vertices, s, unit)[d as usize])
                };
                let args = [x.clone(), y.clone()];

                let hops = db.query_with_params(Q13, &args).unwrap();
                let got: Vec<Value> = hops.rows().map(|r| r[0].clone()).collect();
                assert_eq!(
                    got,
                    want(true).map(Value::Int).into_iter().collect::<Vec<_>>(),
                    "{kind:?} {x}->{y} {rows:?}"
                );

                let cheapest = db.query_with_params(Q14, &args).unwrap();
                assert_eq!(cheapest.row_count(), usize::from(want(false).is_some()));
                for answer in cheapest.rows() {
                    assert_eq!(
                        answer[0],
                        Value::Int(want(false).unwrap()),
                        "{kind:?} {x}->{y} {rows:?}"
                    );
                    let path = answer[1].as_path().expect("path column");
                    let (mut at, mut cost) = (x.clone(), 0);
                    for &row in &path.rows {
                        let edge = path.edges.row(row as usize);
                        assert_eq!(edge[0], at, "path leaves {at} by an edge of {}", edge[0]);
                        assert!(rows.contains(&edge), "{edge:?} is not a row of the table");
                        at = edge[1].clone();
                        cost += edge[2].as_int().unwrap();
                    }
                    assert_eq!((at, cost), (y.clone(), want(false).unwrap()));
                }
            }
        });
    }
}
