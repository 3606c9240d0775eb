//! The key kernel shared by hash join, GROUP BY and DISTINCT.
//!
//! Key columns are hashed column-at-a-time into one `u64` per row, with a
//! typed loop per column type ([`hash_rows`]); a hash match is confirmed by
//! comparing the typed cells ([`rows_eq`]). Keys compare the way `=` does,
//! except that NULL equals NULL (callers that must not match NULL keys — a
//! join — drop those rows first):
//!
//! - numbers hash through their `DOUBLE` value with `-0.0` folded onto
//!   `0.0`, so `Int(1)`, `Double(1.0)` and `-0.0`/`0.0` land together;
//! - NaN equals nothing, itself included, so a NaN key joins nothing and
//!   each NaN row is its own group.
//!
//! The hash is keyed by a random per-process value; no result depends on
//! it. [`IdTable`] maps a key's hash to a dense id (first-seen order) and
//! is the one hash table behind all three operators.

use crate::error::Error;
use crate::exec::expression::{first_error, narrowed, Sel, Vector};
use crate::plan::BoundExpr;
use gsql_storage::{Bitmap, Column, Table, Value};
use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;
use std::ops::Range;
use std::sync::OnceLock;

type Result<T> = std::result::Result<T, Error>;

/// A borrowed view of one key column, typed where the data is.
#[derive(Clone, Copy)]
pub(crate) struct Cells<'a> {
    data: Data<'a>,
    /// Which cells of typed data are valid; `None` when all of them are.
    /// (The other shapes carry their NULLs in their values.)
    valid: Option<&'a Bitmap>,
}

/// The data behind [`Cells`].
#[derive(Clone, Copy)]
pub(crate) enum Data<'a> {
    Int(&'a [i64]),
    Double(&'a [f64]),
    Str(&'a [String]),
    Bool(&'a [bool]),
    Date(&'a [i32]),
    /// The same value at every position.
    Const(&'a Value),
    /// One value per position, of any variants.
    Values(&'a [Value]),
    /// Any other column (paths): read cell by cell.
    Other(&'a Column),
}

impl<'a> Cells<'a> {
    pub(crate) fn of_column(c: &'a Column) -> Cells<'a> {
        Cells::with_nulls(c, c.null_count() > 0)
    }

    /// A view of `c`, which the caller knows to hold no NULL unless
    /// `may_have_nulls` (sparing a scan of its validity bitmap).
    pub(crate) fn with_nulls(c: &'a Column, may_have_nulls: bool) -> Cells<'a> {
        let typed = |data, b: &'a Bitmap| Cells { data, valid: may_have_nulls.then_some(b) };
        match c {
            Column::Int(v, b) => typed(Data::Int(v), b),
            Column::Double(v, b) => typed(Data::Double(v), b),
            Column::Str(v, b) => typed(Data::Str(v), b),
            Column::Bool(v, b) => typed(Data::Bool(v), b),
            Column::Date(v, b) => typed(Data::Date(v), b),
            Column::Path(_) => Cells { data: Data::Other(c), valid: None },
        }
    }

    pub(crate) fn of_vector(v: &'a Vector<'_>) -> Cells<'a> {
        let data = match v {
            Vector::Const(v) => Data::Const(v),
            Vector::Col(c) => return Cells::of_column(c),
            Vector::Values(v) => Data::Values(v),
        };
        Cells { data, valid: None }
    }

    /// The data behind the view (NULL cells hold arbitrary values).
    pub(crate) fn data(self) -> Data<'a> {
        self.data
    }

    /// The cell at position `i`, boxed.
    pub(crate) fn get(self, i: usize) -> Value {
        if self.is_null(i) {
            return Value::Null;
        }
        match self.data {
            Data::Int(v) => Value::Int(v[i]),
            Data::Double(v) => Value::Double(v[i]),
            Data::Str(v) => Value::Str(v[i].clone()),
            Data::Bool(v) => Value::Bool(v[i]),
            Data::Date(v) => Value::Date(gsql_storage::Date(v[i])),
            Data::Const(v) => v.clone(),
            Data::Values(v) => v[i].clone(),
            Data::Other(c) => c.get(i),
        }
    }

    #[inline]
    pub(crate) fn is_null(self, i: usize) -> bool {
        match (self.valid, self.data) {
            (Some(b), _) => !b.get(i),
            (None, Data::Const(v)) => v.is_null(),
            (None, Data::Values(v)) => v[i].is_null(),
            (None, Data::Other(c)) => c.is_null(i),
            (None, _) => false,
        }
    }

    /// Fold the cells at `range` into `out` (one running hash per row).
    fn hash_into(self, range: Range<usize>, out: &mut [u64]) {
        fn typed(
            cells: Cells<'_>,
            range: Range<usize>,
            out: &mut [u64],
            bits: impl Fn(usize) -> u64,
        ) {
            for (h, i) in out.iter_mut().zip(range) {
                *h = combine(*h, if cells.is_null(i) { NULL_BITS } else { bits(i) });
            }
        }
        match self.data {
            Data::Int(v) => typed(self, range, out, |i| num_bits(v[i] as f64)),
            Data::Double(v) => typed(self, range, out, |i| num_bits(v[i])),
            Data::Str(v) => typed(self, range, out, |i| str_bits(&v[i])),
            Data::Bool(v) => typed(self, range, out, |i| u64::from(v[i]) + BOOL_BITS),
            Data::Date(v) => typed(self, range, out, |i| v[i] as u32 as u64 | DATE_BITS),
            Data::Const(v) => {
                let bits = value_bits(v);
                out.iter_mut().for_each(|h| *h = combine(*h, bits));
            }
            Data::Values(v) => typed(self, range, out, |i| value_bits(&v[i])),
            Data::Other(c) => typed(self, range, out, |i| value_bits(&c.get(i))),
        }
    }
}

/// True when cell `i` of `a` equals cell `j` of `b`: NULL equals NULL,
/// anything else compares as `=` does.
#[inline]
pub(crate) fn cells_eq(a: Cells<'_>, i: usize, b: Cells<'_>, j: usize) -> bool {
    // The common shapes first: same-typed keys without NULLs.
    if a.valid.is_none() && b.valid.is_none() {
        match (a.data, b.data) {
            (Data::Int(x), Data::Int(y)) => return x[i] == y[j],
            (Data::Double(x), Data::Double(y)) => return x[i] == y[j],
            (Data::Str(x), Data::Str(y)) => return x[i] == y[j],
            _ => {}
        }
    }
    let (a_null, b_null) = (a.is_null(i), b.is_null(j));
    if a_null || b_null {
        return a_null && b_null;
    }
    match (a.data, b.data) {
        (Data::Int(x), Data::Int(y)) => x[i] == y[j],
        (Data::Double(x), Data::Double(y)) => x[i] == y[j],
        (Data::Int(x), Data::Double(y)) => x[i] as f64 == y[j],
        (Data::Double(x), Data::Int(y)) => x[i] == y[j] as f64,
        (Data::Str(x), Data::Str(y)) => x[i] == y[j],
        (Data::Bool(x), Data::Bool(y)) => x[i] == y[j],
        (Data::Date(x), Data::Date(y)) => x[i] == y[j],
        _ => a.get(i).sql_eq(&b.get(j)),
    }
}

/// True when row `i` of the key columns `a` equals row `j` of `b`.
#[inline]
pub(crate) fn rows_eq(a: &[Cells<'_>], i: usize, b: &[Cells<'_>], j: usize) -> bool {
    a.iter().zip(b).all(|(&a, &b)| cells_eq(a, i, b, j))
}

/// The key hash of every row in `range`, column-at-a-time.
pub(crate) fn hash_rows(cols: &[Cells<'_>], range: Range<usize>) -> Vec<u64> {
    let mut out = vec![keyed().1; range.len()];
    for c in cols {
        c.hash_into(range.clone(), &mut out);
    }
    out
}

/// The key hash of a single value, as [`hash_rows`] hashes it.
fn value_bits(v: &Value) -> u64 {
    match v {
        Value::Null => NULL_BITS,
        Value::Int(x) => num_bits(*x as f64),
        Value::Double(x) => num_bits(*x),
        Value::Str(s) => str_bits(s),
        Value::Bool(b) => u64::from(*b) + BOOL_BITS,
        Value::Date(d) => d.0 as u32 as u64 | DATE_BITS,
        Value::Path(p) => p.rows.iter().fold(PATH_BITS, |h, &r| combine(h, u64::from(r))),
    }
}

const NULL_BITS: u64 = 0x6E75_6C6C_0000_0001;
const BOOL_BITS: u64 = 0x626F_6F6C_0000_0000;
const DATE_BITS: u64 = 0x6461_7465 << 32;
const PATH_BITS: u64 = 0x7061_7468_0000_0000;

/// The process's random hash key, as a string hasher and a row seed. Key
/// values come from outside the program, so which of them share a bucket
/// must not be predictable; no result depends on a hash value.
fn keyed() -> &'static (RandomState, u64) {
    static KEY: OnceLock<(RandomState, u64)> = OnceLock::new();
    KEY.get_or_init(|| {
        let state = RandomState::new();
        let seed = state.hash_one(0u64);
        (state, seed)
    })
}

/// A number's hash input: its `DOUBLE` bits, `-0.0` folded onto `0.0`.
#[inline]
fn num_bits(x: f64) -> u64 {
    if x == 0.0 {
        0
    } else {
        x.to_bits()
    }
}

/// A string's hash input: its keyed hash.
fn str_bits(s: &str) -> u64 {
    keyed().0.hash_one(s)
}

/// Fold one cell's hash input into a row's running hash (a bijective
/// avalanche, so the low bits that pick a bucket depend on every input bit).
#[inline]
fn combine(h: u64, bits: u64) -> u64 {
    let mut x = h.rotate_left(29) ^ bits;
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    x = x.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    x ^ (x >> 33)
}

/// An open-addressing table from a key hash to a dense id: ids count up
/// from 0 in insertion order, and the caller keeps each id's key and
/// confirms a hash match with its own comparison.
pub(crate) struct IdTable {
    /// `id + 1` per bucket (0 = empty); a power of two, at most half full.
    buckets: Vec<u32>,
    /// Each id's hash, in id order.
    hashes: Vec<u64>,
}

impl IdTable {
    /// A table sized for about `n` ids.
    pub(crate) fn with_capacity(n: usize) -> IdTable {
        let buckets = vec![0; (2 * n).next_power_of_two().max(16)];
        IdTable { buckets, hashes: Vec::with_capacity(n) }
    }

    /// Each id's hash, in id order.
    pub(crate) fn hashes(&self) -> &[u64] {
        &self.hashes
    }

    /// The first id whose hash is `hash` and whose key `eq` accepts.
    pub(crate) fn find(&self, hash: u64, mut eq: impl FnMut(usize) -> bool) -> Option<usize> {
        let mask = self.buckets.len() - 1;
        let mut b = hash as usize & mask;
        loop {
            let id = self.buckets[b].checked_sub(1)? as usize;
            if self.hashes[id] == hash && eq(id) {
                return Some(id);
            }
            b = (b + 1) & mask;
        }
    }

    /// [`IdTable::find`], or a new id for the key when none matches; the
    /// flag tells which.
    pub(crate) fn find_or_insert(
        &mut self,
        hash: u64,
        mut eq: impl FnMut(usize) -> bool,
    ) -> (usize, bool) {
        if 2 * (self.hashes.len() + 1) > self.buckets.len() {
            self.grow();
        }
        let mask = self.buckets.len() - 1;
        let mut b = hash as usize & mask;
        loop {
            match self.buckets[b].checked_sub(1) {
                None => break,
                Some(id) if self.hashes[id as usize] == hash && eq(id as usize) => {
                    return (id as usize, false)
                }
                Some(_) => b = (b + 1) & mask,
            }
        }
        let id = self.hashes.len();
        self.buckets[b] = u32::try_from(id + 1).expect("fewer than 2^32 distinct keys");
        self.hashes.push(hash);
        (id, true)
    }

    fn grow(&mut self) {
        let mask = 2 * self.buckets.len() - 1;
        self.buckets = vec![0; mask + 1];
        for (id, &hash) in self.hashes.iter().enumerate() {
            let mut b = hash as usize & mask;
            while self.buckets[b] != 0 {
                b = (b + 1) & mask;
            }
            self.buckets[b] = id as u32 + 1;
        }
    }
}

/// The equi-join keys of a selection: the slots whose key has no NULL
/// cell (NULL keys never match), each key over just those slots, and their
/// hashes.
pub(crate) struct JoinKeys<'t> {
    /// The keyed slots, ascending.
    pub slots: Vec<usize>,
    /// One key column per equi key; position `k` stands for `slots[k]`.
    pub cols: Vec<Vector<'t>>,
    pub hashes: Vec<u64>,
}

impl<'t> JoinKeys<'t> {
    /// Evaluate `keys` over `sel`, one key at a time on the slots whose
    /// earlier cells are all non-NULL: a cell after a NULL cell is never
    /// evaluated. A failure reports the first failing row's error.
    pub(crate) fn eval(
        keys: &[BoundExpr],
        table: &'t Table,
        sel: &Sel<'_>,
        params: &[Value],
    ) -> Result<JoinKeys<'t>> {
        first_error(sel, |sel| {
            let mut live: Vec<usize> = (0..sel.len()).collect();
            let mut cols = Vec::with_capacity(keys.len());
            for key in keys {
                let v = narrowed(key, table, sel, &live, params)?;
                let cells = Cells::of_vector(&v);
                let before = live.len();
                live = (0..before).filter(|&j| !cells.is_null(j)).map(|j| live[j]).collect();
                cols.push((v, before));
            }
            // Keys evaluated over more slots than survived are evaluated
            // again over the survivors (a subset of where they ran: no
            // new errors).
            let cols = keys
                .iter()
                .zip(cols)
                .map(|(key, (v, over))| match over == live.len() {
                    true => Ok(v),
                    false => narrowed(key, table, sel, &live, params),
                })
                .collect::<Result<Vec<_>>>()?;
            let cells: Vec<Cells<'_>> = cols.iter().map(Cells::of_vector).collect();
            let hashes = hash_rows(&cells, 0..live.len());
            Ok(JoinKeys { slots: live, cols, hashes })
        })
    }

    /// The key columns as cells.
    pub(crate) fn cells(&self) -> Vec<Cells<'_>> {
        self.cols.iter().map(Cells::of_vector).collect()
    }

    /// The same keys, owning their data.
    pub(crate) fn into_owned(self) -> JoinKeys<'static> {
        let cols = self.cols.into_iter().map(Vector::into_owned).collect();
        JoinKeys { slots: self.slots, cols, hashes: self.hashes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doubles(xs: &[f64]) -> Column {
        Column::from_doubles(xs.to_vec())
    }

    #[test]
    fn numbers_hash_and_compare_across_types_and_signed_zeros() {
        let ints = Column::from_ints(vec![0, 1, -3]);
        let dbls = doubles(&[-0.0, 1.0, -3.0]);
        let values = [Value::Double(0.0), Value::Int(1), Value::Double(-3.0)];
        let values = Cells { data: Data::Values(&values), valid: None };
        let views = [Cells::of_column(&ints), Cells::of_column(&dbls), values];
        for a in views {
            for b in views {
                assert_eq!(hash_rows(&[a], 0..3), hash_rows(&[b], 0..3));
                assert!((0..3).all(|i| cells_eq(a, i, b, i)));
            }
        }
    }

    #[test]
    fn nan_equals_nothing_and_null_equals_null() {
        let nan = doubles(&[f64::NAN]);
        let nan = Cells::of_column(&nan);
        assert!(!cells_eq(nan, 0, nan, 0));
        let nulls = Column::nulls(gsql_storage::DataType::Int, 1);
        let null = Cells { data: Data::Const(&Value::Null), valid: None };
        assert!(cells_eq(Cells::of_column(&nulls), 0, null, 0));
        assert_eq!(hash_rows(&[Cells::of_column(&nulls)], 0..1), hash_rows(&[null], 0..1));
        assert!(!cells_eq(Cells::of_column(&nulls), 0, nan, 0));
    }

    #[test]
    fn id_table_assigns_first_seen_ids_and_grows() {
        let keys: Vec<u64> = (0..1000).map(|i| i % 300).collect();
        let hash = |k: u64| combine(keyed().1, k);
        let mut t = IdTable::with_capacity(1);
        let mut first = Vec::new();
        for &k in &keys {
            let (id, new) = t.find_or_insert(hash(k), |id| first[id] == k);
            assert_eq!(new, id == first.len());
            if new {
                first.push(k);
            }
            assert_eq!(first[id], k);
        }
        assert_eq!(t.hashes().len(), 300);
        assert_eq!(t.find(hash(299), |id| first[id] == 299), Some(299));
        assert_eq!(t.find(hash(300), |id| first[id] == 300), None);
    }
}
