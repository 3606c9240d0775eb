//! The weight layer of a [`MaterializedGraph`](crate::MaterializedGraph):
//! evaluated, validated, slot-permuted `CHEAPEST SUM` weight vectors, kept
//! on the graph they were prepared for.
//!
//! The paper's runtime takes "the additional columns W for the weights" as
//! its third input (§3.2). A graph index already keeps the first two — the
//! dictionary and the CSR — "ready to be used when a query matches the edge
//! table" (§6); this keeps the third, so an indexed weighted query costs
//! O(search) instead of O(edges).
//!
//! * **Key**: the bound weight expression plus the constants its value
//!   depends on besides the edge table — its literals and the values of
//!   the `?` parameters it references.
//! * **Lifetime**: the graph's. A graph snapshot belongs to exactly one
//!   table version — a write produces a new graph with an empty cache, a
//!   `DROP` drops both — so nothing is ever invalidated. Nothing is read
//!   back from a snapshot either: a path index restored on reopen derives
//!   its weight column's vector into its graph's cache, and any other
//!   expression is evaluated by the first weighted query after the reopen.
//! * **Sharing**: a path index's layer takes the forward vector of its
//!   `WEIGHT` column from here (the key is the bare column), so the layer
//!   and a `CHEAPEST SUM` over that column on the same graph hold one `Arc`.
//! * **Size**: [`CAPACITY`] vectors of `8 B × edges`, least recently used
//!   evicted first. Only vectors that passed validation are stored; a
//!   failing expression fails again on every statement.

use crate::plan::BoundExpr;
use gsql_graph::PreparedWeights;
use gsql_obs::{EngineMetrics, Gauge};
use gsql_storage::Value;
use std::sync::{Arc, Mutex};

/// Weight vectors kept per graph. Statements over one edge table use a
/// handful of distinct weight expressions; a parameter swept over many
/// values keeps only the latest few.
pub(crate) const CAPACITY: usize = 4;

#[derive(Debug)]
struct Entry {
    expr: BoundExpr,
    constants: Vec<Value>,
    weights: Arc<PreparedWeights>,
}

#[derive(Debug, Default)]
struct State {
    /// Most recently used first.
    entries: Vec<Entry>,
    /// `gsql_weight_cache_bytes`, with the share of it this cache put there.
    gauge: Option<(Arc<Gauge>, i64)>,
}

impl State {
    /// Move the entry for this key, if resident, to the most recently used
    /// position.
    fn touch(&mut self, expr: &BoundExpr, constants: &[&Value]) -> Option<&Entry> {
        let at = self.entries.iter().position(|e| {
            e.expr == *expr
                && e.constants.len() == constants.len()
                && e.constants.iter().zip(constants).all(|(a, b)| identical(a, b))
        })?;
        self.entries[..=at].rotate_right(1);
        self.entries.first()
    }

    /// Bring the gauge in line with what is resident now.
    fn publish_bytes(&mut self) {
        let resident: i64 = self.entries.iter().map(|e| e.weights.bytes() as i64).sum();
        if let Some((gauge, published)) = &mut self.gauge {
            gauge.add(resident - *published);
            *published = resident;
        }
    }
}

/// See the [module docs](self).
#[derive(Debug, Default)]
pub(crate) struct WeightCache(Mutex<State>);

/// The constants `expr`'s value depends on, in pre-order: literals and
/// referenced parameter values. `None` when a referenced parameter was not
/// supplied (evaluation will report that).
pub(crate) fn constants<'a>(expr: &'a BoundExpr, params: &'a [Value]) -> Option<Vec<&'a Value>> {
    let mut found = Vec::new();
    let mut complete = true;
    expr.visit(&mut |e| match e {
        BoundExpr::Literal(v) => found.push(v),
        BoundExpr::Param(i) => match params.get(*i) {
            Some(v) => found.push(v),
            None => complete = false,
        },
        _ => {}
    });
    complete.then_some(found)
}

/// `Value`'s `==` is SQL equality (`2 = 2.0`), under which two expressions
/// that evaluate differently — `weight * 2` is an INTEGER, `weight * 2.0` a
/// DOUBLE — would share a vector. Cache identity is representation identity.
fn identical(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Double(x), Value::Double(y)) => x.to_bits() == y.to_bits(),
        _ => std::mem::discriminant(a) == std::mem::discriminant(b) && a == b,
    }
}

impl WeightCache {
    /// The vector prepared for `expr` under these `constants`, if resident.
    pub(crate) fn get(
        &self,
        expr: &BoundExpr,
        constants: &[&Value],
    ) -> Option<Arc<PreparedWeights>> {
        let mut state = self.0.lock().expect("weight cache lock poisoned");
        state.touch(expr, constants).map(|e| Arc::clone(&e.weights))
    }

    /// Keep `weights` as the most recently used entry, evicting from the
    /// cold end past [`CAPACITY`]. When two statements missed on one key at
    /// the same time, the first vector in stays and the second is dropped
    /// with its statement.
    pub(crate) fn insert(
        &self,
        expr: &BoundExpr,
        constants: &[&Value],
        weights: Arc<PreparedWeights>,
        metrics: Option<&EngineMetrics>,
    ) {
        let mut state = self.0.lock().expect("weight cache lock poisoned");
        if state.touch(expr, constants).is_some() {
            return;
        }
        let constants = constants.iter().map(|&v| v.clone()).collect();
        state.entries.insert(0, Entry { expr: expr.clone(), constants, weights });
        state.entries.truncate(CAPACITY);
        if let (None, Some(m)) = (&state.gauge, metrics) {
            state.gauge = Some((Arc::clone(&m.weight_cache_bytes), 0));
        }
        state.publish_bytes();
    }
}

impl Drop for WeightCache {
    fn drop(&mut self) {
        // A poisoned lock means a panic mid-update; the gauge is then off by
        // at most this cache's share, which beats panicking in a destructor.
        if let Ok(state) = self.0.get_mut() {
            state.entries.clear();
            state.publish_bytes();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsql_graph::{Csr, PreparedWeights, WeightSpec};
    use gsql_storage::DataType;

    fn vector(w: i64) -> Arc<PreparedWeights> {
        let g = Csr::from_edges(2, &[0, 1], &[1, 0]).unwrap();
        Arc::new(PreparedWeights::new(&g, &WeightSpec::Int(vec![w, w]), 1).unwrap())
    }

    fn times(k: BoundExpr) -> BoundExpr {
        BoundExpr::Binary {
            left: Box::new(BoundExpr::Column { index: 2, ty: DataType::Int }),
            op: crate::plan::BinaryOp::Mul,
            right: Box::new(k),
        }
    }

    fn put(cache: &WeightCache, expr: &BoundExpr, params: &[Value], w: i64, m: &EngineMetrics) {
        cache.insert(expr, &constants(expr, params).unwrap(), vector(w), Some(m));
    }

    fn get(
        cache: &WeightCache,
        expr: &BoundExpr,
        params: &[Value],
    ) -> Option<Arc<PreparedWeights>> {
        cache.get(expr, &constants(expr, params)?)
    }

    #[test]
    fn keys_are_the_expression_and_the_exact_constants() {
        let m = EngineMetrics::new();
        let cache = WeightCache::default();
        let by_param = times(BoundExpr::Param(1));
        put(&cache, &by_param, &[Value::Null, Value::Int(2)], 2, &m);
        // Parameter 0 is not referenced: its value is not part of the key.
        assert_eq!(get(&cache, &by_param, &[Value::Int(9), Value::Int(2)]), Some(vector(2)));
        assert_eq!(get(&cache, &by_param, &[Value::Null, Value::Int(3)]), None);
        assert_eq!(get(&cache, &by_param, &[Value::Null]), None, "missing parameter");
        // SQL-equal is not identical: 2 vs 2.0, in a parameter or a literal.
        assert_eq!(get(&cache, &by_param, &[Value::Null, Value::Double(2.0)]), None);
        let by_int = times(BoundExpr::Literal(Value::Int(2)));
        let by_double = times(BoundExpr::Literal(Value::Double(2.0)));
        assert_eq!(by_int, by_double, "the derived equality is SQL equality");
        put(&cache, &by_int, &[], 4, &m);
        assert_eq!(get(&cache, &by_double, &[]), None);
        assert_eq!(get(&cache, &by_int, &[]), Some(vector(4)));
    }

    #[test]
    fn least_recently_used_goes_first_and_the_gauge_follows() {
        let m = EngineMetrics::new();
        let cache = WeightCache::default();
        let expr = times(BoundExpr::Param(0));
        let one = vector(1).bytes() as i64;
        for k in 0..CAPACITY as i64 {
            put(&cache, &expr, &[Value::Int(k)], k + 1, &m);
        }
        assert_eq!(m.weight_cache_bytes.get(), CAPACITY as i64 * one);
        // Touch the oldest, then overflow: the second oldest is evicted.
        assert!(get(&cache, &expr, &[Value::Int(0)]).is_some());
        put(&cache, &expr, &[Value::Int(100)], 100, &m);
        assert_eq!(m.weight_cache_bytes.get(), CAPACITY as i64 * one);
        assert!(get(&cache, &expr, &[Value::Int(0)]).is_some());
        assert!(get(&cache, &expr, &[Value::Int(1)]).is_none());
        assert!(get(&cache, &expr, &[Value::Int(100)]).is_some());
        drop(cache);
        assert_eq!(m.weight_cache_bytes.get(), 0, "a dropped graph gives its bytes back");
    }
}
