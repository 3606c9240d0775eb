//! A monotone radix priority queue ("radix queue").
//!
//! This is the structure the paper pairs with Dijkstra for weighted shortest
//! paths ("the Dijkstra algorithm combined with the Radix Queue \[11\]",
//! §3.2; \[11\] = Ahuja, Mehlhorn, Orlin, Tarjan 1990, *Faster algorithms for
//! the shortest path problem*).
//!
//! The queue is **monotone**: every pushed key must be `>=` the key most
//! recently popped. Dijkstra with non-negative weights satisfies this
//! naturally. Operations are `O(1)` amortized push and `O(B)` amortized pop
//! for `B = 65` buckets, independent of the number of stored items.

/// A monotone radix heap mapping `u64` keys to values of type `T`.
#[derive(Debug)]
pub struct RadixHeap<T> {
    /// `buckets[i]` holds keys that differ from `last` first at bit `i-1`
    /// (bucket 0 holds keys equal to `last`).
    buckets: Vec<Vec<(u64, T)>>,
    /// The key most recently popped (the monotonicity floor).
    last: u64,
    len: usize,
}

impl<T> Default for RadixHeap<T> {
    fn default() -> Self {
        RadixHeap::new()
    }
}

impl<T> RadixHeap<T> {
    /// An empty heap with monotonicity floor 0.
    pub fn new() -> RadixHeap<T> {
        RadixHeap { buckets: (0..=64).map(|_| Vec::new()).collect(), last: 0, len: 0 }
    }

    /// Number of stored items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no items are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn bucket_of(&self, key: u64) -> usize {
        // Keys equal to `last` go to bucket 0; otherwise the index of the
        // highest differing bit plus one.
        (64 - (key ^ self.last).leading_zeros()) as usize
    }

    /// Insert `(key, value)`.
    ///
    /// # Panics
    /// Panics if `key` is smaller than the last popped key (monotonicity
    /// violation) — in Dijkstra this would mean a negative edge weight,
    /// which the engine rejects before ever reaching the heap.
    pub fn push(&mut self, key: u64, value: T) {
        assert!(
            key >= self.last,
            "radix heap monotonicity violated: push {key} after pop {}",
            self.last
        );
        let b = self.bucket_of(key);
        self.buckets[b].push((key, value));
        self.len += 1;
    }

    /// Remove and return an item with the minimum key, or `None` when empty.
    pub fn pop(&mut self) -> Option<(u64, T)> {
        if self.len == 0 {
            return None;
        }
        if self.buckets[0].is_empty() {
            // Find the first non-empty bucket, locate its minimum key, make
            // that the new floor and redistribute: every item lands in a
            // strictly smaller bucket, which is what makes pops amortize.
            let b = self.buckets.iter().position(|bk| !bk.is_empty()).expect("len > 0");
            let min_key = self.buckets[b].iter().map(|(k, _)| *k).min().expect("non-empty");
            self.last = min_key;
            let drained = std::mem::take(&mut self.buckets[b]);
            for (k, v) in drained {
                let nb = self.bucket_of(k);
                debug_assert!(nb < b || b == 0);
                self.buckets[nb].push((k, v));
            }
        }
        self.len -= 1;
        let item = self.buckets[0].pop().expect("bucket 0 refilled above");
        self.last = item.0;
        Some(item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_nondecreasing_key_order() {
        let mut h = RadixHeap::new();
        for (i, k) in [5u64, 1, 9, 1, 3, 100, 42].into_iter().enumerate() {
            h.push(k, i);
        }
        let mut keys = Vec::new();
        while let Some((k, _)) = h.pop() {
            keys.push(k);
        }
        assert_eq!(keys, vec![1, 1, 3, 5, 9, 42, 100]);
    }

    #[test]
    fn interleaved_push_pop_monotone() {
        let mut h = RadixHeap::new();
        h.push(2, "a");
        h.push(7, "b");
        assert_eq!(h.pop().unwrap().0, 2);
        // After popping 2 we may push any key >= 2.
        h.push(3, "c");
        h.push(2, "d");
        assert_eq!(h.pop().unwrap().0, 2);
        assert_eq!(h.pop().unwrap().0, 3);
        assert_eq!(h.pop().unwrap().0, 7);
        assert!(h.pop().is_none());
    }

    #[test]
    #[should_panic(expected = "monotonicity violated")]
    fn push_below_floor_panics() {
        let mut h = RadixHeap::new();
        h.push(10, ());
        h.pop();
        h.push(5, ());
    }

    #[test]
    fn handles_large_keys() {
        let mut h = RadixHeap::new();
        h.push(u64::MAX - 1, 1);
        h.push(1u64 << 63, 2);
        h.push(u64::MAX - 1, 3);
        assert_eq!(h.pop().unwrap().0, 1u64 << 63);
        assert_eq!(h.pop().unwrap().0, u64::MAX - 1);
        assert_eq!(h.pop().unwrap().0, u64::MAX - 1);
        assert!(h.is_empty());
    }

    #[test]
    fn zero_keys_work() {
        let mut h = RadixHeap::new();
        h.push(0, "x");
        h.push(0, "y");
        assert_eq!(h.pop().unwrap().0, 0);
        assert_eq!(h.pop().unwrap().0, 0);
        assert!(h.pop().is_none());
    }

    #[test]
    fn len_tracks_push_pop() {
        let mut h = RadixHeap::new();
        assert!(h.is_empty());
        h.push(1, ());
        h.push(2, ());
        assert_eq!(h.len(), 2);
        h.pop();
        assert_eq!(h.len(), 1);
        h.pop();
        assert!(h.is_empty());
    }

    #[test]
    fn matches_binary_heap_on_random_monotone_sequence() {
        use rand::prelude::*;
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        let mut rng = StdRng::seed_from_u64(42);
        let mut radix = RadixHeap::new();
        let mut binary = BinaryHeap::new();
        let mut floor = 0u64;
        for _ in 0..10_000 {
            if rng.gen_bool(0.6) || radix.is_empty() {
                let key = floor + rng.gen_range(0..1000);
                radix.push(key, ());
                binary.push(Reverse(key));
            } else {
                let a = radix.pop().map(|(k, _)| k);
                let b = binary.pop().map(|Reverse(k)| k);
                assert_eq!(a, b);
                floor = a.unwrap();
            }
        }
        while let Some((k, _)) = radix.pop() {
            assert_eq!(Some(k), binary.pop().map(|Reverse(k)| k));
        }
        assert!(binary.is_empty());
    }
}
