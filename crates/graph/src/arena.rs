//! The one search arena: per-vertex [`Labels`] that reset in the time a
//! search took to write them, and the [`Spares`] pool every query-time
//! search leases its working memory from, so a point query neither
//! allocates nor clears `O(|V|)` memory once its pool is warm. A search
//! keeps as labels only what it reads back: whether a vertex is settled is
//! not one of them (a pop is stale when its key is above the label).

use std::ops::Deref;
use std::sync::Mutex;

/// Per-vertex values of one search, read as a slice as long as the last
/// [`Labels::fit`]. Every vertex starts `unset`; [`Labels::set`] records
/// the vertices it moves away from it, and [`Labels::clear`] unsets those.
#[derive(Debug)]
pub struct Labels<T> {
    values: Vec<T>,
    unset: T,
    touched: Vec<u32>,
}

impl<T: Copy + PartialEq> Labels<T> {
    /// Empty labels whose vertices read `unset`.
    pub const fn new(unset: T) -> Labels<T> {
        Labels { values: Vec::new(), unset, touched: Vec::new() }
    }

    /// Cover vertices `0..n` of cleared labels; the allocation never shrinks.
    pub fn fit(&mut self, n: usize) {
        debug_assert!(self.touched.is_empty(), "fit labels only once cleared");
        self.values.resize(n, self.unset);
    }

    /// Label `v` with `value`.
    #[inline]
    pub fn set(&mut self, v: u32, value: T) {
        let slot = &mut self.values[v as usize];
        if *slot == self.unset {
            self.touched.push(v);
        }
        *slot = value;
    }

    /// Label `v` without recording it: for labels set only at vertices the
    /// `lead` labels of the same search record, and cleared along them.
    #[inline]
    pub(crate) fn set_along(&mut self, v: u32, value: T) {
        self.values[v as usize] = value;
    }

    /// Unset the vertices `lead` recorded; call before clearing `lead`.
    pub(crate) fn clear_along<U>(&mut self, lead: &Labels<U>) {
        unset(&mut self.values, self.unset, &lead.touched);
    }

    /// Vertices labelled since the last clear.
    pub fn labelled(&self) -> usize {
        self.touched.len()
    }

    /// Unset every labelled vertex, in `O(labelled)`.
    pub fn clear(&mut self) {
        unset(&mut self.values, self.unset, &self.touched);
        self.touched.clear();
    }

    /// The labels of vertices `0..n` (the last fit) as a vector.
    pub fn into_vec(self) -> Vec<T> {
        self.values
    }
}

impl<T> Deref for Labels<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        &self.values
    }
}

/// Unset `vertices` of `values` — or all of them in one sequential fill
/// when that writes fewer bytes than a 64-byte cache line per vertex, so
/// the cost stays `O(vertices)` either way.
fn unset<T: Copy>(values: &mut [T], unset: T, vertices: &[u32]) {
    if vertices.len() * 64 >= std::mem::size_of_val(values) {
        values.fill(unset);
    } else {
        for &v in vertices {
            values[v as usize] = unset;
        }
    }
}

/// The working memory of one search kind, as a [`Spares`] pool keeps it.
pub trait Arena: Default {
    /// Forget the last search, in the time it took to write it.
    fn clear(&mut self);
}

/// A pool of idle arenas: [`Spares::lease`] hands one out (a fresh
/// [`Default`] when none is idle), and the [`Lease`] hands it back cleared
/// when dropped. It holds as many arenas as were ever leased at once.
#[derive(Default)]
pub struct Spares<T>(Mutex<Vec<T>>);

impl<T: Arena> Spares<T> {
    /// An empty pool (usable as a `static`).
    pub const fn new() -> Spares<T> {
        Spares(Mutex::new(Vec::new()))
    }

    /// Lease an arena; it returns to this pool when the lease drops.
    pub fn lease(&self) -> Lease<'_, T> {
        let spare = self.0.lock().unwrap_or_else(|e| e.into_inner()).pop();
        Lease { arena: spare.unwrap_or_default(), home: self }
    }
}

/// An arena leased from a [`Spares`] pool, handed back cleared on drop.
pub struct Lease<'a, T: Arena> {
    arena: T,
    home: &'a Spares<T>,
}

impl<T: Arena> Deref for Lease<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.arena
    }
}

impl<T: Arena> std::ops::DerefMut for Lease<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.arena
    }
}

impl<T: Arena> Drop for Lease<'_, T> {
    fn drop(&mut self) {
        let mut arena = std::mem::take(&mut self.arena);
        arena.clear();
        self.home.0.lock().unwrap_or_else(|e| e.into_inner()).push(arena);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clear_unsets_exactly_the_labelled_vertices() {
        let mut l = Labels::new(u32::MAX);
        l.fit(6);
        l.set(1, 4);
        l.set(1, 3);
        l.set(4, 0);
        assert_eq!(*l, [u32::MAX, 3, u32::MAX, u32::MAX, 0, u32::MAX]);
        assert_eq!(l.labelled(), 2);
        l.clear();
        l.fit(3);
        assert_eq!(*l, [u32::MAX; 3]);
        assert_eq!(l.labelled(), 0);
        l.fit(5);
        assert_eq!(l.into_vec(), vec![u32::MAX; 5]);
    }

    #[derive(Default)]
    struct Probe(Vec<u32>);
    impl Arena for Probe {
        fn clear(&mut self) {
            self.0.clear();
        }
    }

    #[test]
    fn a_lease_returns_cleared_and_is_reused() {
        let pool: Spares<Probe> = Spares::new();
        {
            let mut a = pool.lease();
            a.0.reserve(64);
            a.0.push(7);
        }
        let a = pool.lease();
        assert!(a.0.is_empty() && a.0.capacity() >= 64, "the warm arena came back cleared");
        let b = pool.lease();
        assert_eq!(b.0.capacity(), 0, "a second concurrent lease is fresh");
    }
}
