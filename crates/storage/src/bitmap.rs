//! A packed validity bitmap used to track NULLs in columns.

/// A growable bitset packed into `u64` words.
///
/// Bit `i` set means row `i` is **valid** (non-NULL). The bitmap length is
/// tracked in bits; trailing bits of the last word beyond `len` are always
/// zero so that popcounts stay exact.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// An empty bitmap.
    pub fn new() -> Bitmap {
        Bitmap::default()
    }

    /// A bitmap of `len` bits, all set to `value`.
    pub fn with_value(len: usize, value: bool) -> Bitmap {
        let mut words = vec![if value { u64::MAX } else { 0 }; len.div_ceil(64)];
        if value && !len.is_multiple_of(64) {
            // Clear the unused high bits of the last word.
            if let Some(last) = words.last_mut() {
                *last &= (1u64 << (len % 64)) - 1;
            }
        }
        Bitmap { words, len }
    }

    /// A copy with room for `extra` more bits, so pushing them reallocates
    /// nothing.
    pub fn with_headroom(&self, extra: usize) -> Bitmap {
        let mut words = Vec::with_capacity((self.len + extra).div_ceil(64));
        words.extend_from_slice(&self.words);
        Bitmap { words, len: self.len }
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the bitmap holds no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Value of bit `i`. Panics if out of range.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bitmap index {i} out of range {}", self.len);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Set bit `i` to `value`. Panics if out of range.
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "bitmap index {i} out of range {}", self.len);
        let mask = 1u64 << (i % 64);
        if value {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// Append a bit.
    pub fn push(&mut self, value: bool) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        if value {
            let i = self.len;
            self.words[i / 64] |= 1u64 << (i % 64);
        }
        self.len += 1;
    }

    /// Number of set (valid) bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when every bit is set.
    pub fn all_set(&self) -> bool {
        self.count_ones() == self.len
    }

    /// Iterator over all bits in order.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Append all bits of `other`.
    pub fn extend_from(&mut self, other: &Bitmap) {
        for bit in other.iter() {
            self.push(bit);
        }
    }

    /// Build a new bitmap by gathering bits at `indices`. An all-set source
    /// yields an all-set bitmap without reading a bit (checked only when
    /// the gather is at least as long as the source's word count, so the
    /// check never costs more than the gather); otherwise the bits are
    /// or-ed into whole output words.
    ///
    /// # Panics
    /// Panics when an index is out of range.
    pub fn take(&self, indices: &[usize]) -> Bitmap {
        if indices.len() >= self.words.len() && self.all_set() {
            if let Some(&i) = indices.iter().find(|&&i| i >= self.len) {
                panic!("bitmap index {i} out of range {}", self.len);
            }
            return Bitmap::with_value(indices.len(), true);
        }
        let mut words = vec![0u64; indices.len().div_ceil(64)];
        for (out, chunk) in words.iter_mut().zip(indices.chunks(64)) {
            for (k, &i) in chunk.iter().enumerate() {
                *out |= u64::from(self.get(i)) << k;
            }
        }
        Bitmap { words, len: indices.len() }
    }

    /// Copy the contiguous bit range `range` into a new bitmap (the
    /// positional fast path behind `Table::slice_rows`). Word-aligned
    /// starts copy whole words; unaligned starts stitch adjacent words.
    ///
    /// # Panics
    /// Panics when the range extends past the bitmap.
    pub fn slice(&self, range: std::ops::Range<usize>) -> Bitmap {
        assert!(range.end <= self.len, "slice {range:?} out of range {}", self.len);
        let out_len = range.len();
        if out_len == 0 {
            return Bitmap::new();
        }
        let shift = range.start % 64;
        let first_word = range.start / 64;
        let n_words = out_len.div_ceil(64);
        let mut words = Vec::with_capacity(n_words);
        if shift == 0 {
            words.extend_from_slice(&self.words[first_word..first_word + n_words]);
        } else {
            for w in 0..n_words {
                let lo = self.words[first_word + w] >> shift;
                let hi = match self.words.get(first_word + w + 1) {
                    Some(&next) => next << (64 - shift),
                    None => 0,
                };
                words.push(lo | hi);
            }
        }
        // Clear the unused high bits of the last word so popcounts stay
        // exact (the Bitmap invariant).
        if !out_len.is_multiple_of(64) {
            if let Some(last) = words.last_mut() {
                *last &= (1u64 << (out_len % 64)) - 1;
            }
        }
        Bitmap { words, len: out_len }
    }
}

impl FromIterator<bool> for Bitmap {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Bitmap {
        let mut bm = Bitmap::new();
        for bit in iter {
            bm.push(bit);
        }
        bm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_set_round_trip() {
        let mut bm = Bitmap::new();
        for i in 0..200 {
            bm.push(i % 3 == 0);
        }
        assert_eq!(bm.len(), 200);
        for i in 0..200 {
            assert_eq!(bm.get(i), i % 3 == 0, "bit {i}");
        }
        bm.set(1, true);
        assert!(bm.get(1));
        bm.set(0, false);
        assert!(!bm.get(0));
    }

    #[test]
    fn with_value_sets_uniformly() {
        let ones = Bitmap::with_value(130, true);
        assert_eq!(ones.count_ones(), 130);
        assert!(ones.all_set());
        let zeros = Bitmap::with_value(130, false);
        assert_eq!(zeros.count_ones(), 0);
    }

    #[test]
    fn with_value_true_clears_tail_bits() {
        // 65 bits => second word must only have 1 bit set.
        let bm = Bitmap::with_value(65, true);
        assert_eq!(bm.count_ones(), 65);
    }

    #[test]
    fn take_gathers_bits() {
        let bm: Bitmap = (0..10).map(|i| i % 2 == 0).collect();
        let taken = bm.take(&[0, 1, 9, 4]);
        assert_eq!(taken.iter().collect::<Vec<_>>(), vec![true, false, false, true]);
    }

    #[test]
    fn take_matches_per_bit_gather() {
        let per_bit =
            |bm: &Bitmap, idx: &[usize]| -> Bitmap { idx.iter().map(|&i| bm.get(i)).collect() };
        let sparse: Bitmap = (0..300).map(|i| i % 7 != 0).collect();
        let full = Bitmap::with_value(300, true);
        let indices: Vec<Vec<usize>> = vec![
            vec![],
            vec![0],
            (0..300).collect(),
            (0..300).rev().collect(),
            (0..200).map(|i| (i * 37) % 300).collect(),
            (0..130).map(|i| i * 2).collect(),
        ];
        for bm in [&sparse, &full] {
            for idx in &indices {
                let taken = bm.take(idx);
                assert_eq!(taken, per_bit(bm, idx), "{} indices", idx.len());
                assert_eq!(taken.count_ones(), idx.iter().filter(|&&i| bm.get(i)).count());
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn take_out_of_range_panics_on_an_all_set_source() {
        Bitmap::with_value(10, true).take(&[3, 10]);
    }

    #[test]
    fn extend_concatenates() {
        let mut a: Bitmap = [true, false].into_iter().collect();
        let b: Bitmap = [false, true, true].into_iter().collect();
        a.extend_from(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![true, false, false, true, true]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        Bitmap::new().get(0);
    }

    #[test]
    fn slice_matches_bitwise_copy() {
        let bm: Bitmap = (0..300).map(|i| i % 7 == 0 || i % 11 == 0).collect();
        for (start, end) in [(0, 0), (0, 300), (0, 64), (1, 65), (63, 190), (64, 128), (130, 131)] {
            let s = bm.slice(start..end);
            assert_eq!(s.len(), end - start, "{start}..{end}");
            for i in 0..s.len() {
                assert_eq!(s.get(i), bm.get(start + i), "{start}..{end} bit {i}");
            }
            assert_eq!(s.count_ones(), (start..end).filter(|&i| bm.get(i)).count());
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn slice_out_of_range_panics() {
        Bitmap::with_value(10, true).slice(5..11);
    }
}
