//! Byte-level encoding primitives shared by the WAL and snapshot formats.
//!
//! Everything on disk is little-endian and length-prefixed; there is no
//! schema evolution magic beyond the format-version byte each container
//! writes up front. The checksum is plain CRC-32 (IEEE), table-driven.

use crate::error::StorageError;
use crate::value::Value;
use crate::Result;

/// CRC-32 (IEEE 802.3, reflected) lookup table, built at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 checksum of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// An append-only byte buffer with typed little-endian writers.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Current encoded length.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Write a raw byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write an `i64` (two's-complement little-endian).
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write an `i32`.
    pub fn put_i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write an `f64` through its IEEE-754 bit pattern (NaN-exact).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Write a `usize` as a `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Write a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Write length-prefixed raw bytes.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_usize(bytes.len());
        self.buf.extend_from_slice(bytes);
    }

    /// Write a length-prefixed list, each item by `put`.
    pub fn put_list<T>(&mut self, items: &[T], mut put: impl FnMut(&mut ByteWriter, &T)) {
        self.put_usize(items.len());
        for item in items {
            put(self, item);
        }
    }
}

/// A cursor over encoded bytes; every read is bounds-checked and a short
/// buffer surfaces as [`StorageError::Corrupt`] rather than a panic.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

fn corrupt(what: &str) -> StorageError {
    StorageError::Corrupt(format!("truncated while reading {what}"))
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when the whole buffer has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(corrupt(what));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Read one byte.
    pub fn get_u8(&mut self) -> Result<u8> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Read a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4, "u32")?.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8, "u64")?.try_into().unwrap()))
    }

    /// Read an `i64`.
    pub fn get_i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take(8, "i64")?.try_into().unwrap()))
    }

    /// Read an `i32`.
    pub fn get_i32(&mut self) -> Result<i32> {
        Ok(i32::from_le_bytes(self.take(4, "i32")?.try_into().unwrap()))
    }

    /// Read an `f64` from its bit pattern.
    pub fn get_f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Read a `usize` (stored as `u64`), rejecting values that cannot fit.
    pub fn get_usize(&mut self) -> Result<usize> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| StorageError::Corrupt(format!("length {v} overflows usize")))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String> {
        let len = self.get_usize()?;
        let bytes = self.take(len, "string")?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| StorageError::Corrupt("invalid UTF-8 in string".into()))
    }

    /// Read length-prefixed raw bytes.
    pub fn get_bytes(&mut self) -> Result<Vec<u8>> {
        let len = self.get_usize()?;
        Ok(self.take(len, "bytes")?.to_vec())
    }

    /// Read a list written by [`ByteWriter::put_list`], each item by `get`.
    /// Every item takes at least a byte, so a corrupt length allocates no
    /// more than the bytes left.
    pub fn get_list<T>(&mut self, mut get: impl FnMut(&mut Self) -> Result<T>) -> Result<Vec<T>> {
        let n = self.get_usize()?;
        let mut items = Vec::with_capacity(n.min(self.remaining()));
        for _ in 0..n {
            items.push(get(self)?);
        }
        Ok(items)
    }
}

/// Write one cell value: a type tag, then its bits. PATH values are query
/// results, not storable data, and are refused.
pub fn put_value(w: &mut ByteWriter, v: &Value) -> Result<()> {
    match v {
        Value::Null => w.put_u8(0),
        Value::Int(i) => {
            w.put_u8(1);
            w.put_i64(*i);
        }
        Value::Double(f) => {
            w.put_u8(2);
            w.put_f64(*f);
        }
        Value::Str(s) => {
            w.put_u8(3);
            w.put_str(s);
        }
        Value::Bool(b) => {
            w.put_u8(4);
            w.put_u8(*b as u8);
        }
        Value::Date(d) => {
            w.put_u8(5);
            w.put_i32(d.0);
        }
        Value::Path(_) => {
            return Err(StorageError::Internal("path values cannot be persisted".into()))
        }
    }
    Ok(())
}

/// Read one cell value written by [`put_value`].
pub fn get_value(r: &mut ByteReader<'_>) -> Result<Value> {
    Ok(match r.get_u8()? {
        0 => Value::Null,
        1 => Value::Int(r.get_i64()?),
        2 => Value::Double(r.get_f64()?),
        3 => Value::Str(r.get_str()?),
        4 => Value::Bool(r.get_u8()? != 0),
        5 => Value::Date(crate::Date(r.get_i32()?)),
        other => return Err(StorageError::Corrupt(format!("unknown value tag {other}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"a"), crc32(b"b"));
    }

    #[test]
    fn round_trips_every_type() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX);
        w.put_i64(-42);
        w.put_i32(-7);
        w.put_f64(f64::NAN);
        w.put_str("héllo");
        w.put_bytes(&[1, 2, 3]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX);
        assert_eq!(r.get_i64().unwrap(), -42);
        assert_eq!(r.get_i32().unwrap(), -7);
        assert!(r.get_f64().unwrap().is_nan());
        assert_eq!(r.get_str().unwrap(), "héllo");
        assert_eq!(r.get_bytes().unwrap(), vec![1, 2, 3]);
        assert!(r.is_exhausted());
    }

    #[test]
    fn short_reads_error_instead_of_panicking() {
        let mut r = ByteReader::new(&[1, 2]);
        assert!(matches!(r.get_u64(), Err(StorageError::Corrupt(_))));
        // A huge declared length must not allocate or panic.
        let mut w = ByteWriter::new();
        w.put_u64(u64::MAX);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(r.get_str().is_err());
    }
}
