//! The append-only, checksummed write-ahead log.
//!
//! File layout:
//!
//! ```text
//! [8-byte magic "GSQLWAL1"]
//! [u32 payload_len][u32 crc32(payload)][payload] ...   (one frame per record)
//! ```
//!
//! Record payloads are opaque to this layer. The catalog writes one
//! [`crate::Mutation`] record per table change, and the engine writes its
//! index DDL as SQL text (see [`crate::mutation`] for the record layouts).
//! Writing a frame and making it durable are two steps
//! ([`WalWriter::write`], then [`Unsynced::sync`]), so a caller can write
//! inside a critical section and fsync after leaving it;
//! [`WalWriter::append`] does both. The framing is what makes the log
//! **torn-tail tolerant**: a crash mid-append leaves a final frame that is
//! short or fails its checksum, and both readers and the re-opening writer
//! stop at the last complete, checksum-valid frame. The writer physically
//! truncates the torn tail before appending again, so a recovered log is
//! always a consistent prefix of what was written.

use super::codec::crc32;
use crate::error::StorageError;
use crate::Result;
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Arc;

/// Magic bytes opening every WAL file.
pub const WAL_MAGIC: &[u8; 8] = b"GSQLWAL1";

/// Per-frame overhead: length prefix + checksum.
const FRAME_HEADER: usize = 8;

/// Largest accepted record payload (1 GiB) — a sanity bound so a corrupt
/// length prefix cannot drive a giant allocation.
const MAX_RECORD: usize = 1 << 30;

fn io_err(context: &str, path: &Path, e: std::io::Error) -> StorageError {
    StorageError::Io(format!("{context} {}: {e}", path.display()))
}

/// Result of scanning a WAL file: the valid record payloads, the byte
/// length of the valid prefix, and how many trailing bytes were torn.
#[derive(Debug)]
pub struct WalScan {
    /// Payloads of every complete, checksum-valid record, in append order.
    pub records: Vec<Vec<u8>>,
    /// File offset one past the last valid frame (`>= WAL_MAGIC.len()`).
    pub valid_len: u64,
    /// Bytes beyond `valid_len` (a torn append or trailing garbage).
    pub torn_bytes: u64,
}

/// Read and validate a WAL file, stopping at the first torn or corrupt
/// frame. A missing file reads as an empty log.
pub fn scan_wal(path: &Path) -> Result<WalScan> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(WalScan { records: Vec::new(), valid_len: 0, torn_bytes: 0 });
        }
        Err(e) => return Err(io_err("reading WAL", path, e)),
    };
    if bytes.len() < WAL_MAGIC.len() || &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        return Err(StorageError::Corrupt(format!(
            "{} is not a WAL file (bad magic)",
            path.display()
        )));
    }
    let mut records = Vec::new();
    let mut pos = WAL_MAGIC.len();
    loop {
        if bytes.len() - pos < FRAME_HEADER {
            break; // torn or clean end
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
        if len > MAX_RECORD || bytes.len() - pos - FRAME_HEADER < len {
            break; // torn length or torn payload
        }
        let payload = &bytes[pos + FRAME_HEADER..pos + FRAME_HEADER + len];
        if crc32(payload) != crc {
            break; // torn or corrupt payload
        }
        records.push(payload.to_vec());
        pos += FRAME_HEADER + len;
    }
    Ok(WalScan { records, valid_len: pos as u64, torn_bytes: (bytes.len() - pos) as u64 })
}

/// The appending side of a WAL file.
#[derive(Debug)]
pub struct WalWriter {
    file: Arc<File>,
    path: Arc<Path>,
}

/// A frame written to a WAL file but not yet synced to disk.
#[must_use = "a written frame is durable only after `sync`"]
#[derive(Debug)]
pub struct Unsynced {
    file: Arc<File>,
    path: Arc<Path>,
    bytes: u64,
}

impl Unsynced {
    /// Make the frame (and every frame written before it) durable
    /// (`fdatasync`). Returns the frame's size, framing included.
    pub fn sync(self) -> Result<u64> {
        self.file.sync_data().map_err(|e| io_err("syncing WAL", &self.path, e))?;
        Ok(self.bytes)
    }
}

impl WalWriter {
    /// Create a fresh WAL file (magic only), fsynced. Errors if the file
    /// already exists — epochs never reuse a log file.
    pub fn create(path: &Path) -> Result<WalWriter> {
        let mut file = OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(path)
            .map_err(|e| io_err("creating WAL", path, e))?;
        file.write_all(WAL_MAGIC).map_err(|e| io_err("initializing WAL", path, e))?;
        file.sync_all().map_err(|e| io_err("syncing WAL", path, e))?;
        Ok(WalWriter { file: Arc::new(file), path: path.into() })
    }

    /// Open an existing WAL for appending, truncating any torn tail first.
    /// Returns the writer and the number of torn bytes discarded. A missing
    /// file is created fresh.
    pub fn open_truncating(path: &Path) -> Result<(WalWriter, u64)> {
        if !path.exists() {
            return Ok((WalWriter::create(path)?, 0));
        }
        let scan = scan_wal(path)?;
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| io_err("opening WAL", path, e))?;
        if scan.torn_bytes > 0 {
            file.set_len(scan.valid_len).map_err(|e| io_err("truncating WAL", path, e))?;
            file.sync_all().map_err(|e| io_err("syncing WAL", path, e))?;
        }
        file.seek(SeekFrom::End(0)).map_err(|e| io_err("seeking WAL", path, e))?;
        Ok((WalWriter { file: Arc::new(file), path: path.into() }, scan.torn_bytes))
    }

    /// Append one record, durably (`fdatasync` before returning). Returns
    /// the number of bytes written including framing.
    pub fn append(&mut self, payload: &[u8]) -> Result<u64> {
        self.write(payload)?.sync()
    }

    /// Write one record's frame without syncing it: the record is durable
    /// once the returned [`Unsynced`] is synced.
    pub fn write(&mut self, payload: &[u8]) -> Result<Unsynced> {
        if payload.len() > MAX_RECORD {
            return Err(StorageError::Internal(format!(
                "WAL record of {} bytes exceeds the 1 GiB bound",
                payload.len()
            )));
        }
        let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        (&*self.file).write_all(&frame).map_err(|e| io_err("appending to WAL", &self.path, e))?;
        Ok(Unsynced {
            file: Arc::clone(&self.file),
            path: Arc::clone(&self.path),
            bytes: frame.len() as u64,
        })
    }

    /// The log file this writer appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_path(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gsql-wal-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("wal.log")
    }

    #[test]
    fn append_and_scan_round_trip() {
        let path = temp_path("roundtrip");
        let mut w = WalWriter::create(&path).unwrap();
        w.append(b"first").unwrap();
        w.append(b"").unwrap();
        w.append(b"third record").unwrap();
        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.records, vec![b"first".to_vec(), Vec::new(), b"third record".to_vec()]);
        assert_eq!(scan.torn_bytes, 0);
    }

    #[test]
    fn torn_tail_is_detected_and_truncated() {
        let path = temp_path("torn");
        let mut w = WalWriter::create(&path).unwrap();
        w.append(b"keep me").unwrap();
        w.append(b"also keep").unwrap();
        drop(w);
        // Simulate a crash mid-append: a frame header promising more bytes
        // than exist.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&100u32.to_le_bytes()).unwrap();
        f.write_all(&0u32.to_le_bytes()).unwrap();
        f.write_all(b"short").unwrap();
        drop(f);

        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.torn_bytes, 13);

        // Reopening truncates and appends after the valid prefix.
        let (mut w, torn) = WalWriter::open_truncating(&path).unwrap();
        assert_eq!(torn, 13);
        w.append(b"after recovery").unwrap();
        let scan = scan_wal(&path).unwrap();
        assert_eq!(
            scan.records,
            vec![b"keep me".to_vec(), b"also keep".to_vec(), b"after recovery".to_vec()]
        );
        assert_eq!(scan.torn_bytes, 0);
    }

    #[test]
    fn corrupt_crc_truncates_from_that_record() {
        let path = temp_path("crc");
        let mut w = WalWriter::create(&path).unwrap();
        w.append(b"good").unwrap();
        w.append(b"bad").unwrap();
        drop(w);
        // Flip a payload byte of the second record (the last 3 bytes).
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.records, vec![b"good".to_vec()]);
        assert!(scan.torn_bytes > 0);
    }

    #[test]
    fn missing_file_is_an_empty_log() {
        let path = temp_path("missing").with_file_name("never-created.log");
        let scan = scan_wal(&path).unwrap();
        assert!(scan.records.is_empty());
        assert_eq!(scan.valid_len, 0);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let path = temp_path("magic");
        std::fs::write(&path, b"NOTAWAL!xxxx").unwrap();
        assert!(matches!(scan_wal(&path), Err(StorageError::Corrupt(_))));
    }
}
