//! The durable store: one data directory holding a snapshot + WAL epoch
//! pair, with atomic checkpoint rotation and crash recovery.
//!
//! On-disk layout of a data directory:
//!
//! ```text
//! data_dir/
//!   snapshot-<e>.gsnap    the epoch-e checkpoint (absent at epoch 0 when
//!                         no checkpoint has ever been taken)
//!   wal-<e>.log           records logged since the epoch-e checkpoint
//! ```
//!
//! Checkpoint rotation (epoch `e` → `e+1`) is ordered so a crash at any
//! point recovers to a consistent prefix:
//!
//! 1. serialize the snapshot to `snapshot-<e+1>.tmp`, fsync;
//! 2. create the empty `wal-<e+1>.log`, fsync;
//! 3. rename the temp file to `snapshot-<e+1>.gsnap` (atomic);
//! 4. fsync the directory;
//! 5. switch appends to the new WAL and delete the epoch-`e` files.
//!
//! An orphan `wal-<e+1>.log` without `snapshot-<e+1>.gsnap` means the
//! crash hit between steps 2 and 3: recovery ignores and deletes it, and
//! resumes from epoch `e`. A `.tmp` file is always ignored and deleted.
//!
//! Writers and the checkpointer coordinate through a **commit lock**: every
//! writer ([`crate::Catalog::apply`], the only one) holds the shared side
//! from before its record is written until the record is synced, and a checkpoint holds the exclusive side across capture +
//! rotation — so no change can land in both the new snapshot and the new
//! WAL (which would double-apply it on recovery), whoever made it.

use super::snapshot::{decode_snapshot, encode_snapshot, SnapshotData};
use super::wal::{scan_wal, Unsynced, WalWriter};
use crate::error::StorageError;
use crate::Result;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, RwLock, RwLockReadGuard};

fn io_err(context: &str, path: &Path, e: std::io::Error) -> StorageError {
    StorageError::Io(format!("{context} {}: {e}", path.display()))
}

/// What recovery found in the data directory.
#[derive(Debug)]
pub struct Recovery {
    /// The latest checkpoint, if one was ever taken.
    pub snapshot: Option<SnapshotData>,
    /// Valid WAL record payloads appended since that checkpoint, in order.
    pub wal_records: Vec<Vec<u8>>,
    /// Torn trailing bytes truncated from the WAL (0 on a clean shutdown).
    pub truncated_bytes: u64,
    /// The epoch recovery resumed from.
    pub epoch: u64,
}

#[derive(Debug)]
struct StoreInner {
    epoch: u64,
    wal: WalWriter,
}

/// A durable data directory: appends records to the current epoch's WAL
/// and rotates epochs on checkpoint.
#[derive(Debug)]
pub struct DurableStore {
    dir: PathBuf,
    inner: Mutex<StoreInner>,
    commit: RwLock<()>,
}

fn snapshot_path(dir: &Path, epoch: u64) -> PathBuf {
    dir.join(format!("snapshot-{epoch}.gsnap"))
}

fn wal_path(dir: &Path, epoch: u64) -> PathBuf {
    dir.join(format!("wal-{epoch}.log"))
}

/// Parse `prefix-<n>.suffix` into `n`.
fn parse_epoch(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?.strip_suffix(suffix)?.parse().ok()
}

fn fsync_dir(dir: &Path) -> Result<()> {
    // Directory fsync makes the rename itself durable. Some filesystems
    // refuse to open directories for writing; opening read-only suffices
    // for fsync on every Unix we target.
    let f = File::open(dir).map_err(|e| io_err("opening directory", dir, e))?;
    f.sync_all().map_err(|e| io_err("syncing directory", dir, e))
}

impl DurableStore {
    /// Open (or initialize) a data directory, recovering its contents.
    ///
    /// Returns the store positioned to append after the recovered prefix,
    /// plus everything the engine needs to rebuild in-memory state.
    pub fn open(dir: impl AsRef<Path>) -> Result<(DurableStore, Recovery)> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir).map_err(|e| io_err("creating data directory", &dir, e))?;

        // Inventory the directory.
        let mut snapshots: Vec<u64> = Vec::new();
        let mut wals: Vec<u64> = Vec::new();
        let mut tmps: Vec<PathBuf> = Vec::new();
        let entries = fs::read_dir(&dir).map_err(|e| io_err("listing data directory", &dir, e))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_err("listing data directory", &dir, e))?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.ends_with(".tmp") {
                tmps.push(entry.path());
            } else if let Some(e) = parse_epoch(&name, "snapshot-", ".gsnap") {
                snapshots.push(e);
            } else if let Some(e) = parse_epoch(&name, "wal-", ".log") {
                wals.push(e);
            }
        }
        // Leftover temp files are incomplete checkpoints: never valid.
        for tmp in tmps {
            let _ = fs::remove_file(tmp);
        }

        // The recovery epoch: the newest snapshot, else the newest WAL
        // (fresh directories start at epoch 0 with neither).
        let epoch = match snapshots.iter().max() {
            Some(&e) => e,
            None => wals.iter().max().copied().unwrap_or(0),
        };

        let snapshot = match snapshots.iter().max() {
            Some(&e) => {
                let path = snapshot_path(&dir, e);
                let bytes =
                    fs::read(&path).map_err(|err| io_err("reading snapshot", &path, err))?;
                Some(decode_snapshot(&bytes).map_err(|err| match err {
                    StorageError::Corrupt(msg) => {
                        StorageError::Corrupt(format!("{}: {msg}", path.display()))
                    }
                    other => other,
                })?)
            }
            None => None,
        };

        // Delete files from other epochs: older pairs are superseded; a
        // newer orphan WAL is a checkpoint that never completed.
        for &e in snapshots.iter().chain(wals.iter()) {
            if e != epoch {
                let _ = fs::remove_file(snapshot_path(&dir, e));
                let _ = fs::remove_file(wal_path(&dir, e));
            }
        }
        let wal_file = wal_path(&dir, epoch);
        let scan = scan_wal(&wal_file)?;
        let (wal, truncated_bytes) = WalWriter::open_truncating(&wal_file)?;
        debug_assert_eq!(truncated_bytes, scan.torn_bytes);

        let store = DurableStore {
            dir,
            inner: Mutex::new(StoreInner { epoch, wal }),
            commit: RwLock::new(()),
        };
        let recovery = Recovery { snapshot, wal_records: scan.records, truncated_bytes, epoch };
        Ok((store, recovery))
    }

    /// The data directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The current epoch (bumped by every checkpoint).
    pub fn epoch(&self) -> u64 {
        self.inner.lock().expect("store lock poisoned").epoch
    }

    /// Acquire the shared side of the commit lock. A writer holds this
    /// guard from before it writes its record until the record is synced,
    /// so a concurrent checkpoint cannot capture the change while its
    /// record lands in the post-rotation WAL. It is never taken twice by
    /// one writer.
    pub fn commit_shared(&self) -> RwLockReadGuard<'_, ()> {
        self.commit.read().expect("commit lock poisoned")
    }

    /// Write one record to the current epoch's WAL without syncing it. The
    /// store's own lock is held only for the write, never for the sync.
    pub fn write(&self, payload: &[u8]) -> Result<Unsynced> {
        self.inner.lock().expect("store lock poisoned").wal.write(payload)
    }

    /// Take a checkpoint: capture a snapshot via `capture` (called under
    /// the exclusive commit lock, so it sees a statement-atomic state) and
    /// rotate to a fresh epoch. Returns the new epoch.
    ///
    /// Callers must **not** hold the shared commit lock (deadlock).
    pub fn checkpoint(&self, capture: impl FnOnce() -> Result<SnapshotData>) -> Result<u64> {
        let _exclusive = self.commit.write().expect("commit lock poisoned");
        let snap = capture()?;
        let bytes = encode_snapshot(&snap)?;

        let mut inner = self.inner.lock().expect("store lock poisoned");
        let old_epoch = inner.epoch;
        let new_epoch = old_epoch + 1;

        // 1. snapshot to temp, fsync.
        let tmp = self.dir.join(format!("snapshot-{new_epoch}.tmp"));
        {
            let mut f = OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(true)
                .open(&tmp)
                .map_err(|e| io_err("creating snapshot", &tmp, e))?;
            f.write_all(&bytes).map_err(|e| io_err("writing snapshot", &tmp, e))?;
            f.sync_all().map_err(|e| io_err("syncing snapshot", &tmp, e))?;
        }
        // 2. fresh WAL for the new epoch, fsync.
        let new_wal_path = wal_path(&self.dir, new_epoch);
        let _ = fs::remove_file(&new_wal_path); // a dead orphan from a crashed rotation
        let new_wal = WalWriter::create(&new_wal_path)?;
        // 3. atomic publish of the snapshot.
        let final_path = snapshot_path(&self.dir, new_epoch);
        fs::rename(&tmp, &final_path).map_err(|e| io_err("publishing snapshot", &final_path, e))?;
        // 4. make the rename durable.
        fsync_dir(&self.dir)?;
        // 5. switch appends, then retire the old epoch (best effort — a
        // crash here leaves both epochs on disk and recovery picks the
        // newer snapshot).
        inner.wal = new_wal;
        inner.epoch = new_epoch;
        let _ = fs::remove_file(snapshot_path(&self.dir, old_epoch));
        let _ = fs::remove_file(wal_path(&self.dir, old_epoch));
        Ok(new_epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::snapshot::SnapshotTable;
    use crate::schema::{ColumnDef, Schema};
    use crate::table::Table;
    use crate::types::DataType;
    use crate::value::Value;
    use std::sync::Arc;

    /// Durably append one record.
    fn append(store: &DurableStore, payload: &[u8]) {
        store.write(payload).unwrap().sync().unwrap();
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("gsql-store-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn one_table(rows: i64) -> SnapshotData {
        let mut t = Table::empty(Schema::new(vec![ColumnDef::not_null("id", DataType::Int)]));
        for i in 0..rows {
            t.append_row(vec![Value::Int(i)]).unwrap();
        }
        SnapshotData {
            ddl_version: 1,
            tables: vec![SnapshotTable {
                name: "t".into(),
                version: rows as u64,
                table: Arc::new(t),
            }],
            sections: Vec::new(),
        }
    }

    #[test]
    fn fresh_directory_starts_empty_at_epoch_zero() {
        let dir = temp_dir("fresh");
        let (store, rec) = DurableStore::open(&dir).unwrap();
        assert!(rec.snapshot.is_none());
        assert!(rec.wal_records.is_empty());
        assert_eq!(rec.epoch, 0);
        assert_eq!(store.epoch(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn appends_recover_and_checkpoints_rotate() {
        let dir = temp_dir("rotate");
        {
            let (store, _) = DurableStore::open(&dir).unwrap();
            append(&store, b"one");
            append(&store, b"two");
        }
        {
            let (store, rec) = DurableStore::open(&dir).unwrap();
            assert_eq!(rec.wal_records, vec![b"one".to_vec(), b"two".to_vec()]);
            let epoch = store.checkpoint(|| Ok(one_table(2))).unwrap();
            assert_eq!(epoch, 1);
            append(&store, b"three");
        }
        {
            let (store, rec) = DurableStore::open(&dir).unwrap();
            assert_eq!(rec.epoch, 1);
            let snap = rec.snapshot.expect("snapshot after checkpoint");
            assert_eq!(snap.tables[0].table.row_count(), 2);
            assert_eq!(rec.wal_records, vec![b"three".to_vec()]);
            assert_eq!(store.epoch(), 1);
            // Old epoch files are gone.
            assert!(!wal_path(&dir, 0).exists());
            assert!(!snapshot_path(&dir, 0).exists());
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn orphan_wal_from_crashed_checkpoint_is_ignored() {
        let dir = temp_dir("orphan");
        {
            let (store, _) = DurableStore::open(&dir).unwrap();
            store.checkpoint(|| Ok(one_table(3))).unwrap();
            append(&store, b"live");
        }
        // Simulate a crash between WAL creation and snapshot rename: an
        // epoch-2 WAL with no epoch-2 snapshot, plus a leftover temp file.
        WalWriter::create(&wal_path(&dir, 2)).unwrap();
        fs::write(dir.join("snapshot-2.tmp"), b"incomplete").unwrap();
        {
            let (store, rec) = DurableStore::open(&dir).unwrap();
            assert_eq!(rec.epoch, 1);
            assert_eq!(rec.wal_records, vec![b"live".to_vec()]);
            assert!(rec.snapshot.is_some());
            assert!(!wal_path(&dir, 2).exists());
            assert!(!dir.join("snapshot-2.tmp").exists());
            // The next checkpoint reuses epoch 2 cleanly.
            assert_eq!(store.checkpoint(|| Ok(one_table(4))).unwrap(), 2);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn both_epochs_present_prefers_newer_snapshot() {
        let dir = temp_dir("bothepochs");
        let (store, _) = DurableStore::open(&dir).unwrap();
        append(&store, b"a");
        store.checkpoint(|| Ok(one_table(1))).unwrap();
        append(&store, b"b");
        drop(store);
        // Resurrect a stale epoch-0 pair as if deletion never happened.
        WalWriter::create(&wal_path(&dir, 0)).unwrap();
        fs::write(snapshot_path(&dir, 0), encode_snapshot(&one_table(99)).unwrap()).unwrap();
        let (_, rec) = DurableStore::open(&dir).unwrap();
        assert_eq!(rec.epoch, 1);
        assert_eq!(rec.snapshot.unwrap().tables[0].table.row_count(), 1);
        assert_eq!(rec.wal_records, vec![b"b".to_vec()]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_snapshot_surfaces_a_named_error() {
        let dir = temp_dir("corruptsnap");
        let (store, _) = DurableStore::open(&dir).unwrap();
        store.checkpoint(|| Ok(one_table(1))).unwrap();
        drop(store);
        let path = snapshot_path(&dir, 1);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        let err = DurableStore::open(&dir).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt(_)), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }
}
