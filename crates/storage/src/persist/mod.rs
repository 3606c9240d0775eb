//! Durability: write-ahead logging, snapshot checkpoints, crash recovery.
//!
//! The layering is deliberate: this module knows how to persist **tables
//! and bytes**, not engine semantics. WAL frames carry opaque payloads —
//! the catalog's [`crate::Mutation`] records, and the engine's index DDL
//! statements — and snapshots carry named opaque *sections* next to the
//! catalog tables (the engine serializes its index registries and built
//! acceleration structures into those). That keeps `gsql-storage`
//! dependency-free and lets the engine evolve its own records without
//! touching the on-disk framing.
//!
//! * [`codec`] — little-endian primitives + CRC-32, shared by every format;
//! * [`wal`] — the append-only, checksummed, torn-tail-tolerant log;
//! * [`snapshot`] — the versioned snapshot file format;
//! * [`store`] — the data directory: epoch rotation + crash recovery.

pub mod codec;
pub mod snapshot;
pub mod store;
pub mod wal;

pub use codec::{crc32, get_value, put_value, ByteReader, ByteWriter};
pub use snapshot::{decode_snapshot, encode_snapshot, SnapshotData, SnapshotTable};
pub use store::{DurableStore, Recovery};
pub use wal::{scan_wal, Unsynced, WalScan, WalWriter};
