//! The binary snapshot codec behind `Engine::snapshot_to` /
//! `Engine::restore_from`.
//!
//! [`codec`] holds everything below the memo plane: the checksummed
//! frame, the varint [`Writer`]/[`Reader`], the process-independent
//! symbol table ([`SymEncoder`]/[`SymDecoder`]), and the token, position
//! set and database codecs. `sst-core` writes the memo plane on top of
//! these as a plain tree walk: each distinct `Arc` allocation of the live
//! structures (a DAG, a `SubStr` position list, a `Select` condition list)
//! is written in full once and named by a back-reference after that, so
//! the file keeps exactly the sharing the live engine holds and a restore
//! rebuilds it. Learning never touches this crate.

#![forbid(unsafe_code)]

pub mod codec;

pub use codec::{
    decode_database, decode_pos, encode_database, encode_pos, open_snapshot, seal_snapshot, Reader,
    SnapshotError, SymDecoder, SymEncoder, Writer, SNAPSHOT_VERSION,
};

/// Sharing counters of an engine's last snapshot encode or decode, for
/// `/metrics` and the snapshot gates in `tests/snapshot_roundtrip.rs`.
/// All zeros before either: learning never writes a snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ArenaStats {
    /// Shared allocations (DAGs, position lists, condition lists) written
    /// in full.
    pub stored: u64,
    /// References to shared allocations: the `stored` full writes plus
    /// every back-reference to one already written.
    pub interned: u64,
    /// Bytes of the memo-plane section of the payload.
    pub resident_bytes: u64,
}

impl ArenaStats {
    /// Back-references: references answered by an allocation already
    /// written.
    pub fn hits(&self) -> u64 {
        self.interned - self.stored
    }

    /// Sharing ratio: references per allocation written (≥ 1.0; 2.0 means
    /// half of all references named an allocation already in the file).
    pub fn dedup_ratio(&self) -> f64 {
        if self.stored == 0 {
            return 1.0;
        }
        self.interned as f64 / self.stored as f64
    }
}
