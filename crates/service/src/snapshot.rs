//! Engine snapshot persistence: learn once, answer warm anywhere.
//!
//! A snapshot file is one [`sst_arena::codec`] frame whose payload is:
//!
//! ```text
//! u64 options-fingerprint · symbol table · database · cache (memos as pointer-shared trees)
//! ```
//!
//! The fingerprint hashes the engine's *generation-relevant* options
//! ([`sst_core::LuOptions`], via its `Debug` rendering): cache entries are
//! only sound across equal generation options, so a restore into an
//! engine configured differently must fail typed instead of silently
//! serving memo entries another configuration produced. Ranking weights,
//! pool width and `top_k` are deliberately outside the fingerprint — they
//! shape ranking and scheduling, not the memoized structures.
//!
//! Writes go through a sibling temp file plus `rename`, so a crash
//! mid-snapshot never leaves a torn file at the configured path (the
//! frame checksum would catch one anyway — this keeps the *previous*
//! snapshot intact too).

use std::path::Path;
use std::sync::Arc;

use sst_arena::{open_snapshot, seal_snapshot, Reader, SymDecoder, SymEncoder, Writer};
use sst_core::{DagCache, SynthesisOptions};
use sst_tables::Database;

use crate::types::ServiceError;

/// FNV-1a hash of the generation-relevant options (`options.lu`, which
/// pins depth bounds, syntactic generation parameters and the substring
/// gate — everything a memoized structure depends on).
pub(crate) fn options_fingerprint(options: &SynthesisOptions) -> u64 {
    let repr = format!("{:?}", options.lu);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in repr.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Encodes database + cache into a sealed snapshot and writes it to
/// `path` (temp file + rename). Returns the file size in bytes.
pub(crate) fn write_snapshot(
    path: &Path,
    db: &Database,
    cache: &DagCache,
    options: &SynthesisOptions,
) -> Result<u64, ServiceError> {
    let mut body = Writer::new();
    let mut sym = SymEncoder::new();
    sst_arena::encode_database(db, &mut body, &mut sym);
    cache.encode_snapshot(&mut body, &mut sym);
    let mut payload = Writer::new();
    payload.u64(options_fingerprint(options));
    sym.write_table(&mut payload);
    let body = body.into_bytes();
    payload.raw(&body);
    let sealed = seal_snapshot(&payload.into_bytes());

    let tmp = match path.file_name() {
        Some(name) => {
            let mut tmp_name = name.to_os_string();
            tmp_name.push(".tmp");
            path.with_file_name(tmp_name)
        }
        None => {
            return Err(ServiceError::Snapshot(format!(
                "invalid snapshot path {}",
                path.display()
            )))
        }
    };
    std::fs::write(&tmp, &sealed)
        .and_then(|()| std::fs::rename(&tmp, path))
        .map_err(|e| ServiceError::Snapshot(format!("writing {}: {e}", path.display())))?;
    Ok(sealed.len() as u64)
}

/// Reads and fully validates a snapshot written by [`write_snapshot`],
/// refusing one taken under different generation options. The restored
/// database draws fresh process-local epochs and the cache binds to them.
pub(crate) fn read_snapshot(
    path: &Path,
    options: &SynthesisOptions,
) -> Result<(Arc<Database>, DagCache), ServiceError> {
    let bytes = std::fs::read(path)
        .map_err(|e| ServiceError::Snapshot(format!("reading {}: {e}", path.display())))?;
    let payload = open_snapshot(&bytes)?;
    let mut r = Reader::new(payload);
    let fingerprint = r.u64()?;
    if fingerprint != options_fingerprint(options) {
        return Err(ServiceError::Snapshot(
            "options fingerprint mismatch: the snapshot was taken under different \
             generation options, its memo entries would be unsound here"
                .into(),
        ));
    }
    let sym = SymDecoder::read_table(&mut r)?;
    let db = sst_arena::decode_database(&mut r, &sym)?;
    let cache = DagCache::decode_snapshot(&mut r, &sym, db.epoch())?;
    r.expect_end()?;
    Ok((Arc::new(db), cache))
}
