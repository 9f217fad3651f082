//! Engine snapshots: the versioned binary file behind
//! `Engine::snapshot_to` / `Engine::restore_from`, written by [`write()`]
//! and read back by [`read()`]. Learning never touches this module.
//!
//! ```text
//! magic "SSTSNAP\0" · u32 version · u64 payload_len · payload · u64 fnv1a(payload)
//! payload = u64 options-fingerprint · symbol table · database · memo plane
//! ```
//!
//! The frame fields are fixed-width little-endian; inside the payload
//! every `u32` (counts, lengths, indices) is an LEB128 varint and every
//! `i32` a zigzag varint, so the small numbers that dominate a memo plane
//! take one byte. Interned symbols are process-local, so the payload
//! names each one by a dense index into a string table written once
//! (`codec`). The memo plane is a plain tree walk over the `Du`
//! structures (`tree`): each distinct `Arc` allocation (a DAG, a
//! `SubStr` position list, a `Select` condition list) is written in full
//! once and named by a back-reference after that, so the file keeps
//! exactly the sharing the live engine holds and a restore rebuilds it.
//!
//! The fingerprint hashes the generation-relevant options of the cache
//! ([`crate::LuOptions`], via its `Debug` rendering): memo entries are
//! only sound across equal generation options, so a restore into an
//! engine configured differently fails typed. Ranking weights, pool width
//! and `top_k` shape ranking and scheduling, not the memoized structures,
//! and stay outside it.
//!
//! Every decode path is bounds-checked and returns a typed
//! [`SnapshotError`]; no input — truncated, bit-flipped, wrong-version or
//! adversarial — panics. The payload checksum catches random corruption;
//! the structural checks of each decoder catch the rest. Writes go
//! through a sibling temp file plus `rename`, so a crash mid-snapshot
//! leaves the previous snapshot intact.

mod codec;
mod tree;

use std::fmt;
use std::path::Path;

use sst_tables::{Database, IntMap};

use crate::cache::{CacheState, DagCache, ExampleEntry, ExampleKey};
use crate::{LuOptions, SynthesisOptions};
use codec::{decode_database, encode_database, Reader, SymDecoder, SymEncoder, Writer};
use tree::{within, TreeDecoder, TreeEncoder};

/// Magic prefix of every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"SSTSNAP\0";

/// Current snapshot format version. Bump on any layout change; old
/// readers answer [`SnapshotError::UnsupportedVersion`] instead of
/// misparsing. Version 3 writes the memo plane as a pointer-shared tree
/// with varint integers (version 2 wrote a hash-consed arena of
/// fixed-width tables; version 1 also keyed the memos by arena ids).
pub const SNAPSHOT_VERSION: u32 = 3;

/// Why a snapshot could not be written or read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The file does not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The file's format version is not one this build reads.
    UnsupportedVersion(u32),
    /// The file ends before its declared content does.
    Truncated,
    /// The content is structurally invalid (failed checksum, id out of
    /// bounds, malformed value).
    Corrupt(String),
    /// The snapshot was taken under different generation options; its
    /// memo entries would be unsound here.
    OptionsMismatch,
    /// The underlying file could not be read or written.
    Io(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} (this build reads {SNAPSHOT_VERSION})"
                )
            }
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::Corrupt(why) => write!(f, "snapshot corrupt: {why}"),
            SnapshotError::OptionsMismatch => write!(
                f,
                "options fingerprint mismatch: the snapshot was taken under different \
                 generation options, its memo entries would be unsound here"
            ),
            SnapshotError::Io(why) => write!(f, "snapshot io error: {why}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

fn corrupt(why: impl Into<String>) -> SnapshotError {
    SnapshotError::Corrupt(why.into())
}

/// Sharing counters of an engine's last snapshot write or read, for
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

/// FNV-1a: the frame checksum and the options fingerprint.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The fingerprint of `lu`, which pins depth bounds, syntactic generation
/// parameters and the substring gate — everything a memoized structure
/// depends on.
fn options_fingerprint(lu: &LuOptions) -> u64 {
    fnv1a(format!("{lu:?}").as_bytes())
}

/// Frames `payload` into a complete snapshot file image.
fn seal_snapshot(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 28);
    out.extend_from_slice(&SNAPSHOT_MAGIC);
    out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&fnv1a(payload).to_le_bytes());
    out
}

/// Verifies the frame (magic, version, length, checksum) and returns the
/// payload.
pub fn open_snapshot(bytes: &[u8]) -> Result<&[u8], SnapshotError> {
    if bytes.len() < 12 {
        return if bytes.len() >= 8 && bytes[..8] != SNAPSHOT_MAGIC {
            Err(SnapshotError::BadMagic)
        } else {
            Err(SnapshotError::Truncated)
        };
    }
    if bytes[..8] != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    if bytes.len() < 20 {
        return Err(SnapshotError::Truncated);
    }
    let len = u64::from_le_bytes(bytes[12..20].try_into().unwrap()) as usize;
    let Some(total) = len.checked_add(28) else {
        return Err(corrupt("payload length overflows"));
    };
    if bytes.len() < total {
        return Err(SnapshotError::Truncated);
    }
    if bytes.len() > total {
        return Err(corrupt("trailing bytes after checksum"));
    }
    let payload = &bytes[20..20 + len];
    let declared = u64::from_le_bytes(bytes[20 + len..].try_into().unwrap());
    if fnv1a(payload) != declared {
        return Err(corrupt("checksum mismatch"));
    }
    Ok(payload)
}

/// Writes `db` and `cache` as one snapshot to `path` (temp file +
/// rename), fingerprinting the cache's own generation options. Returns the
/// file size in bytes and the memo plane's sharing counters.
pub fn write(
    path: &Path,
    db: &Database,
    cache: &DagCache,
) -> Result<(u64, ArenaStats), SnapshotError> {
    let mut body = Writer::new();
    let mut sym = SymEncoder::new();
    encode_database(db, &mut body, &mut sym);
    let stats = encode_cache(cache, &mut body, &mut sym);
    let mut payload = Writer::new();
    payload.u64(options_fingerprint(&cache.options().lu));
    sym.write_table(&mut payload);
    payload.raw(&body.into_bytes());
    let sealed = seal_snapshot(&payload.into_bytes());

    let Some(name) = path.file_name() else {
        let why = format!("invalid snapshot path {}", path.display());
        return Err(SnapshotError::Io(why));
    };
    let mut tmp = name.to_os_string();
    tmp.push(".tmp");
    let tmp = path.with_file_name(tmp);
    std::fs::write(&tmp, &sealed)
        .and_then(|()| std::fs::rename(&tmp, path))
        .map_err(|e| SnapshotError::Io(format!("writing {}: {e}", path.display())))?;
    Ok((sealed.len() as u64, stats))
}

/// Reads and fully validates a snapshot written by [`write()`], refusing
/// one taken under generation options other than `options`. The restored
/// cache serves `options`; the restored database draws fresh
/// process-local epochs and the cache binds to them. Returns the memo
/// plane's sharing counters too.
pub fn read(
    path: &Path,
    options: SynthesisOptions,
) -> Result<(Database, DagCache, ArenaStats), SnapshotError> {
    let bytes = std::fs::read(path)
        .map_err(|e| SnapshotError::Io(format!("reading {}: {e}", path.display())))?;
    let mut r = Reader::new(open_snapshot(&bytes)?);
    if r.u64()? != options_fingerprint(&options.lu) {
        return Err(SnapshotError::OptionsMismatch);
    }
    let sym = SymDecoder::read_table(&mut r)?;
    let db = decode_database(&mut r, &sym)?;
    let (cache, stats) = decode_cache(&mut r, &sym, db.epoch(), options)?;
    r.expect_end()?;
    Ok((db, cache, stats))
}

/// Writes the cache's learned state: the sources epochs, then the DAG,
/// example and chain memos, each structure written inline through one
/// [`TreeEncoder`] — so every `Arc` the memos share is written once and
/// back-referenced after. Example ids, stale flags and `next_example` are
/// written as-is, so a restored cache keeps every chain key meaningful.
/// Hit/miss counters, the database-epoch binding and the ranked memo are
/// not written: the first two are process-local (the restoring side binds
/// to its own restored database's epoch), and a restored cache re-ranks
/// each structure once, on its first `top()`.
///
/// Each memo is walked in an order the engine alone decides — sources
/// epochs by id, DAGs by `(epoch id, value string)`, examples by example
/// id, chains by key — never in hash order over process-global symbol
/// ids, so the bytes do not depend on what the process interned before.
fn encode_cache(cache: &DagCache, w: &mut Writer, sym: &mut SymEncoder) -> ArenaStats {
    let start = w.len();
    let state = cache.read();
    let mut tree = TreeEncoder::default();
    let mut epochs: Vec<_> = state.epochs.iter().collect();
    epochs.sort_unstable_by_key(|&(_, &id)| id);
    w.list(epochs, |w, (syms, &id)| {
        w.list(syms.iter(), |w, &s| sym.sym(s, w));
        w.u32(id);
    });
    w.u32(state.next_epoch);
    let mut dags: Vec<_> = state.dags.iter().collect();
    dags.sort_unstable_by_key(|&(&(epoch, value), _)| (epoch, value.as_str()));
    w.list(dags, |w, (&(epoch, value), dag)| {
        w.u32(epoch);
        sym.sym(value, w);
        tree.dag(dag, w, sym);
    });
    w.u32(state.next_example);
    let mut examples: Vec<_> = state.examples.iter().collect();
    examples.sort_unstable_by_key(|&(_, entry)| entry.id);
    w.list(examples, |w, (key, entry)| {
        w.list(key.inputs.iter(), |w, &s| sym.sym(s, w));
        sym.sym(key.output, w);
        w.u32(entry.id);
        w.bool(entry.stale);
        // The optional read set of earlier writers: always absent.
        w.bool(false);
        tree.structure(&entry.d, w, sym);
    });
    // A learn racing a re-mint can store a chain naming an id no entry
    // carries any more; it can never be served, so it is not written (the
    // decoder refuses such chains).
    let live: IntMap<u32, ()> = state.examples.values().map(|e| (e.id, ())).collect();
    let mut intersections: Vec<_> = state
        .intersections
        .iter()
        .filter(|(chain, _)| chain.iter().all(|id| live.contains_key(id)))
        .collect();
    intersections.sort_unstable_by_key(|&(chain, _)| chain);
    w.list(intersections, |w, (chain, d)| {
        w.list(chain.iter(), |w, &id| w.u32(id));
        tree.structure(d, w, sym);
    });
    ArenaStats {
        resident_bytes: (w.len() - start) as u64,
        ..tree.stats
    }
}

/// Reads a cache written by [`encode_cache`] through one [`TreeDecoder`],
/// so restored entries re-share `Arc` allocations exactly as the encoded
/// ones did. Every back-reference is bounds-checked, every node reference
/// is checked against the structure (or sources epoch) referencing it,
/// example ids are checked unique and below `next_example`, and every
/// chain must name restored examples only — a crafted payload fails
/// typed, never panics. The cache serves `options` and binds to
/// `db_epoch`, the restoring process's epoch for the restored database;
/// counters start at zero.
fn decode_cache(
    r: &mut Reader<'_>,
    sym: &SymDecoder,
    db_epoch: u64,
    options: SynthesisOptions,
) -> Result<(DagCache, ArenaStats), SnapshotError> {
    let start = r.remaining();
    let mut tree = TreeDecoder::default();
    let mut state = CacheState {
        db_epoch,
        ..CacheState::default()
    };
    let n = r.count()?;
    let mut epoch_lens: IntMap<u32, u32> = IntMap::default();
    for _ in 0..n {
        let syms = r.list(|r| sym.sym(r))?;
        let id = r.u32()?;
        if epoch_lens.insert(id, syms.len() as u32).is_some() {
            return Err(corrupt(format!("duplicate sources epoch {id}")));
        }
        if state.epochs.insert(syms.into(), id).is_some() {
            return Err(corrupt("duplicate sources-epoch symbol list"));
        }
    }
    state.next_epoch = r.u32()?;
    if state.epochs.values().any(|&id| id >= state.next_epoch) {
        return Err(corrupt("sources epoch beyond next_epoch"));
    }
    let n = r.count()?;
    for _ in 0..n {
        let epoch = r.u32()?;
        let value = sym.sym(r)?;
        let Some(&num_nodes) = epoch_lens.get(&epoch) else {
            return Err(corrupt(format!(
                "dag memo references unknown epoch {epoch}"
            )));
        };
        let (dag, needs) = tree.dag(r, sym)?;
        within(needs, num_nodes)?;
        if state.dags.insert((epoch, value), dag).is_some() {
            return Err(corrupt("duplicate dag-memo key"));
        }
    }
    state.next_example = r.u32()?;
    let n = r.count()?;
    let mut example_ids: IntMap<u32, ()> = IntMap::default();
    for _ in 0..n {
        let inputs = r.list(|r| sym.sym(r))?;
        let output = sym.sym(r)?;
        let id = r.u32()?;
        if id >= state.next_example {
            return Err(corrupt(format!("example id {id} beyond next_example")));
        }
        if example_ids.insert(id, ()).is_some() {
            return Err(corrupt(format!("duplicate example id {id}")));
        }
        let stale = r.bool()?;
        // A read set (tables, node values), written by earlier versions of
        // the format's writer: parsed and dropped.
        if r.bool()? {
            r.list(Reader::u32)?;
            r.list(|r| sym.sym(r))?;
        }
        let entry = ExampleEntry {
            id,
            d: tree.structure(r, sym)?,
            stale,
        };
        let key = ExampleKey {
            inputs: inputs.into(),
            output,
        };
        if state.examples.insert(key, entry).is_some() {
            return Err(corrupt("duplicate example-memo key"));
        }
    }
    let n = r.count()?;
    for _ in 0..n {
        let chain = r.list(|r| match r.u32()? {
            id if example_ids.contains_key(&id) => Ok(id),
            id => Err(corrupt(format!(
                "intersection chain names unknown example id {id}"
            ))),
        })?;
        if chain.len() < 2 {
            return Err(corrupt(format!(
                "intersection chain of length {}",
                chain.len()
            )));
        }
        let d = tree.structure(r, sym)?;
        if state.intersections.insert(chain.into(), d).is_some() {
            return Err(corrupt("duplicate intersection-memo key"));
        }
    }
    let stats = ArenaStats {
        resident_bytes: (start - r.remaining()) as u64,
        ..tree.stats
    };
    Ok((DagCache::from_state(options, state), stats))
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use sst_tables::Symbol;

    use super::*;
    use crate::cache::tests::{cache, dag, named_struct};

    #[test]
    fn frame_round_trips() {
        let sealed = seal_snapshot(b"hello payload");
        assert_eq!(open_snapshot(&sealed).unwrap(), b"hello payload");
    }

    #[test]
    fn frame_rejects_tampering_typed() {
        let sealed = seal_snapshot(b"hello payload");
        // Truncations at every boundary.
        for cut in [0, 4, 11, 19, sealed.len() - 1] {
            let err = open_snapshot(&sealed[..cut]).unwrap_err();
            assert!(
                matches!(err, SnapshotError::Truncated | SnapshotError::BadMagic),
                "cut at {cut}: {err}"
            );
        }
        // Bad magic.
        let mut bad = sealed.clone();
        bad[0] ^= 0xff;
        assert_eq!(open_snapshot(&bad).unwrap_err(), SnapshotError::BadMagic);
        // Future version.
        let mut future = sealed.clone();
        future[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert_eq!(
            open_snapshot(&future).unwrap_err(),
            SnapshotError::UnsupportedVersion(99)
        );
        // Payload bit flip fails the checksum.
        let mut flipped = sealed.clone();
        flipped[22] ^= 0x01;
        assert!(matches!(
            open_snapshot(&flipped).unwrap_err(),
            SnapshotError::Corrupt(_)
        ));
        // Trailing garbage.
        let mut long = sealed.clone();
        long.push(0);
        assert!(matches!(
            open_snapshot(&long).unwrap_err(),
            SnapshotError::Corrupt(_)
        ));
    }

    /// Memo-plane payload of `c` (symbol table first, as [`write()`] lays
    /// it out) and its sharing counters.
    fn encode_stats(c: &DagCache) -> (Vec<u8>, ArenaStats) {
        let mut body = Writer::new();
        let mut enc = SymEncoder::new();
        let stats = encode_cache(c, &mut body, &mut enc);
        let mut w = Writer::new();
        enc.write_table(&mut w);
        w.raw(&body.into_bytes());
        (w.into_bytes(), stats)
    }

    fn encode(c: &DagCache) -> Vec<u8> {
        encode_stats(c).0
    }

    fn decode_stats(bytes: &[u8]) -> Result<(DagCache, ArenaStats), SnapshotError> {
        let mut r = Reader::new(bytes);
        let dec = SymDecoder::read_table(&mut r)?;
        let decoded = decode_cache(&mut r, &dec, 77, SynthesisOptions::default())?;
        r.expect_end()?;
        Ok(decoded)
    }

    fn decode(bytes: &[u8]) -> Result<DagCache, SnapshotError> {
        decode_stats(bytes).map(|(c, _)| c)
    }

    #[test]
    fn sharing_counters_match_across_encode_and_decode() {
        let c = cache();
        let mut d = named_struct("dup");
        d.top = Some(Arc::new(dag(2)));
        c.store_example(0, &[Symbol::intern("a1")], Symbol::intern("b1"), &d);
        c.store_example(0, &[Symbol::intern("a2")], Symbol::intern("b2"), &d);
        let (bytes, stats) = encode_stats(&c);
        // The shared top DAG is written once, then back-referenced.
        assert_eq!((stats.stored, stats.interned), (1, 2));
        assert!(stats.resident_bytes > 0);
        let (restored, decoded) = decode_stats(&bytes).unwrap();
        assert_eq!(decoded, stats, "decode counts the same");
        let state = restored.read();
        let mut tops = state.examples.values().filter_map(|e| e.d.top.as_ref());
        assert!(Arc::ptr_eq(tops.next().unwrap(), tops.next().unwrap()));
        drop(state);
        assert_eq!(encode_stats(&restored).1, stats, "restore kept the sharing");
    }

    #[test]
    fn snapshot_round_trips_cache_state() {
        let c = cache();
        c.validate(5);
        let e = c.epoch_of(&[Symbol::intern("snap-src")]);
        let dag_val = Symbol::intern("snap-val");
        c.dag_for(e, dag_val, || dag(3));
        let da = named_struct("snap-a");
        let db = named_struct("snap-b");
        let ins = [Symbol::intern("snap-in")];
        let out = Symbol::intern("snap-out");
        let ua = c.store_example(5, &ins, out, &da).unwrap();
        let ub = c
            .store_example(5, &[Symbol::intern("snap-in2")], out, &db)
            .unwrap();
        let stale_key = [Symbol::intern("snap-stale")];
        c.store_example(5, &stale_key, out, &db);
        c.store_intersection(5, &[ua, ub], &da);
        // Stale entries travel with their flag.
        let key = ExampleKey {
            inputs: stale_key.into(),
            output: out,
        };
        c.write().examples.get_mut(&key).expect("stored").stale = true;

        let restored = decode(&encode(&c)).unwrap();
        assert_eq!(restored.db_epoch(), 77, "binds to the caller's epoch");
        assert_eq!(restored.example_entries(), 2, "stale entry not counted");
        assert_eq!(restored.intersection_entries(), 1);
        assert_eq!(restored.dag_entries(), 1);
        assert!(restored.example(77, &stale_key, out).is_none());
        // Warm probes hit and return the same ids.
        let (id, d) = restored.example(77, &ins, out).expect("warm example");
        assert_eq!(id, ua);
        assert_eq!(d.nodes[0].vals, da.nodes[0].vals);
        assert!(restored.intersection(77, &[ua, ub]).is_some());
        let hit = restored.dag_for(
            restored.epoch_of(&[Symbol::intern("snap-src")]),
            dag_val,
            || unreachable!("must be warm"),
        );
        assert_eq!(hit.num_nodes, 3);
        assert!(restored.stats().example_hits > 0);
        // The id counter travels too: the next example never reuses one.
        let next = restored
            .store_example(77, &[Symbol::intern("snap-in3")], out, &da)
            .unwrap();
        assert_eq!(next, c.read().next_example);
    }

    #[test]
    fn decode_rejects_out_of_range_ids() {
        let c = cache();
        let d = named_struct("oob");
        c.store_example(0, &[Symbol::intern("oi")], Symbol::intern("oo"), &d);
        let bytes = encode(&c);
        // Rather than byte-surgery, decode a truncated payload.
        let err = decode(&bytes[..bytes.len() - 4]).unwrap_err();
        assert!(
            matches!(err, SnapshotError::Truncated | SnapshotError::Corrupt(_)),
            "typed error, no panic: {err}"
        );
    }

    /// A cache payload written by hand: every field the decoder
    /// cross-checks, none of the encoder's invariants. Every value is below
    /// 128, so tag and flag bytes go through the varint `put` too.
    #[derive(Default)]
    struct Craft {
        body: Writer,
        sym: SymEncoder,
    }

    impl Craft {
        fn put(&mut self, vs: &[u32]) -> &mut Self {
            for &v in vs {
                self.body.u32(v);
            }
            self
        }

        fn sym(&mut self, s: &str) -> &mut Self {
            self.sym.sym(Symbol::intern(s), &mut self.body);
            self
        }

        fn finish(self) -> Vec<u8> {
            let mut w = Writer::new();
            self.sym.write_table(&mut w);
            w.raw(&self.body.into_bytes());
            w.into_bytes()
        }
    }

    /// Example entries with the given ids, `next_example`, and intersection
    /// chains, every structure a `named_struct`.
    fn crafted(ids: &[u32], next_example: u32, chains: &[&[u32]]) -> Vec<u8> {
        let mut c = Craft::default();
        let mut tree = TreeEncoder::default();
        let d = named_struct("crafted");
        // No sources epochs, next_epoch 0, no DAG memo.
        c.put(&[0, 0, 0, next_example, ids.len() as u32]);
        for (i, &id) in ids.iter().enumerate() {
            let input = format!("crafted-in{i}");
            // Fresh, no read set.
            c.put(&[1]).sym(&input).sym("crafted-out").put(&[id, 0, 0]);
            tree.structure(&d, &mut c.body, &mut c.sym);
        }
        c.put(&[chains.len() as u32]);
        for chain in chains {
            c.put(&[chain.len() as u32]).put(chain);
            tree.structure(&d, &mut c.body, &mut c.sym);
        }
        c.finish()
    }

    #[test]
    fn decode_rejects_inconsistent_example_ids() {
        let ok = decode(&crafted(&[0, 1], 2, &[&[0, 1], &[1, 0, 1]])).expect("valid frame");
        assert_eq!(ok.example_entries(), 2);
        assert_eq!(ok.intersection_entries(), 2);
        let cases: [(&str, Vec<u8>); 4] = [
            ("duplicate example id", crafted(&[0, 0], 2, &[])),
            ("example id beyond next_example", crafted(&[0, 2], 2, &[])),
            ("chain names an unknown id", crafted(&[0, 1], 3, &[&[0, 2]])),
            ("chain shorter than a fold", crafted(&[0, 1], 2, &[&[0]])),
        ];
        for (why, bytes) in cases {
            match decode(&bytes) {
                Err(SnapshotError::Corrupt(_)) => {}
                other => panic!("{why}: expected Corrupt, got {other:?}"),
            }
        }
    }

    /// A full-write marker, then a DAG over two nodes whose one edge
    /// `(0, 1)` holds one atom (which follows).
    const FULL_DAG: [u32; 8] = [0, 2, 0, 1, 1, 0, 1, 1];
    /// A one-node structure (value: symbol 0, program `Var(0)`); its top
    /// follows.
    const ONE_NODE: [u32; 6] = [1, 1, 0, 1, 0, 0];

    /// One sources epoch over `epoch_len` symbols, a DAG memo holding one
    /// `FULL_DAG` whose atom is `Whole(memo_node)`, then one example whose
    /// structure is the raw `structure` (symbol 0 is the epoch's first
    /// source).
    fn crafted_refs(epoch_len: u32, memo_node: u32, structure: &[u32]) -> Vec<u8> {
        let mut c = Craft::default();
        c.put(&[1, epoch_len]);
        for k in 0..epoch_len {
            c.sym(&format!("crafted-src{k}"));
        }
        // Epoch id 0, next_epoch 1, one DAG-memo entry under epoch 0.
        c.put(&[0, 1, 1, 0]).sym("crafted-value");
        c.put(&FULL_DAG).put(&[1, memo_node]);
        // next_example 1, one example: id 0, fresh, no read set.
        c.put(&[1, 1, 1]).sym("crafted-in").sym("crafted-out");
        c.put(&[0, 0, 0]).put(structure).put(&[0]);
        c.finish()
    }

    #[test]
    fn decode_checks_every_reference() {
        let shared_top = [&ONE_NODE[..], &[1, 1]].concat();
        let ok = decode(&crafted_refs(1, 0, &shared_top)).expect("valid frame");
        let state = ok.read();
        let memo = state.dags.values().next().expect("dag memo");
        let top = state.examples.values().next().unwrap().d.top.clone();
        assert!(Arc::ptr_eq(memo, &top.unwrap()), "back-reference shares");
        drop(state);

        let cases: [(&str, Vec<u8>); 5] = [
            (
                "dag-memo entry beyond its sources epoch",
                crafted_refs(1, 1, &[&ONE_NODE[..], &[0]].concat()),
            ),
            (
                "back-referenced dag beyond the structure's nodes",
                crafted_refs(3, 2, &shared_top),
            ),
            (
                "dag back-reference past the table",
                crafted_refs(1, 0, &[&ONE_NODE[..], &[1, 2]].concat()),
            ),
            (
                // A `SubStr` atom whose p1 back-references an empty table.
                "position-list back-reference past the table",
                crafted_refs(1, 0, &[&ONE_NODE[..], &[1], &FULL_DAG, &[2, 0, 1]].concat()),
            ),
            (
                // One node whose `Select` back-references an empty table.
                "condition-list back-reference past the table",
                crafted_refs(1, 0, &[1, 1, 0, 1, 1, 0, 0, 1, 0]),
            ),
        ];
        for (why, bytes) in cases {
            match decode(&bytes) {
                Err(SnapshotError::Corrupt(_)) => {}
                other => panic!("{why}: expected Corrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn encode_skips_chains_naming_dropped_ids() {
        let c = cache();
        let d = named_struct("orphan");
        let e = c.store_example(0, &[Symbol::intern("or")], Symbol::intern("oo"), &d);
        let e = e.unwrap();
        c.store_intersection(0, &[e, e], &d);
        // A chain a racing learn stored after its id was re-minted.
        c.store_intersection(0, &[e, e + 100], &d);
        let restored = decode(&encode(&c)).expect("live state always decodes");
        assert_eq!(restored.intersection_entries(), 1);
    }
}
