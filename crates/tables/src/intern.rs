//! Global string interner: the workspace's interned value plane.
//!
//! Every cell value, example string and reachability-frontier value is
//! interned once into a process-global table and represented thereafter by a
//! [`Symbol`] — a `u32` id. The synthesis hot path (`GenerateStr_t`'s
//! frontier probes, `ValueIndex` lookups, node-map keys, predicate
//! constants) then works entirely on symbols: equality is an integer
//! compare, hashing is one multiply, and no per-probe `String` is ever
//! allocated. Interned strings live for the process lifetime — the set is
//! bounded by the database contents plus the example strings, which is
//! exactly the working set the synthesizer touches anyway.
//!
//! # Sharding and the lock-free resolve path
//!
//! The interner is **sharded**: a string's bytes hash (FNV-1a, independent
//! of any map hasher) picks one of [`SHARDS`] shards, and a symbol id
//! encodes its shard in the low [`SHARD_BITS`] bits with the slab index
//! above them. Concurrent `intern`/`get` calls for different values
//! therefore take different locks with probability `1 - 1/SHARDS`, and
//! concurrent learns (engine pool workers, server connections) never
//! funnel through one global `RwLock` (the pre-shard design).
//!
//! Resolution ([`Symbol::as_str`]) takes **no lock at all**: each shard
//! stores its strings in an append-only slab of doubling buckets, each
//! bucket a set-once cell holding a boxed slice of set-once entry cells.
//! A writer (serialized by the shard's map lock) initializes the bucket on
//! first use and then sets the entry, so resolving is two `OnceLock::get`s
//! — acquire loads that observe a fully written `&'static str`. Entries
//! are never moved or freed.
//!
//! # Footprint
//!
//! Interned strings are never freed, so each costs as little as the
//! design allows: its bytes are copied into per-shard arena chunks (no
//! allocation per string), the shard map stores only the 4-byte symbol id
//! (hashed and compared as the string it names, through the slab), and
//! the slab holds one set-once `&'static str` cell (24 bytes) per string.
//!
//! `Symbol(0)` is always the empty string, so emptiness tests need no
//! resolution. Symbol ids are **not** ordered by interning time (the shard
//! lives in the low bits); `Ord` exists for use in ordered containers and
//! is stable within a process, nothing more — sort resolved strings when
//! presentation order matters.

use std::borrow::Borrow;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::{OnceLock, RwLock};

/// Number of low bits of a symbol id that name its shard.
const SHARD_BITS: u32 = 4;

/// Number of interner shards.
const SHARDS: usize = 1 << SHARD_BITS;

/// Buckets per shard slab: bucket `b` holds `BUCKET0 << b` entries, so 26
/// buckets cover far more strings than a `u32` id space can name.
const SLAB_BUCKETS: usize = 26;

/// Capacity of the first slab bucket.
const BUCKET0: u32 = 64;

/// Size of one string-arena chunk. Strings longer than a quarter chunk
/// get an allocation of their own, so a chunk wastes at most a quarter of
/// itself when the next string does not fit.
const CHUNK: usize = 4096;

/// An interned string: a `u32` id into the process-global sharded interner
/// (shard in the low bits, per-shard slab index above).
///
/// Equal symbols ⇔ equal strings. `Ord` is arbitrary but fixed within a
/// process (shard interleaving breaks interning order) — sort resolved
/// strings when presentation order matters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

/// A shard-map entry: the full symbol id of an interned string, hashed,
/// compared and borrowed as that string (resolved through the slab, which
/// holds it before the entry is inserted). Equal ids ⇔ equal strings, so
/// the `Borrow<str>` contract holds.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Key(u32);

impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        Symbol(self.0).as_str().hash(state);
    }
}

impl Borrow<str> for Key {
    fn borrow(&self) -> &str {
        Symbol(self.0).as_str()
    }
}

/// The insert side of a shard, under its lock.
#[derive(Default)]
struct ShardMap {
    /// Every interned string of the shard, by symbol id. Read-locked on
    /// probe, write-locked only on first-time inserts.
    keys: HashSet<Key>,
    /// The unused tail of the current arena chunk.
    free: &'static mut [u8],
    /// Number of slab entries set so far (the next slab index).
    len: u32,
}

impl ShardMap {
    /// A `'static` copy of `s`, carved from the arena chunk.
    fn store(&mut self, s: &str) -> &'static str {
        let len = s.len();
        if len > CHUNK / 4 {
            return Box::leak(s.into());
        }
        if self.free.len() < len {
            self.free = Box::leak(vec![0u8; CHUNK].into_boxed_slice());
        }
        let (bytes, rest) = std::mem::take(&mut self.free).split_at_mut(len);
        self.free = rest;
        bytes.copy_from_slice(s.as_bytes());
        std::str::from_utf8(bytes).expect("a copy of a str is UTF-8")
    }
}

/// Bucket `b` of a shard slab: `BUCKET0 << b` set-once entries.
type Bucket = Box<[OnceLock<&'static str>]>;

/// One interner shard: the insert-side map plus the lock-free resolve slab.
struct Shard {
    map: RwLock<ShardMap>,
    /// Append-only slab buckets, each set once on first use.
    buckets: [OnceLock<Bucket>; SLAB_BUCKETS],
}

impl Shard {
    fn empty() -> Shard {
        Shard {
            map: RwLock::new(ShardMap::default()),
            buckets: std::array::from_fn(|_| OnceLock::new()),
        }
    }

    /// Bucket index and in-bucket offset of slab index `i`.
    fn locate(i: u32) -> (usize, usize) {
        let b = (i / BUCKET0 + 1).ilog2() as usize;
        let start = BUCKET0 * ((1u32 << b) - 1);
        (b, (i - start) as usize)
    }

    /// Appends `s`, returning its slab index. `map` is the shard's map
    /// under its write lock (single writer per shard).
    fn push(&self, map: &mut ShardMap, s: &'static str) -> u32 {
        let i = map.len;
        let (b, off) = Shard::locate(i);
        let bucket =
            self.buckets[b].get_or_init(|| (0..BUCKET0 << b).map(|_| OnceLock::new()).collect());
        bucket[off]
            .set(s)
            .expect("a slab entry is set exactly once");
        map.len = i + 1;
        i
    }

    /// Resolves slab index `i`, lock-free.
    fn resolve(&self, i: u32) -> &'static str {
        let (b, off) = Shard::locate(i);
        self.buckets[b]
            .get()
            .and_then(|bucket| bucket[off].get())
            .unwrap_or_else(|| panic!("symbol index {i} was never interned"))
    }
}

fn shards() -> &'static [Shard; SHARDS] {
    static INTERNER: OnceLock<[Shard; SHARDS]> = OnceLock::new();
    INTERNER.get_or_init(|| {
        let shards: [Shard; SHARDS] = std::array::from_fn(|_| Shard::empty());
        // Pre-seed shard 0's slab so `Symbol(0)` resolves to "". The empty
        // string is special-cased before hashing in `intern`/`get`, so no
        // map entry is needed.
        let mut map = shards[0].map.write().expect("interner poisoned");
        shards[0].push(&mut map, "");
        drop(map);
        shards
    })
}

/// FNV-1a over the string bytes: the shard selector. Deliberately distinct
/// from the map hasher so a pathological value set cannot align shard and
/// bucket collisions.
fn shard_of(s: &str) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    // Fold the high half in: FNV's low bits are weak for short keys.
    ((h ^ (h >> 32)) as usize) & (SHARDS - 1)
}

impl Symbol {
    /// The interned empty string.
    pub const EMPTY: Symbol = Symbol(0);

    /// Interns `s`, returning its symbol (idempotent).
    pub fn intern(s: &str) -> Symbol {
        if s.is_empty() {
            return Symbol::EMPTY;
        }
        let shard_idx = shard_of(s);
        let shard = &shards()[shard_idx];
        {
            let map = shard.map.read().expect("interner poisoned");
            if let Some(&Key(id)) = map.keys.get(s) {
                return Symbol(id);
            }
        }
        let mut map = shard.map.write().expect("interner poisoned");
        if let Some(&Key(id)) = map.keys.get(s) {
            return Symbol(id); // raced: someone interned between locks
        }
        let stored = map.store(s);
        let slab_idx = shard.push(&mut map, stored);
        let id = (slab_idx << SHARD_BITS) | shard_idx as u32;
        // After the push: the key resolves through the slab to hash.
        map.keys.insert(Key(id));
        Symbol(id)
    }

    /// Looks `s` up without interning; `None` when never interned. Use for
    /// probe values that should not grow the intern table. Takes only the
    /// owning shard's read lock.
    pub fn get(s: &str) -> Option<Symbol> {
        if s.is_empty() {
            return Some(Symbol::EMPTY);
        }
        shards()[shard_of(s)]
            .map
            .read()
            .expect("interner poisoned")
            .keys
            .get(s)
            .map(|&Key(id)| Symbol(id))
    }

    /// The interned string. Lock-free: one `OnceLock::get` for the slab
    /// bucket, one for the entry.
    pub fn as_str(self) -> &'static str {
        shards()[(self.0 as usize) & (SHARDS - 1)].resolve(self.0 >> SHARD_BITS)
    }

    /// The raw id.
    pub fn id(self) -> u32 {
        self.0
    }

    /// True iff this is the empty string (no resolution needed).
    pub fn is_empty(self) -> bool {
        self == Symbol::EMPTY
    }
}

impl std::fmt::Display for Symbol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::intern(s)
    }
}

impl From<String> for Symbol {
    fn from(s: String) -> Symbol {
        Symbol::intern(&s)
    }
}

/// Multiply-xor hasher for small integer keys ([`Symbol`], node-id pairs).
/// One multiply per word beats SipHash on the synthesis hot path; symbols
/// are attacker-free internal ids, so DoS hardening is not needed.
#[derive(Debug, Default, Clone, Copy)]
pub struct IntHasher(u64);

const SEED: u64 = 0x9E37_79B9_7F4A_7C15;

impl Hasher for IntHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Fallback for non-integer fields; rarely used on the hot path.
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(SEED).rotate_left(23);
        }
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }

    fn write_u64(&mut self, v: u64) {
        let x = (self.0.rotate_left(29) ^ v).wrapping_mul(SEED);
        self.0 = x ^ (x >> 32);
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

/// `HashMap` keyed by integer-like keys via [`IntHasher`].
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// `HashMap` from [`Symbol`]s, the common case.
pub type SymbolMap<V> = IntMap<Symbol, V>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent_and_equal_by_content() {
        let a = Symbol::intern("hello");
        let b = Symbol::intern("hello");
        let c = Symbol::intern("world");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.as_str(), "hello");
        assert_eq!(c.as_str(), "world");
    }

    #[test]
    fn strings_round_trip_across_arena_chunks() {
        // Short strings share chunks; one longer than a quarter chunk gets
        // its own allocation.
        let long = "λ".repeat(CHUNK);
        let values: Vec<String> = (0..2 * CHUNK)
            .map(|i| format!("chunked-{i}"))
            .chain([long.clone()])
            .collect();
        let symbols: Vec<Symbol> = values.iter().map(|v| Symbol::intern(v)).collect();
        for (v, s) in values.iter().zip(&symbols) {
            assert_eq!(s.as_str(), v);
            assert_eq!(Symbol::get(v), Some(*s));
        }
        assert_eq!(Symbol::intern(&long), symbols[2 * CHUNK]);
    }

    #[test]
    fn empty_symbol_is_reserved() {
        assert_eq!(Symbol::intern(""), Symbol::EMPTY);
        assert!(Symbol::EMPTY.is_empty());
        assert!(!Symbol::intern("x").is_empty());
        assert_eq!(Symbol::EMPTY.as_str(), "");
        assert_eq!(Symbol::get(""), Some(Symbol::EMPTY));
    }

    #[test]
    fn get_does_not_intern() {
        assert_eq!(Symbol::get("never-interned-probe-q7x"), None);
        let s = Symbol::intern("interned-once-q7x");
        assert_eq!(Symbol::get("interned-once-q7x"), Some(s));
    }

    #[test]
    fn display_and_conversions() {
        let s: Symbol = "conv".into();
        assert_eq!(s.to_string(), "conv");
        let t: Symbol = String::from("conv").into();
        assert_eq!(s, t);
    }

    #[test]
    fn symbol_map_round_trips() {
        let mut m: SymbolMap<u32> = SymbolMap::default();
        for i in 0..100u32 {
            m.insert(Symbol::intern(&format!("k{i}")), i);
        }
        for i in 0..100u32 {
            assert_eq!(m.get(&Symbol::intern(&format!("k{i}"))), Some(&i));
        }
    }

    #[test]
    fn slab_locate_covers_bucket_boundaries() {
        assert_eq!(Shard::locate(0), (0, 0));
        assert_eq!(Shard::locate(BUCKET0 - 1), (0, (BUCKET0 - 1) as usize));
        assert_eq!(Shard::locate(BUCKET0), (1, 0));
        assert_eq!(
            Shard::locate(3 * BUCKET0 - 1),
            (1, (2 * BUCKET0 - 1) as usize)
        );
        assert_eq!(Shard::locate(3 * BUCKET0), (2, 0));
    }

    #[test]
    fn deep_slab_growth_round_trips() {
        // Cross several bucket boundaries in one shard-agnostic sweep.
        let symbols: Vec<Symbol> = (0..3000)
            .map(|i| Symbol::intern(&format!("growth-{i}")))
            .collect();
        for (i, s) in symbols.iter().enumerate() {
            assert_eq!(s.as_str(), format!("growth-{i}"));
        }
        // Distinct strings, distinct symbols — across shard boundaries too.
        let mut ids: Vec<u32> = symbols.iter().map(|s| s.id()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), symbols.len());
    }

    #[test]
    fn concurrent_interning_agrees() {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                std::thread::spawn(|| {
                    (0..200)
                        .map(|i| Symbol::intern(&format!("t{i}")))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let results: Vec<Vec<Symbol>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for w in results.windows(2) {
            assert_eq!(w[0], w[1]);
        }
    }

    #[test]
    fn concurrent_intern_and_resolve() {
        // Writers keep interning fresh values while readers resolve
        // already-published ones: the lock-free resolve path must always
        // observe fully written entries.
        let seed: Vec<Symbol> = (0..256)
            .map(|i| Symbol::intern(&format!("seeded-{i}")))
            .collect();
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let seed = seed.clone();
                std::thread::spawn(move || {
                    for i in 0..500 {
                        let s = Symbol::intern(&format!("mixed-{t}-{i}"));
                        assert_eq!(s.as_str(), format!("mixed-{t}-{i}"));
                        let probe = &seed[(i * 7 + t) % seed.len()];
                        assert_eq!(
                            probe.as_str(),
                            format!("seeded-{}", (i * 7 + t) % seed.len())
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }
}
