//! The memoized DAG plane: a per-synthesizer cache that removes the
//! dominant repeated work in `GenerateStr_u` (§5.3) and, since the
//! parallel-intersection PR, in `Intersect_u`'s §3.2 replays too.
//!
//! Profiling after the substring-index PR showed DAG *construction* — the
//! top-level output DAG plus a fresh nested predicate DAG per candidate-key
//! cell — dwarfing everything else in semantic-task learning: the §3.2
//! interaction loop re-learns on a growing example prefix, so the same
//! example is re-generated once per step, and within one generation the
//! same key value is re-derived for every row that carries it. After the
//! DAG plane landed, the warm path became almost pure `Intersect_u` — and
//! the same §3.2 loop re-intersects the same example *pairs* step after
//! step.
//!
//! [`DagCache`] memoizes at three granularities, each keyed so a hit is
//! *provably* bit-identical to a recomputation:
//!
//! * **Per-value DAGs** — `generate_dag_prepared` results keyed by
//!   `(sources_epoch, value)`. A *sources epoch* is the interned identity
//!   of the full σ ∪ η̃ snapshot (the ordered list of source symbols): the
//!   DAG of a value is a pure function of that list, so equal epochs imply
//!   equal DAGs, and the cached [`Arc`] handle is shared structurally —
//!   repeated key values reference one allocation, which the intersection
//!   layer's pointer-keyed memos then exploit.
//! * **Per-example structures** — whole `GenerateStr_u` results keyed by
//!   the example's interned input/output symbols. `Synthesize` on a grown
//!   example prefix replays generation for every earlier example; the memo
//!   serves a cheap clone (`Arc`-shared DAGs, shallow condition handles)
//!   instead. Each entry carries a dense *example id* minted from a
//!   monotone counter: the id names exactly one structure value, forever —
//!   it is never reused, and never rebound to a different value.
//! * **Intersection chains** — whole `Intersect_u` results keyed by the
//!   chain of example ids they fold: `[e₁, e₂]` names `G(e₁) ∩ G(e₂)`,
//!   `[e₁, e₂, e₃]` names `(G(e₁) ∩ G(e₂)) ∩ G(e₃)`. Because each id names
//!   one value and intersection is a pure structural function of its
//!   operands, a chain names one value too — a re-learn on a grown prefix
//!   replays `d₁ ∩ d₂ ∩ … ∩ dₖ` as k−1 memo hits and only intersects the
//!   genuinely new final example.
//!
//! # Concurrency
//!
//! The cache is **interior-mutable and shareable**: state sits behind one
//! [`RwLock`], counters are atomics, and every read path (probes, epoch
//! checks) takes only the read lock — concurrent learns over synthesizer
//! clones no longer serialize on a `Mutex` the way the pre-parallel design
//! did. Misses compute *outside* any lock and insert under a brief write
//! lock with a double-check, keeping the first-inserted value canonical so
//! racing writers converge on one shared allocation.
//!
//! # Validation: stale entries, compare on regenerate
//!
//! Only the example memo is scoped to one database state. Per-value DAGs
//! are pure functions of the ordered source-symbol list behind their
//! `SourcesEpoch` key, and intersection entries are pure structural
//! functions of the id-named operand *values* — neither reads the
//! database, so both survive every mutation. The cache records the
//! [`Database::epoch`] it was filled under; [`DagCache::validate`] marks
//! every example entry *stale* when the epoch moved, and the delta-aware
//! [`DagCache::validate_db`] does better: it asks the database for the
//! [`DbDelta`](sst_tables::DbDelta) spanning the move and keeps every
//! example entry whose recorded reads (the tables its `Select`s touch, the
//! node values that drove its reachability) provably don't intersect the
//! delta fresh — so a row-level write into one background table leaves
//! entries keyed to other tables warm. Structural mutations (a table added
//! changes the default depth bound) and entries generated without the
//! substring gate (whose activations aren't summarized by node values)
//! fall back to marking everything stale.
//!
//! A stale entry probes as a miss, so the example is regenerated; the
//! regenerated structure is then *compared* with the stale value. Equal
//! (the common case: an insert-then-delete, or a write that happened not
//! to change this example's programs) keeps the old id, so every chain
//! keyed on it stays warm — and the comparison is cheap, since
//! `Arc<T: Eq>` equality checks pointers first and the per-value DAGs the
//! structure references survive mutations. Different mints a fresh id and
//! drops every chain naming the old one (they could never be served
//! again).
//!
//! # Memory
//!
//! Each memo flushes wholesale when it outgrows its threshold
//! ([`MAX_DAG_ENTRIES`], [`MAX_EXAMPLE_ENTRIES`] — stale entries included,
//! and taking the chains with it — and [`MAX_INTERSECTION_ENTRIES`]):
//! correctness never depends on an entry being present, so eviction is
//! just a refill cost on workloads large enough to hit it.
//!
//! # Snapshots
//!
//! The hash-consed [`Arena`] is the *snapshot format*, not a live mirror:
//! [`DagCache::encode_snapshot`] interns the live DAG, example and chain
//! entries into a fresh arena and writes it (equal sub-structures are
//! stored once on disk), and [`DagCache::decode_snapshot`] extracts the
//! tree forms back out of the restored one. Learning never touches an
//! arena.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};

use std::sync::Arc;

use sst_arena::{
    Arena, ArenaStats, DagId, Reader, SnapshotError, StructId, SymDecoder, SymEncoder, Writer,
};
use sst_lookup::NodeId;
use sst_syntactic::Dag;
use sst_tables::{Database, IntMap, Symbol, TableId};

use crate::arena_plane::{extract_struct, intern_struct, ExtractCtx};
use crate::dstruct::SemDStruct;

/// Identity of one σ ∪ η̃ snapshot: equal epochs ⇔ equal ordered source
/// symbol lists (within one database state). Allocated densely by
/// [`DagCache::epoch_of`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SourcesEpoch(u32);

/// Key of one memoized `GenerateStr_u` call: the example's interned
/// inputs and output.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ExampleKey {
    inputs: Box<[Symbol]>,
    output: Symbol,
}

/// What one cached example structure *read* from the database, recorded at
/// store time so [`DagCache::validate_db`] can prove a mutation span left
/// the entry intact: the tables its `Select` programs touch, and every
/// node value — the frontier strings whose substring relations drove
/// reachability. A mutation that neither writes a read table nor touches a
/// value substring-related to a node value cannot change the generation
/// result (see `DbDelta::affects`).
#[derive(Debug, Clone)]
pub(crate) struct ExampleDeps {
    /// Tables read by `Select` programs, sorted and deduplicated.
    pub(crate) tables: Box<[TableId]>,
    /// All node values (σ ∪ η̃), sorted and deduplicated.
    pub(crate) vals: Box<[Symbol]>,
}

/// One example-memo entry: the structure, its example id, and (when the
/// generation ran with the substring gate on) the reads that make it
/// revalidatable across non-structural mutations.
#[derive(Debug, Clone)]
struct ExampleEntry {
    /// Names `d` in intersection chains. Minted from
    /// `CacheState::next_example`; never reused or rebound.
    id: u32,
    d: SemDStruct,
    /// `None` = not revalidatable (gate-off generation): marked stale on
    /// any epoch move.
    deps: Option<ExampleDeps>,
    /// A mutation may have changed this example's generation: the entry
    /// probes as a miss, and `d` is kept only to compare the regenerated
    /// structure against (see the module docs).
    stale: bool,
}

/// Cache hit/miss counters, exposed for benches and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DagCacheStats {
    /// Per-value DAG hits.
    pub dag_hits: u64,
    /// Per-value DAG misses (builds).
    pub dag_misses: u64,
    /// Whole-example hits.
    pub example_hits: u64,
    /// Whole-example misses (full generations).
    pub example_misses: u64,
    /// Intersection-chain hits.
    pub intersect_hits: u64,
    /// Intersection-chain misses (full `Intersect_u` runs through the
    /// memoized path).
    pub intersect_misses: u64,
}

/// Flush threshold for the per-value DAG memo (and its epoch interner):
/// a learning session over the whole benchmark suite stays in the low
/// thousands, so the bound only triggers for long-lived synthesizers
/// serving many distinct workloads — where dropping and refilling is
/// cheaper than growing without limit.
const MAX_DAG_ENTRIES: usize = 1 << 16;

/// Flush threshold for the whole-example memo. Example structures are the
/// heavyweight entries (a full `SemDStruct` clone each); one §3.2 session
/// needs a handful.
const MAX_EXAMPLE_ENTRIES: usize = 1 << 12;

/// Flush threshold for the intersection-chain memo; sized like the
/// example memo (its entries are the same shape).
const MAX_INTERSECTION_ENTRIES: usize = 1 << 12;

/// The lock-guarded cache state (see [`DagCache`]).
#[derive(Debug, Default)]
struct CacheState {
    /// The [`Database::epoch`] the entries were computed under.
    db_epoch: u64,
    /// Source-list interning: ordered symbol list → epoch id.
    epochs: IntMap<Box<[Symbol]>, u32>,
    /// Next epoch id. Monotone for the cache's lifetime — never reset by
    /// flushes or validation — so an id held across a flush (a generation
    /// session keeps its `SourcesEpoch` for the step) can never collide
    /// with a later snapshot's id and serve a stale DAG.
    next_epoch: u32,
    /// `(sources epoch, value) → DAG of all expressions producing the
    /// value over that snapshot`; hits share the `Arc`.
    dags: IntMap<(u32, Symbol), Arc<Dag<NodeId>>>,
    /// Whole-example generation memo.
    examples: IntMap<ExampleKey, ExampleEntry>,
    /// Next example id. Monotone for the cache's lifetime — never reset
    /// by flushes — so an id names one value forever.
    next_example: u32,
    /// Intersection memo: example-id chain → the folded intersection.
    intersections: IntMap<Box<[u32]>, SemDStruct>,
}

/// Lock-free hit/miss counters.
#[derive(Debug, Default)]
struct AtomicStats {
    dag_hits: AtomicU64,
    dag_misses: AtomicU64,
    example_hits: AtomicU64,
    example_misses: AtomicU64,
    intersect_hits: AtomicU64,
    intersect_misses: AtomicU64,
}

/// The memoized DAG plane (see the module docs). One cache serves one
/// synthesizer configuration: entries are only sound across calls that
/// share the database state *and* the generation options, which
/// [`crate::Synthesizer`] guarantees by construction. Direct users of
/// [`crate::generate_str_u_cached`] must not share a cache across differing
/// [`crate::LuOptions`].
///
/// Memory is bounded: each memo flushes wholesale when it outgrows its
/// threshold ([`MAX_DAG_ENTRIES`], [`MAX_EXAMPLE_ENTRIES`],
/// [`MAX_INTERSECTION_ENTRIES`]).
#[derive(Debug, Default)]
pub struct DagCache {
    state: RwLock<CacheState>,
    stats: AtomicStats,
    /// Counters of the arena built by the last snapshot encode or decode.
    arena_stats: Mutex<ArenaStats>,
}

impl DagCache {
    /// An empty cache (binds to a database epoch on first
    /// [`DagCache::validate`]).
    pub fn new() -> Self {
        DagCache::default()
    }

    /// Recovers the state lock if a holder panicked: every entry is a
    /// completed value (writes happen-before unlock), so a poisoned lock
    /// only means some fill was abandoned — at worst it is recomputed.
    fn read(&self) -> RwLockReadGuard<'_, CacheState> {
        self.state
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn write(&self) -> RwLockWriteGuard<'_, CacheState> {
        self.state
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Rebinds the cache to `db_epoch`, marking every example entry stale
    /// when the database mutated since the cache was filled. The per-value
    /// DAG and intersection memos survive: they are pure functions of
    /// their keys (source-symbol snapshots and example-id chains) and
    /// never read the database. The common case — the epoch did not move
    /// — is a read-lock check, so concurrent learns validating the same
    /// state never contend. Prefer [`DagCache::validate_db`], which keeps
    /// fresh the example entries a known mutation span provably left
    /// intact.
    pub fn validate(&self, db_epoch: u64) {
        if self.read().db_epoch == db_epoch {
            return;
        }
        let mut state = self.write();
        if state.db_epoch != db_epoch {
            for e in state.examples.values_mut() {
                e.stale = true;
            }
            state.db_epoch = db_epoch;
        }
    }

    /// Delta-aware [`DagCache::validate`]: when the epoch moved, asks the
    /// database for the [`DbDelta`](sst_tables::DbDelta) spanning the move
    /// and marks stale only the example entries the delta may have
    /// affected (a read table mutated, or a touched value
    /// substring-related to a node value). Marks every entry stale when
    /// the span is structural, has left the journal, or belongs to a
    /// diverged database lineage.
    pub fn validate_db(&self, db: &Database) {
        let db_epoch = db.epoch();
        if self.read().db_epoch == db_epoch {
            return;
        }
        let mut state = self.write();
        if state.db_epoch == db_epoch {
            return;
        }
        let delta = db
            .delta_since(state.db_epoch)
            .filter(|delta| !delta.structural);
        for e in state.examples.values_mut() {
            let intact = match (&delta, &e.deps) {
                (Some(delta), Some(deps)) => !delta.affects(&deps.tables, &deps.vals),
                _ => false,
            };
            e.stale |= !intact;
        }
        state.db_epoch = db_epoch;
    }

    /// The database epoch the entries are valid for.
    pub fn db_epoch(&self) -> u64 {
        self.read().db_epoch
    }

    /// Hit/miss counters.
    pub fn stats(&self) -> DagCacheStats {
        DagCacheStats {
            dag_hits: self.stats.dag_hits.load(Ordering::Relaxed),
            dag_misses: self.stats.dag_misses.load(Ordering::Relaxed),
            example_hits: self.stats.example_hits.load(Ordering::Relaxed),
            example_misses: self.stats.example_misses.load(Ordering::Relaxed),
            intersect_hits: self.stats.intersect_hits.load(Ordering::Relaxed),
            intersect_misses: self.stats.intersect_misses.load(Ordering::Relaxed),
        }
    }

    /// Number of cached per-value DAGs.
    pub fn dag_entries(&self) -> usize {
        self.read().dags.len()
    }

    /// Number of whole-example structures that would be served (stale
    /// entries, kept only for compare-on-regenerate, are not counted).
    pub fn example_entries(&self) -> usize {
        self.read().examples.values().filter(|e| !e.stale).count()
    }

    /// Number of cached intersection chains.
    pub fn intersection_entries(&self) -> usize {
        self.read().intersections.len()
    }

    /// Interns the identity of one σ ∪ η̃ snapshot (the ordered source
    /// symbol list) into an epoch id.
    pub fn epoch_of(&self, symbols: &[Symbol]) -> SourcesEpoch {
        if let Some(&id) = self.read().epochs.get(symbols) {
            return SourcesEpoch(id);
        }
        let mut state = self.write();
        if let Some(&id) = state.epochs.get(symbols) {
            return SourcesEpoch(id);
        }
        let id = state.next_epoch;
        state.next_epoch += 1;
        state.epochs.insert(symbols.into(), id);
        SourcesEpoch(id)
    }

    /// The DAG of all syntactic expressions producing `value` over the
    /// snapshot `epoch`, built by `build` on a miss. The returned handle is
    /// shared: every hit aliases one allocation, and racing builders for
    /// one key converge on whichever insert landed first (`build` runs
    /// outside any lock).
    pub fn dag_for(
        &self,
        epoch: SourcesEpoch,
        value: Symbol,
        build: impl FnOnce() -> Dag<NodeId>,
    ) -> Arc<Dag<NodeId>> {
        if let Some(dag) = self.read().dags.get(&(epoch.0, value)) {
            self.stats.dag_hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(dag);
        }
        self.stats.dag_misses.fetch_add(1, Ordering::Relaxed);
        let dag = Arc::new(build());
        let mut state = self.write();
        if let Some(hit) = state.dags.get(&(epoch.0, value)) {
            return Arc::clone(hit); // raced: keep the first insert canonical
        }
        if state.dags.len() >= MAX_DAG_ENTRIES {
            // Epochs key into `dags`, so both flush together; the next
            // sync re-interns the live snapshot.
            state.dags.clear();
            state.epochs.clear();
        }
        state.dags.insert((epoch.0, value), Arc::clone(&dag));
        dag
    }

    /// A previously generated per-example structure and its example id,
    /// if a fresh (non-stale) entry exists.
    ///
    /// `db_epoch` is the database epoch the caller validated against;
    /// probes and stores are epoch-checked under the lock, so a cache
    /// (mis)shared by sessions over *different* databases can never serve
    /// one session an entry another session's database produced — their
    /// traffic simply always misses. (Example keys carry no epoch, unlike
    /// per-value DAG keys, so the check cannot be skipped here.)
    pub(crate) fn example(
        &self,
        db_epoch: u64,
        inputs: &[Symbol],
        output: Symbol,
    ) -> Option<(u32, SemDStruct)> {
        let key = ExampleKey {
            inputs: inputs.into(),
            output,
        };
        let state = self.read();
        match state.examples.get(&key) {
            Some(e) if !e.stale && state.db_epoch == db_epoch => {
                self.stats.example_hits.fetch_add(1, Ordering::Relaxed);
                Some((e.id, e.d.clone()))
            }
            _ => {
                self.stats.example_misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores a freshly generated per-example structure, returning the
    /// example id that names it. `deps` records what the generation read
    /// (for selective retention by [`DagCache::validate_db`]); `None` marks
    /// the entry non-revalidatable.
    ///
    /// A fresh entry under the same key wins a race (generation is
    /// deterministic, so both values are equal). A stale entry is compared
    /// with `d`: equal keeps its id, so chains over it stay warm; different
    /// mints a fresh id and drops the chains naming the old one. If the
    /// cache was concurrently rebound to a different database epoch, the
    /// structure is *not* memoized — it would poison the new epoch's
    /// entries — and no id is returned, so the caller's chain goes
    /// unmemoized too.
    pub(crate) fn store_example(
        &self,
        db_epoch: u64,
        inputs: &[Symbol],
        output: Symbol,
        d: &SemDStruct,
        deps: Option<ExampleDeps>,
    ) -> Option<u32> {
        let key = ExampleKey {
            inputs: inputs.into(),
            output,
        };
        let mut guard = self.write();
        let state = &mut *guard;
        if state.db_epoch != db_epoch {
            return None;
        }
        if let Some(e) = state.examples.get_mut(&key) {
            if !e.stale {
                return Some(e.id);
            }
            e.stale = false;
            e.deps = deps;
            if e.d != *d {
                let old = e.id;
                e.id = state.next_example;
                e.d = d.clone();
                state.next_example += 1;
                state.intersections.retain(|chain, _| !chain.contains(&old));
            }
            return Some(e.id);
        }
        if state.examples.len() >= MAX_EXAMPLE_ENTRIES {
            // Every chain names a dropped id: flush both.
            state.examples.clear();
            state.intersections.clear();
        }
        let id = state.next_example;
        state.next_example += 1;
        state.examples.insert(
            key,
            ExampleEntry {
                id,
                d: d.clone(),
                deps,
                stale: false,
            },
        );
        Some(id)
    }

    /// A previously intersected chain of examples (by example ids, in
    /// fold order), if cached. Epoch-checked like [`DagCache::example`].
    pub(crate) fn intersection(&self, db_epoch: u64, chain: &[u32]) -> Option<SemDStruct> {
        let state = self.read();
        match state.intersections.get(chain) {
            Some(d) if state.db_epoch == db_epoch => {
                self.stats.intersect_hits.fetch_add(1, Ordering::Relaxed);
                Some(d.clone())
            }
            _ => {
                self.stats.intersect_misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores one intersection result under its example-id chain (first
    /// insert wins on a race — both values are equal, since the chain
    /// names its operand values; a stale epoch skips the insert, like
    /// [`DagCache::store_example`]).
    pub(crate) fn store_intersection(&self, db_epoch: u64, chain: &[u32], d: &SemDStruct) {
        let mut state = self.write();
        if state.db_epoch != db_epoch || state.intersections.contains_key(chain) {
            return;
        }
        if state.intersections.len() >= MAX_INTERSECTION_ENTRIES {
            state.intersections.clear();
        }
        state.intersections.insert(chain.into(), d.clone());
    }

    /// Hash-cons counters (distinct values, intern traffic,
    /// resident-bytes estimate) of the arena built by the last
    /// [`DagCache::encode_snapshot`] or [`DagCache::decode_snapshot`];
    /// zeros before either. Learning never interns.
    pub fn arena_stats(&self) -> ArenaStats {
        *self
            .arena_stats
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Writes the cache's learned state into a snapshot payload: every
    /// live DAG, example and chain entry is interned into a fresh
    /// hash-consed [`Arena`] (equal sub-structures are written once), then
    /// the arena and the three memos, entries as arena ids, follow.
    /// Example ids, stale flags and `next_example` are written as-is, so a
    /// restored cache keeps every chain key meaningful. Hit/miss counters
    /// and the database-epoch binding are deliberately not serialized:
    /// both are process-local (the restoring side binds to its own
    /// restored database's epoch).
    pub fn encode_snapshot(&self, w: &mut Writer, sym: &mut SymEncoder) {
        let state = self.read();
        let mut arena = Arena::new();
        let dags: Vec<_> = state
            .dags
            .iter()
            .map(|(&key, dag)| (key, arena.intern_dag(dag)))
            .collect();
        let examples: Vec<_> = state
            .examples
            .iter()
            .map(|(key, e)| (key, e, intern_struct(&mut arena, &e.d)))
            .collect();
        // A learn racing a re-mint can store a chain naming an id no
        // entry carries any more; it can never be served, so it is not
        // written (the decoder refuses such chains).
        let live: IntMap<u32, ()> = state.examples.values().map(|e| (e.id, ())).collect();
        let intersections: Vec<_> = state
            .intersections
            .iter()
            .filter(|(chain, _)| chain.iter().all(|id| live.contains_key(id)))
            .map(|(chain, d)| (chain, intern_struct(&mut arena, d)))
            .collect();
        arena.encode(w, sym);
        w.u32(state.epochs.len() as u32);
        for (syms, &id) in state.epochs.iter() {
            w.u32(syms.len() as u32);
            for &s in syms.iter() {
                sym.sym(s, w);
            }
            w.u32(id);
        }
        w.u32(state.next_epoch);
        w.u32(dags.len() as u32);
        for ((epoch, value), id) in dags {
            w.u32(epoch);
            sym.sym(value, w);
            w.u32(id.0);
        }
        w.u32(state.next_example);
        w.u32(examples.len() as u32);
        for (key, entry, sid) in examples {
            w.u32(key.inputs.len() as u32);
            for &s in key.inputs.iter() {
                sym.sym(s, w);
            }
            sym.sym(key.output, w);
            w.u32(entry.id);
            w.bool(entry.stale);
            w.u32(sid.0);
            match &entry.deps {
                None => w.bool(false),
                Some(deps) => {
                    w.bool(true);
                    w.u32(deps.tables.len() as u32);
                    for &t in deps.tables.iter() {
                        w.u32(t);
                    }
                    w.u32(deps.vals.len() as u32);
                    for &v in deps.vals.iter() {
                        sym.sym(v, w);
                    }
                }
            }
        }
        w.u32(intersections.len() as u32);
        for (chain, sid) in intersections {
            w.u32(chain.len() as u32);
            for &id in chain.iter() {
                w.u32(id);
            }
            w.u32(sid.0);
        }
        drop(state);
        *self
            .arena_stats
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = arena.stats();
    }

    /// Reads a cache written by [`DagCache::encode_snapshot`], extracting
    /// every memoized structure back out of the restored arena (one shared
    /// [`ExtractCtx`], so restored entries re-share `Arc` allocations like
    /// a live fill would). Every id is bounds- and structure-validated,
    /// example ids are checked unique and below `next_example`, and every
    /// chain must name restored examples only — a crafted payload fails
    /// typed, never panics. The cache binds to `db_epoch`, the restoring
    /// process's epoch for the restored database; counters start at zero.
    pub fn decode_snapshot(
        r: &mut Reader<'_>,
        sym: &SymDecoder,
        db_epoch: u64,
    ) -> Result<DagCache, SnapshotError> {
        fn corrupt(why: impl Into<String>) -> SnapshotError {
            SnapshotError::Corrupt(why.into())
        }
        let arena = Arena::decode(r, sym)?;
        let mut state = CacheState {
            db_epoch,
            ..CacheState::default()
        };
        let n = r.count()?;
        let mut epoch_lens: IntMap<u32, u32> = IntMap::default();
        for _ in 0..n {
            let len = r.count()?;
            let mut syms = Vec::with_capacity(len);
            for _ in 0..len {
                syms.push(sym.sym(r)?);
            }
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
        let mut ctx = ExtractCtx::new();
        for _ in 0..n {
            let epoch = r.u32()?;
            let value = sym.sym(r)?;
            let id = DagId(r.u32()?);
            let Some(&num_nodes) = epoch_lens.get(&epoch) else {
                return Err(corrupt(format!(
                    "dag memo references unknown epoch {epoch}"
                )));
            };
            arena.validate_dag_nodes(id, num_nodes)?;
            let dag = Arc::new(arena.extract_dag(id));
            if state.dags.insert((epoch, value), dag).is_some() {
                return Err(corrupt("duplicate dag-memo key"));
            }
        }
        state.next_example = r.u32()?;
        let n = r.count()?;
        let mut example_ids: IntMap<u32, ()> = IntMap::default();
        for _ in 0..n {
            let len = r.count()?;
            let mut inputs = Vec::with_capacity(len);
            for _ in 0..len {
                inputs.push(sym.sym(r)?);
            }
            let output = sym.sym(r)?;
            let id = r.u32()?;
            if id >= state.next_example {
                return Err(corrupt(format!("example id {id} beyond next_example")));
            }
            if example_ids.insert(id, ()).is_some() {
                return Err(corrupt(format!("duplicate example id {id}")));
            }
            let stale = r.bool()?;
            let sid = StructId(r.u32()?);
            arena.validate_struct(sid)?;
            let deps = if r.bool()? {
                let n_tables = r.count()?;
                let mut tables = Vec::with_capacity(n_tables);
                for _ in 0..n_tables {
                    tables.push(r.u32()? as TableId);
                }
                let n_vals = r.count()?;
                let mut vals = Vec::with_capacity(n_vals);
                for _ in 0..n_vals {
                    vals.push(sym.sym(r)?);
                }
                Some(ExampleDeps {
                    tables: tables.into(),
                    vals: vals.into(),
                })
            } else {
                None
            };
            let entry = ExampleEntry {
                id,
                d: extract_struct(&arena, sid, &mut ctx),
                deps,
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
            let len = r.count()?;
            if len < 2 {
                return Err(corrupt(format!("intersection chain of length {len}")));
            }
            let mut chain = Vec::with_capacity(len);
            for _ in 0..len {
                let id = r.u32()?;
                if !example_ids.contains_key(&id) {
                    return Err(corrupt(format!(
                        "intersection chain names unknown example id {id}"
                    )));
                }
                chain.push(id);
            }
            let sid = StructId(r.u32()?);
            arena.validate_struct(sid)?;
            let d = extract_struct(&arena, sid, &mut ctx);
            if state.intersections.insert(chain.into(), d).is_some() {
                return Err(corrupt("duplicate intersection-memo key"));
            }
        }
        Ok(DagCache {
            state: RwLock::new(state),
            stats: AtomicStats::default(),
            arena_stats: Mutex::new(arena.stats()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn dag(n: u32) -> Dag<NodeId> {
        Dag {
            num_nodes: n.max(1),
            source: 0,
            target: n.max(1) - 1,
            edges: BTreeMap::new(),
        }
    }

    #[test]
    fn epochs_intern_by_content() {
        let c = DagCache::new();
        let (a, b) = (Symbol::intern("ep-a"), Symbol::intern("ep-b"));
        let e1 = c.epoch_of(&[a, b]);
        let e2 = c.epoch_of(&[a, b]);
        let e3 = c.epoch_of(&[b, a]);
        assert_eq!(e1, e2, "same ordered list, same epoch");
        assert_ne!(e1, e3, "order is part of the identity");
        assert_ne!(e1, c.epoch_of(&[a]), "prefixes are distinct snapshots");
    }

    #[test]
    fn dag_for_builds_once_and_shares() {
        let c = DagCache::new();
        let e = c.epoch_of(&[Symbol::intern("s")]);
        let v = Symbol::intern("val");
        let mut builds = 0;
        let d1 = c.dag_for(e, v, || {
            builds += 1;
            dag(3)
        });
        let d2 = c.dag_for(e, v, || {
            builds += 1;
            dag(3)
        });
        assert_eq!(builds, 1);
        assert!(Arc::ptr_eq(&d1, &d2), "hits alias one allocation");
        assert_eq!(c.stats().dag_hits, 1);
        assert_eq!(c.stats().dag_misses, 1);
    }

    #[test]
    fn validate_stales_examples_on_epoch_move_only() {
        let c = DagCache::new();
        c.validate(7);
        let e = c.epoch_of(&[Symbol::intern("s")]);
        c.dag_for(e, Symbol::intern("v"), || dag(2));
        let (ins, out) = ([Symbol::intern("vi")], Symbol::intern("vo"));
        c.store_example(7, &ins, out, &SemDStruct::default(), None);
        c.validate(7);
        assert_eq!(c.dag_entries(), 1, "same epoch keeps entries");
        assert_eq!(c.example_entries(), 1);
        c.validate(8);
        assert_eq!(
            c.dag_entries(),
            1,
            "per-value DAGs are pure functions of their snapshot keys"
        );
        assert_eq!(
            c.example_entries(),
            0,
            "moved epoch stales the example memo"
        );
        assert!(c.example(8, &ins, out).is_none(), "stale entries miss");
        assert_eq!(c.db_epoch(), 8);
    }

    #[test]
    fn validate_db_retains_unaffected_examples() {
        use sst_tables::{Database, Table};
        let mut db = Database::from_tables(vec![
            Table::new(
                "Comp",
                vec!["Id", "Name"],
                vec![vec!["vc1", "VMicrosoft"], vec!["vc2", "VGoogle"]],
            )
            .unwrap(),
            Table::new(
                "Month",
                vec!["MN", "MW"],
                vec![vec!["vm1", "VJanuary"], vec!["vm2", "VFebruary"]],
            )
            .unwrap(),
        ])
        .unwrap();
        let c = DagCache::new();
        c.validate_db(&db);
        let d = SemDStruct::default();
        // An entry reading only Comp (table 0), one reading only Month
        // (table 1), and a non-revalidatable one.
        let deps0 = ExampleDeps {
            tables: Box::new([0]),
            vals: Box::new([Symbol::intern("vc2"), Symbol::intern("VGoogle")]),
        };
        let deps1 = ExampleDeps {
            tables: Box::new([1]),
            vals: Box::new([Symbol::intern("vm1"), Symbol::intern("VJanuary")]),
        };
        let epoch = db.epoch();
        c.store_example(
            epoch,
            &[Symbol::intern("vc2")],
            Symbol::intern("VGoogle"),
            &d,
            Some(deps0),
        );
        c.store_example(
            epoch,
            &[Symbol::intern("vm1")],
            Symbol::intern("VJanuary"),
            &d,
            Some(deps1),
        );
        c.store_example(
            epoch,
            &[Symbol::intern("vx")],
            Symbol::intern("vy"),
            &d,
            None,
        );
        assert_eq!(c.example_entries(), 3);

        // A row insert into Month: the Comp entry survives, the Month
        // entry and the non-revalidatable entry go stale.
        db.insert_rows(1, vec![vec!["vm3", "VMarch"]]).unwrap();
        c.validate_db(&db);
        assert_eq!(c.db_epoch(), db.epoch());
        assert_eq!(c.example_entries(), 1, "only the Comp-only entry survives");
        assert!(c
            .example(
                db.epoch(),
                &[Symbol::intern("vc2")],
                Symbol::intern("VGoogle")
            )
            .is_some());

        // A mutation touching a value substring-related to the surviving
        // entry's node values stales it even though the table differs.
        db.insert_rows(1, vec![vec!["vm4", "VGoogleplex"]]).unwrap();
        c.validate_db(&db);
        assert_eq!(c.example_entries(), 0, "substring-related delta stales");

        // A structural mutation stales wholesale.
        let deps = ExampleDeps {
            tables: Box::new([0]),
            vals: Box::new([Symbol::intern("vc1")]),
        };
        c.store_example(
            db.epoch(),
            &[Symbol::intern("vc1")],
            Symbol::intern("VMicrosoft"),
            &d,
            Some(deps),
        );
        db.add_table(Table::new("P", vec!["K"], vec![vec!["vk1"]]).unwrap())
            .unwrap();
        c.validate_db(&db);
        assert_eq!(c.example_entries(), 0, "structural delta stales examples");
    }

    /// A tiny structure distinguishable by its node value.
    fn named_struct(tag: &str) -> SemDStruct {
        SemDStruct {
            nodes: vec![crate::dstruct::SemNode {
                vals: vec![Symbol::intern(tag)],
                progs: vec![crate::dstruct::GenLookupU::Var(0)],
            }],
            top: None,
        }
    }

    #[test]
    fn intersection_memo_keys_by_example_id_chain() {
        let c = DagCache::new();
        let da = named_struct("sid-a");
        let db = named_struct("sid-b");
        let ea = c.store_example(0, &[Symbol::intern("ia")], Symbol::intern("oa"), &da, None);
        let eb = c.store_example(0, &[Symbol::intern("ib")], Symbol::intern("ob"), &db, None);
        let (ea, eb) = (ea.unwrap(), eb.unwrap());
        assert_ne!(ea, eb, "distinct examples, distinct ids");
        // Ids name example entries, not contents: the same value under a
        // different example key is a different id.
        let ec = c.store_example(0, &[Symbol::intern("ic")], Symbol::intern("oc"), &da, None);
        assert_ne!(ec, Some(ea), "each example entry mints its own id");
        assert!(c.intersection(0, &[ea, eb]).is_none());
        c.store_intersection(0, &[ea, eb], &da);
        let hit = c.intersection(0, &[ea, eb]).expect("stored");
        assert_eq!(hit.nodes[0].vals, da.nodes[0].vals);
        assert!(
            c.intersection(0, &[eb, ea]).is_none(),
            "order is part of the key"
        );
        assert!(
            c.intersection(0, &[ea, eb, eb]).is_none(),
            "a longer chain is a different fold"
        );
        assert_eq!(c.intersection_entries(), 1);
        // A probe validated against a different db epoch must miss even
        // though the key is present (cross-database cache sharing).
        assert!(c.intersection(42, &[ea, eb]).is_none());
        // Validation to a new db state *keeps* the intersection memo: ids
        // name operand values (never reused or rebound), so the pure
        // `d₁ ∩ d₂` result stays sound across mutations.
        c.validate(99);
        assert!(
            c.intersection(99, &[ea, eb]).is_some(),
            "pure memo survives"
        );
        // Stores against a stale epoch are not memoized — they could be
        // mid-flight results from a diverged database sharing the cache.
        c.store_intersection(0, &[eb, ea], &db);
        assert_eq!(c.intersection_entries(), 1, "stale-epoch store dropped");
        assert_eq!(
            c.store_example(0, &[Symbol::intern("id")], Symbol::intern("od"), &db, None),
            None,
            "stale-epoch example store names no id"
        );
        c.store_intersection(99, &[eb, ea], &db);
        assert_eq!(c.intersection_entries(), 2);
        // First insert wins.
        c.store_intersection(99, &[eb, ea], &da);
        let kept = c.intersection(99, &[eb, ea]).unwrap();
        assert_eq!(kept.nodes[0].vals, db.nodes[0].vals);
    }

    #[test]
    fn store_example_is_first_insert_wins() {
        let c = DagCache::new();
        let d = named_struct("fiw");
        let ins = [Symbol::intern("fi")];
        let out = Symbol::intern("fo");
        let u1 = c.store_example(0, &ins, out, &d, None);
        let u2 = c.store_example(0, &ins, out, &named_struct("fiw-2"), None);
        assert_eq!(u1, u2, "re-store returns the canonical id");
        let (hit, hd) = c.example(0, &ins, out).expect("stored");
        assert_eq!(Some(hit), u1);
        assert_eq!(hd.nodes[0].vals, d.nodes[0].vals, "first value kept");
        assert!(
            c.example(7, &ins, out).is_none(),
            "epoch-mismatched probe misses"
        );
    }

    #[test]
    fn regenerated_equal_example_keeps_its_id_and_chains() {
        let c = DagCache::new();
        let (da, db) = (named_struct("keep-a"), named_struct("keep-b"));
        let (ka, kb) = ([Symbol::intern("ka")], [Symbol::intern("kb")]);
        let out = Symbol::intern("ko");
        let ea = c.store_example(0, &ka, out, &da, None).unwrap();
        let eb = c.store_example(0, &kb, out, &db, None).unwrap();
        c.store_intersection(0, &[ea, eb], &da);
        c.validate(1);
        assert!(c.example(1, &ka, out).is_none(), "stale probes miss");
        assert_eq!(c.example_entries(), 0);
        // Regenerated to an equal value (a fresh allocation): same id.
        assert_eq!(c.store_example(1, &ka, out, &da.clone(), None), Some(ea));
        assert_eq!(c.store_example(1, &kb, out, &db, None), Some(eb));
        assert_eq!(c.example_entries(), 2);
        assert_eq!(c.example(1, &ka, out).map(|(id, _)| id), Some(ea));
        assert!(c.intersection(1, &[ea, eb]).is_some(), "chain stays warm");
    }

    #[test]
    fn regenerated_changed_example_mints_a_fresh_id() {
        let c = DagCache::new();
        let (da, db) = (named_struct("chg-a"), named_struct("chg-b"));
        let (ka, kb) = ([Symbol::intern("ca")], [Symbol::intern("cb")]);
        let out = Symbol::intern("co");
        let ea = c.store_example(0, &ka, out, &da, None).unwrap();
        let eb = c.store_example(0, &kb, out, &db, None).unwrap();
        c.store_intersection(0, &[ea, eb], &da);
        c.store_intersection(0, &[eb, eb], &db);
        c.validate(1);
        let changed = named_struct("chg-a2");
        let ea2 = c.store_example(1, &ka, out, &changed, None).unwrap();
        assert_ne!(ea2, ea, "a changed value never keeps the old id");
        assert!(ea2 > eb, "ids are minted monotonically, never reused");
        let (id, d) = c.example(1, &ka, out).expect("fresh entry");
        assert_eq!(id, ea2);
        assert_eq!(d.nodes[0].vals, changed.nodes[0].vals);
        assert!(c.intersection(1, &[ea2, eb]).is_none());
        assert!(c.intersection(1, &[ea, eb]).is_none(), "old chain dropped");
        assert_eq!(c.intersection_entries(), 1, "unrelated chains survive");
    }

    /// Snapshot payload of `c` (symbol table first, as the service writes
    /// it).
    fn encode(c: &DagCache) -> Vec<u8> {
        let mut body = sst_arena::Writer::new();
        let mut enc = SymEncoder::new();
        c.encode_snapshot(&mut body, &mut enc);
        let mut w = sst_arena::Writer::new();
        enc.write_table(&mut w);
        w.raw(&body.into_bytes());
        w.into_bytes()
    }

    fn decode(bytes: &[u8]) -> Result<DagCache, SnapshotError> {
        let mut r = sst_arena::Reader::new(bytes);
        let dec = SymDecoder::read_table(&mut r)?;
        let c = DagCache::decode_snapshot(&mut r, &dec, 77)?;
        r.expect_end()?;
        Ok(c)
    }

    #[test]
    fn arena_is_built_only_by_snapshots() {
        let c = DagCache::new();
        let d = named_struct("dup");
        c.store_example(0, &[Symbol::intern("a1")], Symbol::intern("b1"), &d, None);
        c.store_example(0, &[Symbol::intern("a2")], Symbol::intern("b2"), &d, None);
        assert_eq!(
            c.arena_stats(),
            ArenaStats::default(),
            "learning never interns"
        );
        let bytes = encode(&c);
        let stats = c.arena_stats();
        assert!(stats.hits() > 0, "second intern of the same value hits");
        assert!(stats.dedup_ratio() > 1.0);
        assert!(stats.resident_bytes > 0);
        let restored = decode(&bytes).unwrap();
        assert_eq!(restored.arena_stats().stored, stats.stored);
    }

    #[test]
    fn snapshot_round_trips_cache_state() {
        let c = DagCache::new();
        c.validate(5);
        let e = c.epoch_of(&[Symbol::intern("snap-src")]);
        let dag_val = Symbol::intern("snap-val");
        c.dag_for(e, dag_val, || dag(3));
        let da = named_struct("snap-a");
        let db = named_struct("snap-b");
        let ins = [Symbol::intern("snap-in")];
        let out = Symbol::intern("snap-out");
        let deps = ExampleDeps {
            tables: Box::new([0]),
            vals: Box::new([Symbol::intern("snap-in")]),
        };
        let ua = c.store_example(5, &ins, out, &da, Some(deps)).unwrap();
        let ub = c
            .store_example(5, &[Symbol::intern("snap-in2")], out, &db, None)
            .unwrap();
        let stale_key = [Symbol::intern("snap-stale")];
        c.store_example(5, &stale_key, out, &db, None);
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
            .store_example(77, &[Symbol::intern("snap-in3")], out, &da, None)
            .unwrap();
        assert_eq!(next, c.read().next_example);
    }

    #[test]
    fn decode_rejects_out_of_range_ids() {
        let c = DagCache::new();
        let d = named_struct("oob");
        c.store_example(0, &[Symbol::intern("oi")], Symbol::intern("oo"), &d, None);
        let bytes = encode(&c);
        // Rather than byte-surgery, decode a truncated payload.
        let err = decode(&bytes[..bytes.len() - 4]).unwrap_err();
        assert!(
            matches!(err, SnapshotError::Truncated | SnapshotError::Corrupt(_)),
            "typed error, no panic: {err}"
        );
    }

    /// A hand-written cache payload over a one-structure arena: example
    /// entries with the given ids, `next_example`, and intersection
    /// chains — every field the decoder cross-checks, none of the
    /// encoder's invariants.
    fn crafted(ids: &[u32], next_example: u32, chains: &[&[u32]]) -> Vec<u8> {
        let mut arena = Arena::new();
        let sid = intern_struct(&mut arena, &named_struct("crafted"));
        let mut body = sst_arena::Writer::new();
        let mut enc = SymEncoder::new();
        arena.encode(&mut body, &mut enc);
        body.u32(0); // sources epochs
        body.u32(0); // next_epoch
        body.u32(0); // dag memo
        body.u32(next_example);
        body.u32(ids.len() as u32);
        for (i, &id) in ids.iter().enumerate() {
            body.u32(1);
            enc.sym(Symbol::intern(&format!("crafted-in{i}")), &mut body);
            enc.sym(Symbol::intern("crafted-out"), &mut body);
            body.u32(id);
            body.bool(false); // stale
            body.u32(sid.0);
            body.bool(false); // deps
        }
        body.u32(chains.len() as u32);
        for chain in chains {
            body.u32(chain.len() as u32);
            for &id in chain.iter() {
                body.u32(id);
            }
            body.u32(sid.0);
        }
        let mut w = sst_arena::Writer::new();
        enc.write_table(&mut w);
        w.raw(&body.into_bytes());
        w.into_bytes()
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

    #[test]
    fn encode_skips_chains_naming_dropped_ids() {
        let c = DagCache::new();
        let d = named_struct("orphan");
        let e = c.store_example(0, &[Symbol::intern("or")], Symbol::intern("oo"), &d, None);
        let e = e.unwrap();
        c.store_intersection(0, &[e, e], &d);
        // A chain a racing learn stored after its id was re-minted.
        c.store_intersection(0, &[e, e + 100], &d);
        let restored = decode(&encode(&c)).expect("live state always decodes");
        assert_eq!(restored.intersection_entries(), 1);
    }

    #[test]
    fn concurrent_readers_share_the_plane() {
        let c = Arc::new(DagCache::new());
        let e = c.epoch_of(&[Symbol::intern("cc-s")]);
        let v = Symbol::intern("cc-v");
        let canonical = c.dag_for(e, v, || dag(4));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = Arc::clone(&c);
                let canonical = Arc::clone(&canonical);
                s.spawn(move || {
                    for _ in 0..100 {
                        let hit = c.dag_for(e, v, || unreachable!("must be a hit"));
                        assert!(Arc::ptr_eq(&hit, &canonical));
                    }
                });
            }
        });
        assert_eq!(c.stats().dag_hits, 400);
        assert_eq!(c.stats().dag_misses, 1);
    }
}
