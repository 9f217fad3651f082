//! The memoized DAG plane: a per-synthesizer cache that removes the
//! dominant repeated work in `GenerateStr_u` (§5.3) and in
//! `Intersect_u`'s §3.2 replays.
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
//! [`DagCache`] memoizes at four granularities, each keyed so a hit is
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
//! * **Ranked top programs** — the learned structure's top program, keyed
//!   by the same example-id chains (single-example chains `[e₁]`
//!   included). Ranking is a pure function of the structure's value, the
//!   cache's [`LuRankWeights`] and the lookup depth, and reads no
//!   database, so a hit is the program a re-rank would extract. Each chain
//!   holds one entry, which records the depth it ranks at: the depth moves
//!   when a table is added, and a moved depth replaces the entry. The same
//!   entry holds the top program's compiled code, scoped to the
//!   [`Database::epoch`] it was lowered against: lowering bakes cells in,
//!   so the code is served only at that epoch. The code holds no database
//!   (each `CompiledProgram` pairs it with the caller's), so a memo entry
//!   never pins one — a pinned database would turn every copy-on-write
//!   mutation into a deep clone of its tables and indexes. `learn` hands
//!   each `LearnedPrograms` a handle to its entry, so `top()` and
//!   `compile()` on a warm apply are lookups.
//!
//! Every entry is sound only under one [`SynthesisOptions`], so the cache
//! owns them: it is built from its options and hands them out through
//! [`DagCache::options`], and every synthesizer over it learns under them.
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
//! One rule: **a moved [`Database::epoch`] marks every example entry
//! stale, and nothing else is invalidated.** Only the example memo (and
//! each compiled program, see above) is scoped to one database state.
//! Per-value DAGs are pure functions of the ordered source-symbol list
//! behind their `SourcesEpoch` key, and intersection and ranked entries are
//! pure functions of the id-named *values* — none reads the database, so
//! all three survive every mutation. The cache records the epoch it was
//! filled under, and [`DagCache::validate`] applies the rule when the
//! epoch moved.
//!
//! A stale entry probes as a miss, so the example is regenerated; the
//! regenerated structure is then *compared* with the stale value. Equal
//! (the common case: a write into a table the example never reads, an
//! insert-then-delete, or a write that happened not to change this
//! example's programs) keeps the old id, so every chain and ranked entry
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
//! just a refill cost on workloads large enough to hit it. The ranked memo
//! has no threshold of its own: it is keyed by the same chains, flushed
//! with them and pruned with them when an example id is re-minted.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard, Weak};

use sst_syntactic::Dag;
use sst_tables::{Database, IntMap, Symbol};

use crate::compiled::{Code, CompiledProgram};
use crate::dstruct::{NodeId, SemDStruct};
use crate::rank::{LuRankWeights, RankedSem};
use crate::SynthesisOptions;

/// Identity of one σ ∪ η̃ snapshot: equal epochs ⇔ equal ordered source
/// symbol lists (within one database state). Allocated densely by
/// [`DagCache::epoch_of`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct SourcesEpoch(u32);

/// Key of one memoized `GenerateStr_u` call: the example's interned
/// inputs and output.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct ExampleKey {
    pub(crate) inputs: Box<[Symbol]>,
    pub(crate) output: Symbol,
}

/// One example-memo entry: the structure, its example id, and whether a
/// mutation has staled it.
#[derive(Debug, Clone)]
pub(crate) struct ExampleEntry {
    /// Names `d` in intersection chains. Minted from
    /// `CacheState::next_example`; never reused or rebound.
    pub(crate) id: u32,
    pub(crate) d: SemDStruct,
    /// A mutation may have changed this example's generation: the entry
    /// probes as a miss, and `d` is kept only to compare the regenerated
    /// structure against (see the module docs).
    pub(crate) stale: bool,
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
    /// `LearnedPrograms::top` calls served from the ranked memo.
    pub rank_hits: u64,
    /// `LearnedPrograms::top` calls that ranked the structure.
    pub rank_misses: u64,
    /// `Program::compile` calls on a memoized top program served without
    /// lowering.
    pub compile_hits: u64,
    /// `Program::compile` calls on a memoized top program that lowered it.
    pub compile_misses: u64,
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

/// The lock-guarded cache state (see [`DagCache`]); `crate::snapshot`
/// writes and rebuilds it.
#[derive(Debug, Default)]
pub(crate) struct CacheState {
    /// The [`Database::epoch`] the entries were computed under.
    pub(crate) db_epoch: u64,
    /// Source-list interning: ordered symbol list → epoch id.
    pub(crate) epochs: IntMap<Box<[Symbol]>, u32>,
    /// Next epoch id. Monotone for the cache's lifetime — never reset by
    /// flushes or validation — so an id held across a flush (a generation
    /// session keeps its `SourcesEpoch` for the step) can never collide
    /// with a later snapshot's id and serve a stale DAG.
    pub(crate) next_epoch: u32,
    /// `(sources epoch, value) → DAG of all expressions producing the
    /// value over that snapshot`; hits share the `Arc`.
    pub(crate) dags: IntMap<(u32, Symbol), Arc<Dag<NodeId>>>,
    /// Whole-example generation memo.
    pub(crate) examples: IntMap<ExampleKey, ExampleEntry>,
    /// Next example id. Monotone for the cache's lifetime — never reset
    /// by flushes — so an id names one value forever.
    pub(crate) next_example: u32,
    /// Intersection memo: example-id chain → the folded intersection.
    pub(crate) intersections: IntMap<Box<[u32]>, SemDStruct>,
    /// Ranked memo: example-id chain → its entry (which records the depth
    /// it ranks at).
    pub(crate) ranked: IntMap<Box<[u32]>, Arc<TopEntry>>,
}

impl CacheState {
    /// Flushes both chain-keyed memos.
    fn clear_chains(&mut self) {
        self.intersections.clear();
        self.ranked.clear();
    }
}

/// One ranked-memo entry: the top program of the structure its chain
/// names, ranked at `depth`, and that program's compiled form. `learn`
/// also builds *private* entries — never listed in a cache — for
/// structures no chain names (`dag_cache(false)`, a chain an epoch race
/// left unmemoized), so a learned set still ranks once.
#[derive(Debug)]
pub(crate) struct TopEntry {
    depth: usize,
    /// `LuRankWeights::best` of the structure, filled by the first `top()`.
    top: OnceLock<Option<RankedSem>>,
    /// The top program's compiled code and the [`Database::epoch`] it was
    /// lowered against (shared entries only).
    compiled: Mutex<Option<(u64, Arc<Code>)>>,
}

impl TopEntry {
    pub(crate) fn new(depth: usize) -> Self {
        TopEntry {
            depth,
            top: OnceLock::new(),
            compiled: Mutex::new(None),
        }
    }
}

/// A learned set's handle on its [`TopEntry`], behind
/// `LearnedPrograms::top` and the returned program's `Program::compile`.
#[derive(Debug, Clone)]
pub(crate) struct TopMemo {
    entry: Arc<TopEntry>,
    /// The cache the entry is listed in; `None` for a private entry.
    cache: Option<Weak<DagCache>>,
    /// This learned set's own compiled top program, against the database
    /// the learned set already holds: a learned set compiles at most once.
    own: Arc<OnceLock<Arc<CompiledProgram>>>,
}

impl TopMemo {
    /// A handle on `entry`, listed in `cache` (`None`: private).
    pub(crate) fn new(entry: Arc<TopEntry>, cache: Option<Weak<DagCache>>) -> Self {
        TopMemo {
            entry,
            cache,
            own: Arc::default(),
        }
    }

    fn cache(&self) -> Option<Arc<DagCache>> {
        self.cache.as_ref().and_then(Weak::upgrade)
    }

    /// The top program of `d` under `weights`, ranked on the entry's
    /// first call.
    pub(crate) fn top(&self, d: &SemDStruct, weights: &LuRankWeights) -> Option<&RankedSem> {
        let mut ranked = false;
        let top = self.entry.top.get_or_init(|| {
            ranked = true;
            weights.best(d, self.entry.depth)
        });
        if let Some(cache) = self.cache() {
            let s = &cache.stats;
            count(!ranked, &s.rank_hits, &s.rank_misses);
        }
        top.as_ref()
    }

    /// The top program compiled against `db`: this learned set's own
    /// copy, else the shared entry's code when it was lowered at `db`'s
    /// epoch, else `lower()`'s (stored in both).
    pub(crate) fn compile(
        &self,
        db: &Arc<Database>,
        lower: impl FnOnce() -> CompiledProgram,
    ) -> Arc<CompiledProgram> {
        let cache = self.cache();
        let mut lowered = false;
        let compiled = self.own.get_or_init(|| {
            if cache.is_none() {
                lowered = true;
                return Arc::new(lower());
            }
            // A poisoned slot is recovered: it only ever holds a complete
            // value.
            let mut slot = self
                .entry
                .compiled
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if let Some((epoch, code)) = &*slot {
                if *epoch == db.epoch() {
                    return Arc::new(CompiledProgram::with_code(Arc::clone(db), Arc::clone(code)));
                }
            }
            lowered = true;
            let compiled = lower();
            *slot = Some((db.epoch(), Arc::clone(compiled.code())));
            Arc::new(compiled)
        });
        if let Some(cache) = &cache {
            let s = &cache.stats;
            count(!lowered, &s.compile_hits, &s.compile_misses);
        }
        Arc::clone(compiled)
    }
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
    rank_hits: AtomicU64,
    rank_misses: AtomicU64,
    compile_hits: AtomicU64,
    compile_misses: AtomicU64,
}

/// Counts one hit or one miss.
fn count(hit: bool, hits: &AtomicU64, misses: &AtomicU64) {
    if hit { hits } else { misses }.fetch_add(1, Ordering::Relaxed);
}

/// The memoized DAG plane (see the module docs). One cache serves one
/// configuration: it is built from the [`SynthesisOptions`] its entries
/// are filled under and owns them, so every [`crate::Synthesizer`] over
/// it learns under the same generation options and ranking weights. It
/// validates itself against the database epoch, so sharing it across
/// database *states* is safe.
///
/// Memory is bounded: each memo flushes wholesale when it outgrows its
/// threshold (`MAX_DAG_ENTRIES`, `MAX_EXAMPLE_ENTRIES`,
/// `MAX_INTERSECTION_ENTRIES`).
#[derive(Debug)]
pub struct DagCache {
    options: Arc<SynthesisOptions>,
    state: RwLock<CacheState>,
    stats: AtomicStats,
}

impl DagCache {
    /// An empty cache serving `options` (binds to a database epoch on
    /// first [`DagCache::validate`]).
    pub fn new(options: SynthesisOptions) -> Self {
        DagCache::from_state(options, CacheState::default())
    }

    /// A cache serving `options` and holding `state`, with zeroed counters
    /// (a snapshot restore).
    pub(crate) fn from_state(options: SynthesisOptions, state: CacheState) -> Self {
        DagCache {
            options: Arc::new(options),
            state: RwLock::new(state),
            stats: AtomicStats::default(),
        }
    }

    /// The options every entry is filled under, shared with the learned
    /// sets and programs served from this cache.
    pub fn options(&self) -> &Arc<SynthesisOptions> {
        &self.options
    }

    /// Recovers the state lock if a holder panicked: every entry is a
    /// completed value (writes happen-before unlock), so a poisoned lock
    /// only means some fill was abandoned — at worst it is recomputed.
    pub(crate) fn read(&self) -> RwLockReadGuard<'_, CacheState> {
        self.state
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    pub(crate) fn write(&self) -> RwLockWriteGuard<'_, CacheState> {
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
    /// state never contend.
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
            rank_hits: self.stats.rank_hits.load(Ordering::Relaxed),
            rank_misses: self.stats.rank_misses.load(Ordering::Relaxed),
            compile_hits: self.stats.compile_hits.load(Ordering::Relaxed),
            compile_misses: self.stats.compile_misses.load(Ordering::Relaxed),
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
    pub(crate) fn epoch_of(&self, symbols: &[Symbol]) -> SourcesEpoch {
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
    pub(crate) fn dag_for(
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
    /// example id that names it.
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
            if e.d != *d {
                let old = e.id;
                e.id = state.next_example;
                e.d = d.clone();
                state.next_example += 1;
                state.intersections.retain(|chain, _| !chain.contains(&old));
                state.ranked.retain(|chain, _| !chain.contains(&old));
            }
            return Some(e.id);
        }
        if state.examples.len() >= MAX_EXAMPLE_ENTRIES {
            // Every chain names a dropped id: flush them all.
            state.examples.clear();
            state.clear_chains();
        }
        let id = state.next_example;
        state.next_example += 1;
        state.examples.insert(
            key,
            ExampleEntry {
                id,
                d: d.clone(),
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
            state.clear_chains();
        }
        state.intersections.insert(chain.into(), d.clone());
    }

    /// The shared ranked-memo entry of the structure `chain` names, at
    /// lookup depth `depth`, created empty on a miss. Epoch-checked like
    /// [`DagCache::store_intersection`]: `None` when the cache was rebound
    /// to another database epoch. A chain holds one entry, so a moved depth
    /// (a table was added) replaces the entry ranked at the old depth.
    pub(crate) fn top_entry(
        &self,
        db_epoch: u64,
        chain: &[u32],
        depth: usize,
    ) -> Option<Arc<TopEntry>> {
        let find = |state: &CacheState| {
            state
                .ranked
                .get(chain)
                .filter(|e| e.depth == depth)
                .cloned()
        };
        {
            let state = self.read();
            if state.db_epoch != db_epoch {
                return None;
            }
            if let Some(entry) = find(&state) {
                return Some(entry);
            }
        }
        let mut state = self.write();
        if state.db_epoch != db_epoch {
            return None;
        }
        if let Some(entry) = find(&state) {
            return Some(entry); // raced: keep the first insert canonical
        }
        let entry = Arc::new(TopEntry::new(depth));
        state.ranked.insert(chain.into(), Arc::clone(&entry));
        Some(entry)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// An empty cache under the default options.
    pub(crate) fn cache() -> DagCache {
        DagCache::new(SynthesisOptions::default())
    }

    pub(crate) fn dag(n: u32) -> Dag<NodeId> {
        Dag {
            num_nodes: n.max(1),
            source: 0,
            target: n.max(1) - 1,
            edges: BTreeMap::new(),
        }
    }

    #[test]
    fn epochs_intern_by_content() {
        let c = cache();
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
        let c = cache();
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
        let c = cache();
        c.validate(7);
        let e = c.epoch_of(&[Symbol::intern("s")]);
        c.dag_for(e, Symbol::intern("v"), || dag(2));
        let (ins, out) = ([Symbol::intern("vi")], Symbol::intern("vo"));
        c.store_example(7, &ins, out, &SemDStruct::default());
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

    /// A tiny structure distinguishable by its node value.
    pub(crate) fn named_struct(tag: &str) -> SemDStruct {
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
        let c = cache();
        let da = named_struct("sid-a");
        let db = named_struct("sid-b");
        let ea = c.store_example(0, &[Symbol::intern("ia")], Symbol::intern("oa"), &da);
        let eb = c.store_example(0, &[Symbol::intern("ib")], Symbol::intern("ob"), &db);
        let (ea, eb) = (ea.unwrap(), eb.unwrap());
        assert_ne!(ea, eb, "distinct examples, distinct ids");
        // Ids name example entries, not contents: the same value under a
        // different example key is a different id.
        let ec = c.store_example(0, &[Symbol::intern("ic")], Symbol::intern("oc"), &da);
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
            c.store_example(0, &[Symbol::intern("id")], Symbol::intern("od"), &db),
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
        let c = cache();
        let d = named_struct("fiw");
        let ins = [Symbol::intern("fi")];
        let out = Symbol::intern("fo");
        let u1 = c.store_example(0, &ins, out, &d);
        let u2 = c.store_example(0, &ins, out, &named_struct("fiw-2"));
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
        let c = cache();
        let (da, db) = (named_struct("keep-a"), named_struct("keep-b"));
        let (ka, kb) = ([Symbol::intern("ka")], [Symbol::intern("kb")]);
        let out = Symbol::intern("ko");
        let ea = c.store_example(0, &ka, out, &da).unwrap();
        let eb = c.store_example(0, &kb, out, &db).unwrap();
        c.store_intersection(0, &[ea, eb], &da);
        c.validate(1);
        assert!(c.example(1, &ka, out).is_none(), "stale probes miss");
        assert_eq!(c.example_entries(), 0);
        // Regenerated to an equal value (a fresh allocation): same id.
        assert_eq!(c.store_example(1, &ka, out, &da.clone()), Some(ea));
        assert_eq!(c.store_example(1, &kb, out, &db), Some(eb));
        assert_eq!(c.example_entries(), 2);
        assert_eq!(c.example(1, &ka, out).map(|(id, _)| id), Some(ea));
        assert!(c.intersection(1, &[ea, eb]).is_some(), "chain stays warm");
    }

    #[test]
    fn regenerated_changed_example_mints_a_fresh_id() {
        let c = cache();
        let (da, db) = (named_struct("chg-a"), named_struct("chg-b"));
        let (ka, kb) = ([Symbol::intern("ca")], [Symbol::intern("cb")]);
        let out = Symbol::intern("co");
        let ea = c.store_example(0, &ka, out, &da).unwrap();
        let eb = c.store_example(0, &kb, out, &db).unwrap();
        c.store_intersection(0, &[ea, eb], &da);
        c.store_intersection(0, &[eb, eb], &db);
        c.validate(1);
        let changed = named_struct("chg-a2");
        let ea2 = c.store_example(1, &ka, out, &changed).unwrap();
        assert_ne!(ea2, ea, "a changed value never keeps the old id");
        assert!(ea2 > eb, "ids are minted monotonically, never reused");
        let (id, d) = c.example(1, &ka, out).expect("fresh entry");
        assert_eq!(id, ea2);
        assert_eq!(d.nodes[0].vals, changed.nodes[0].vals);
        assert!(c.intersection(1, &[ea2, eb]).is_none());
        assert!(c.intersection(1, &[ea, eb]).is_none(), "old chain dropped");
        assert_eq!(c.intersection_entries(), 1, "unrelated chains survive");
    }

    #[test]
    fn ranked_entries_key_on_chain_and_depth() {
        let c = cache();
        let e = c.top_entry(0, &[1, 2], 1).expect("same epoch");
        let same = c.top_entry(0, &[1, 2], 1).expect("same epoch");
        assert!(Arc::ptr_eq(&e, &same), "equal keys share one entry");
        let other_chain = c.top_entry(0, &[1], 1).unwrap();
        assert!(!Arc::ptr_eq(&e, &other_chain));
        assert_eq!(c.read().ranked.len(), 2);
        let deeper = c.top_entry(0, &[1, 2], 2).unwrap();
        assert!(!Arc::ptr_eq(&e, &deeper), "the depth is keyed");
        assert_eq!(
            c.read().ranked.len(),
            2,
            "a moved depth replaces the chain's entry"
        );
        assert!(
            c.top_entry(5, &[1, 2], 1).is_none(),
            "another database epoch gets a private entry"
        );
        // Re-minting an example id prunes the chains naming it; a flush of
        // the example memo takes every chain with it.
        let (ka, out) = ([Symbol::intern("rk-a")], Symbol::intern("rk-o"));
        let id = c.store_example(0, &ka, out, &named_struct("rk-1")).unwrap();
        c.top_entry(0, &[id], 1).unwrap();
        assert_eq!(c.read().ranked.len(), 3);
        c.validate(1);
        c.store_example(1, &ka, out, &named_struct("rk-2"));
        assert_eq!(
            c.read().ranked.len(),
            2,
            "the re-minted id's chain is pruned"
        );
    }

    #[test]
    fn concurrent_readers_share_the_plane() {
        let c = Arc::new(cache());
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
