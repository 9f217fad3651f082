//! The [`Engine`]: shared warm state plus batch serving.

use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};
use std::time::Duration;

use sst_core::snapshot::{self, ArenaStats};
use sst_core::{
    CancelToken, DagCache, DagCacheStats, Example, LearnedPrograms, Pool, SynthesisError,
    SynthesisOptions, Synthesizer,
};
use sst_tables::{ColId, Database, RowId, Symbol, Table, TableId};

use crate::session::Session;
use crate::types::{ApplyRequest, ApplyResponse, LearnRequest, LearnResponse, ServiceError};

/// The state every session and batch request shares (see [`Engine`]).
#[derive(Debug)]
pub(crate) struct EngineInner {
    /// The current database state. Learns snapshot the `Arc` under a brief
    /// read lock, so a concurrent [`Engine::add_table`] never tears a
    /// learn in half — each learn sees exactly one database state, and
    /// learned programs keep their snapshot alive after the engine moves
    /// on.
    db: RwLock<Arc<Database>>,
    /// The one warm memoized DAG plane, which owns the engine-wide
    /// synthesis options (every learn runs under them). Interior-mutable
    /// with a read-lock warm path, so concurrent sessions share it without
    /// serializing; it self-validates against the database epoch, so any
    /// mutation through the engine stales its example entries for *every*
    /// session at once.
    cache: Arc<DagCache>,
    /// The global worker pool: batch requests and `run_column` row ranges
    /// fan out across it; learning itself is serial.
    pool: Pool,
    /// Sharing counters of the last snapshot written or read.
    snapshot_stats: Mutex<ArenaStats>,
}

/// Retypes a cooperative-cancellation abort as the service-level deadline
/// error, stamping the budget that was in force. Every budgeted entry
/// point funnels through this so the wire layer sees exactly one typed
/// shape (HTTP 408) regardless of which synthesis phase the deadline
/// interrupted.
pub(crate) fn with_deadline_error<T>(
    result: Result<T, ServiceError>,
    budget: Duration,
) -> Result<T, ServiceError> {
    result.map_err(|e| match e {
        ServiceError::Synthesis(SynthesisError::Cancelled) => ServiceError::DeadlineExceeded {
            budget_ms: budget.as_millis() as u64,
        },
        other => other,
    })
}

/// The serving front-end: owns one `Arc<Database>` of background
/// knowledge, one warm [`DagCache`] plane (which keeps the engine's
/// [`SynthesisOptions`]) and one global [`Pool`], and hands out cheap
/// handles — [`Session`]s for the §3.2 interactive
/// protocol, [`Engine::learn_batch`] for independent bulk requests.
///
/// `Engine` is `Clone + Send + Sync`; clones share everything (they are
/// the same engine). Dropping a clone never invalidates sessions or
/// learned programs — all state is `Arc`-shared.
///
/// # Determinism
///
/// Batch responses are in request order by construction
/// (`par_map_indexed` returns results in input order), and
/// every learned observable — counts, sizes, ranking, evaluation — is
/// bit-identical to a sequential [`Synthesizer::learn`] per request, at
/// every pool width (pinned by `tests/service_equivalence.rs`).
#[derive(Debug, Clone)]
pub struct Engine {
    inner: Arc<EngineInner>,
}

impl Engine {
    /// An engine over a shared database with default options.
    pub fn new(db: Arc<Database>) -> Self {
        Engine::with_options(db, SynthesisOptions::default())
    }

    /// An engine with explicit options.
    pub fn with_options(db: Arc<Database>, options: SynthesisOptions) -> Self {
        Engine::from_parts(db, DagCache::new(options), ArenaStats::default())
    }

    fn from_parts(db: Arc<Database>, cache: DagCache, snapshot_stats: ArenaStats) -> Self {
        let pool = Pool::new(cache.options().threads);
        Engine {
            inner: Arc::new(EngineInner {
                db: RwLock::new(db),
                cache: Arc::new(cache),
                pool,
                snapshot_stats: Mutex::new(snapshot_stats),
            }),
        }
    }

    /// Convenience: an engine over freshly assembled tables.
    pub fn from_tables(tables: Vec<Table>) -> Result<Self, ServiceError> {
        Ok(Engine::new(Arc::new(Database::from_tables(tables)?)))
    }

    /// The engine-wide synthesis options (its memo plane's).
    pub fn options(&self) -> &SynthesisOptions {
        self.inner.cache.options()
    }

    /// How many top-ranked programs a call without an explicit `k`
    /// considers: [`SynthesisOptions::top_k`], with `0` read as 1.
    pub(crate) fn default_top_k(&self) -> usize {
        self.options().top_k.max(1)
    }

    /// A snapshot of the current database state. The handle stays valid
    /// (and unchanged) across later [`Engine::add_table`] calls.
    pub fn db(&self) -> Arc<Database> {
        self.read_db()
    }

    /// The current database mutation epoch — the value the shared DAG
    /// plane validates against. Moves exactly once per
    /// [`Engine::add_table`], for every live session at once.
    pub fn db_epoch(&self) -> u64 {
        self.read_db().epoch()
    }

    /// Hit/miss counters of the shared memo plane.
    pub fn cache_stats(&self) -> DagCacheStats {
        self.inner.cache.stats()
    }

    /// Sharing counters (shared allocations written in full, references
    /// to them, memo-section bytes) of the last [`Engine::snapshot_to`] or
    /// [`Engine::restore_from`]; zeros before either, since learning
    /// writes no snapshot — the `/metrics` and perfbench `arena.*`
    /// observable.
    pub fn arena_stats(&self) -> ArenaStats {
        *self.snapshot_stats()
    }

    fn snapshot_stats(&self) -> MutexGuard<'_, ArenaStats> {
        let stats = &self.inner.snapshot_stats;
        stats.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Persists the engine's warm state — database, interned symbols, and
    /// the memo plane, with every shared allocation written once — to
    /// `path` as one versioned binary snapshot (temp file + rename; a
    /// crash never tears the file). Returns the snapshot size in bytes.
    ///
    /// The cache is revalidated against the current database state first,
    /// so the snapshot never carries a servable entry from a database the
    /// file doesn't contain (after a mutation the example entries travel
    /// marked stale, kept only to compare a regeneration against).
    pub fn snapshot_to(&self, path: &Path) -> Result<u64, ServiceError> {
        self.validate_cache();
        let db = self.db();
        let (bytes, stats) = snapshot::write(path, &db, &self.inner.cache)?;
        *self.snapshot_stats() = stats;
        Ok(bytes)
    }

    /// Restores an engine from a snapshot written by
    /// [`Engine::snapshot_to`] — in this process or any other. The file is
    /// fully validated (frame checksum, id bounds, structural checks);
    /// corruption answers [`ServiceError::Snapshot`], never a panic. The
    /// restore also refuses a snapshot whose generation options differ
    /// from `options` (its memo entries would be unsound), so a warm
    /// restart must boot with the same configuration it snapshotted
    /// under.
    pub fn restore_from(path: &Path, options: SynthesisOptions) -> Result<Engine, ServiceError> {
        let (db, cache, stats) = snapshot::read(path, options)?;
        Ok(Engine::from_parts(Arc::new(db), cache, stats))
    }

    /// Opens a new interactive learning session. Sessions are cheap (an
    /// `Arc` clone plus empty example state) and independent: each holds
    /// its own example conversation while sharing the engine's database,
    /// memo plane and pool.
    pub fn session(&self) -> Session {
        Session::new(self.clone())
    }

    /// Adds a background-knowledge table for **all** sessions.
    ///
    /// The database epoch moves exactly once per call, no matter how many
    /// sessions are live: the engine owns the one mutable handle to the
    /// database, so there is a single new database state, and the shared
    /// DAG plane invalidates once, for everyone. Sessions notice on their next learn (lazily) and re-learn
    /// against the grown database; programs learned earlier keep their own
    /// database snapshot.
    pub fn add_table(&self, table: Table) -> Result<TableId, ServiceError> {
        let mut guard = self
            .inner
            .db
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        // `make_mut` clones the database only if sessions/programs still
        // hold the old snapshot; `Database::add_table` bumps the epoch
        // exactly once either way.
        let id = Arc::make_mut(&mut guard).add_table(table)?;
        Ok(id)
    }

    /// Appends rows to a background table for **all** sessions, returning
    /// the new row ids. The table's indexes are maintained incrementally
    /// (microseconds per row, not a rebuild). Like every mutation it moves
    /// the database epoch: on the next learn the shared plane marks its
    /// example entries stale, and each session re-learns through it
    /// (see [`Engine::validate_cache`]).
    pub fn insert_rows<R: Into<String>>(
        &self,
        table: TableId,
        rows: Vec<Vec<R>>,
    ) -> Result<Vec<RowId>, ServiceError> {
        let mut guard = self
            .inner
            .db
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        Ok(Arc::make_mut(&mut guard).insert_rows(table, rows)?)
    }

    /// Overwrites one cell for **all** sessions, returning the old value.
    /// Same invalidation as [`Engine::insert_rows`]; a no-op write (the
    /// value did not change) moves no epoch at all.
    pub fn update_cell(
        &self,
        table: TableId,
        col: ColId,
        row: RowId,
        value: &str,
    ) -> Result<Symbol, ServiceError> {
        let mut guard = self
            .inner
            .db
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        Ok(Arc::make_mut(&mut guard).update_cell(table, col, row, value)?)
    }

    /// Deletes rows from a background table for **all** sessions,
    /// returning how many live rows were removed. Deletes tombstone in
    /// place (row ids stay stable) until garbage dominates the table, then
    /// compact. Same invalidation as [`Engine::insert_rows`].
    pub fn delete_rows(&self, table: TableId, rows: &[RowId]) -> Result<usize, ServiceError> {
        let mut guard = self
            .inner
            .db
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        Ok(Arc::make_mut(&mut guard).delete_rows(table, rows)?)
    }

    /// Revalidates the shared DAG plane against the current database
    /// epoch *now* (it otherwise happens lazily on the next learn): when
    /// the epoch moved, every example entry is marked stale and nothing
    /// else is invalidated. A stale example regenerates on its next learn
    /// and keeps its id (and every chain over it) when the regenerated
    /// structure is equal.
    pub fn validate_cache(&self) {
        self.inner.cache.validate(self.read_db().epoch());
    }

    /// Entry counts of the shared memo plane `(per-value DAGs, servable
    /// (non-stale) examples, intersection chains)` — alongside
    /// [`Engine::cache_stats`], the observable the mutation tests and
    /// benchmarks assert on. After [`Engine::validate_cache`] on a moved
    /// epoch the example count is zero until learns regenerate them; the
    /// DAG and chain counts are untouched.
    pub fn cache_entries(&self) -> (usize, usize, usize) {
        let c = &self.inner.cache;
        (
            c.dag_entries(),
            c.example_entries(),
            c.intersection_entries(),
        )
    }

    /// Learns one example set through the shared plane — the stateless
    /// entry point ([`Session`] wraps it with conversation state).
    pub fn learn(&self, examples: &[Example]) -> Result<LearnedPrograms, ServiceError> {
        Ok(self.synthesizer().learn(examples)?)
    }

    /// Serves a batch of independent learning requests, fanned across the
    /// engine pool.
    ///
    /// Each request learns over the same database snapshot (taken once for
    /// the whole batch) through a synthesizer view sharing the warm memo
    /// plane, so requests repeating an example or an example pair hit the
    /// memos instead of recomputing. Responses are **in request order**
    /// and bit-identical to sequential per-request [`Synthesizer::learn`]
    /// calls at every pool width; a failed request yields an `Err`
    /// response without disturbing its neighbors.
    ///
    /// With a `budget`, every request races one shared wall-clock deadline:
    /// the synthesis is cooperatively cancelled once it elapses, requests
    /// it interrupts answer [`ServiceError::DeadlineExceeded`]
    /// individually, and requests that finished in time keep their
    /// results. All shared memos stay valid either way (partial results
    /// are never inserted), so a retry without a budget is bit-identical
    /// to a cold learn (pinned by `tests/cancellation_equivalence.rs`).
    pub fn learn_batch(
        &self,
        requests: &[LearnRequest],
        budget: Option<Duration>,
    ) -> Vec<LearnResponse> {
        let synthesizer = self.budgeted_synthesizer(budget);
        let default_k = self.default_top_k();
        self.inner.pool.par_map_indexed(requests, |i, request| {
            let mut result = synthesizer
                .learn(&request.examples)
                .map_err(ServiceError::from);
            if let Some(budget) = budget {
                result = with_deadline_error(result, budget);
            }
            let top = result
                .as_ref()
                .map(|learned| learned.top_k(request.top_k.map_or(default_k, |k| k.max(1))))
                .unwrap_or_default();
            LearnResponse {
                request: i,
                result,
                top,
            }
        })
    }

    /// Learns from `examples`, compiles the top-ranked program and applies
    /// it to every input row, fanning row ranges across the engine pool —
    /// the stateless batch-apply entry point ([`Session::run_column`] is
    /// the conversation-stateful variant). Outputs are in row order and
    /// bit-identical to interpreting the top program per row.
    pub fn apply(
        &self,
        examples: &[Example],
        rows: &[Vec<String>],
    ) -> Result<Vec<Option<String>>, ServiceError> {
        apply_with(&self.synthesizer(), examples, rows, &self.inner.pool)
    }

    /// Serves a batch of independent [`ApplyRequest`]s, fanned across the
    /// engine pool with the same discipline as [`Engine::learn_batch`]:
    /// request-ordered responses, one shared database snapshot and warm
    /// memo plane, and an optional `budget` covering every request's learn
    /// phase (the row application of an already-learned program is bounded
    /// work and runs to completion). When the batch actually fans out,
    /// each request's `run_column` runs serial, since batch-level
    /// parallelism already saturates the pool. Results are bit-identical
    /// at every width.
    pub fn apply_batch(
        &self,
        requests: &[ApplyRequest],
        budget: Option<Duration>,
    ) -> Vec<ApplyResponse> {
        let fans_out = self.inner.pool.is_parallel() && requests.len() > 1;
        let synthesizer = self.budgeted_synthesizer(budget);
        let serial = Pool::new(1);
        let row_pool: &Pool = if fans_out { &serial } else { &self.inner.pool };
        self.inner.pool.par_map_indexed(requests, |i, request| {
            let mut result = apply_with(&synthesizer, &request.examples, &request.rows, row_pool);
            if let Some(budget) = budget {
                result = with_deadline_error(result, budget);
            }
            ApplyResponse { request: i, result }
        })
    }

    /// The engine's worker pool (sessions fan `run_column` across it).
    pub(crate) fn pool(&self) -> &Pool {
        &self.inner.pool
    }

    /// A synthesizer view over the current database snapshot, wired to the
    /// shared memo plane — what sessions and batch workers learn through.
    /// Constructing one is a couple of `Arc` clones.
    pub fn synthesizer(&self) -> Synthesizer {
        Synthesizer::with_shared_cache(self.db(), Arc::clone(&self.inner.cache))
    }

    /// [`Engine::synthesizer`] whose learns, under a `budget`, race one
    /// fresh deadline from *now* — what batches and sessions learn through.
    /// A batch shares the one deadline token across all its requests.
    pub(crate) fn budgeted_synthesizer(&self, budget: Option<Duration>) -> Synthesizer {
        let synthesizer = self.synthesizer();
        match budget {
            Some(budget) => synthesizer.with_cancel(CancelToken::with_deadline(budget)),
            None => synthesizer,
        }
    }

    fn read_db(&self) -> Arc<Database> {
        Arc::clone(&self.inner.db.read().unwrap_or_else(PoisonError::into_inner))
    }
}

/// The one apply path behind [`Engine::apply`] and
/// [`Engine::apply_batch`]: learn, take the top program, compile it and
/// run it over `rows`. On a warm engine the learn, the ranking and the
/// compilation are all memo hits.
fn apply_with(
    synthesizer: &Synthesizer,
    examples: &[Example],
    rows: &[Vec<String>],
    pool: &Pool,
) -> Result<Vec<Option<String>>, ServiceError> {
    let top = synthesizer
        .learn(examples)?
        .top()
        .ok_or(ServiceError::Synthesis(SynthesisError::NoConsistentProgram))?;
    Ok(top.compile().run_column(rows, pool))
}
