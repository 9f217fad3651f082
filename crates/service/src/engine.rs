//! The [`Engine`]: shared warm state plus batch serving.

use std::path::Path;
use std::sync::{Arc, PoisonError, RwLock};
use std::time::Duration;

use sst_arena::ArenaStats;
use sst_core::{
    CancelToken, DagCache, DagCacheStats, Example, LearnedPrograms, SynthesisError,
    SynthesisOptions, Synthesizer,
};
use sst_par::Pool;
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
    /// The one warm memoized DAG plane. Interior-mutable with a read-lock
    /// warm path, so concurrent sessions share it without serializing; it
    /// self-validates against the database epoch, so a table added through
    /// [`Engine::add_table`] invalidates it for *every* session at once.
    cache: Arc<DagCache>,
    /// Engine-wide synthesis options (a session cannot diverge from them:
    /// the shared cache is only sound across equal generation options).
    options: SynthesisOptions,
    /// The global worker pool: batch requests fan out across it, and its
    /// width also sizes each learn's parallel `Intersect_u` plane.
    pool: Pool,
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
/// knowledge, one warm [`DagCache`] plane and one global `sst-par` pool,
/// and hands out cheap handles — [`Session`]s for the §3.2 interactive
/// protocol, [`Engine::learn_batch`] for independent bulk requests.
///
/// `Engine` is `Clone + Send + Sync`; clones share everything (they are
/// the same engine). Dropping a clone never invalidates sessions or
/// learned programs — all state is `Arc`-shared.
///
/// # Determinism
///
/// Batch responses are in request order by construction
/// (`par_map_indexed` writes each result into its pre-assigned slot), and
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

    /// An engine with explicit options (build them with
    /// [`SynthesisOptions::builder`]).
    pub fn with_options(db: Arc<Database>, options: SynthesisOptions) -> Self {
        let pool = Pool::new(options.threads);
        Engine {
            inner: Arc::new(EngineInner {
                db: RwLock::new(db),
                cache: Arc::new(DagCache::new()),
                options,
                pool,
            }),
        }
    }

    /// Convenience: an engine over freshly assembled tables.
    pub fn from_tables(tables: Vec<Table>) -> Result<Self, ServiceError> {
        Ok(Engine::new(Arc::new(Database::from_tables(tables)?)))
    }

    /// The engine-wide synthesis options.
    pub fn options(&self) -> &SynthesisOptions {
        &self.inner.options
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

    /// Hash-cons counters (distinct values, intern traffic,
    /// resident-bytes estimate) of the arena built by the last
    /// [`Engine::snapshot_to`] or [`Engine::restore_from`]; zeros before
    /// either, since learning never interns — the `/metrics` and
    /// `perf_snapshot` observable.
    pub fn arena_stats(&self) -> ArenaStats {
        self.inner.cache.arena_stats()
    }

    /// Persists the engine's warm state — database, interned symbols, and
    /// the memo plane, hash-consed into an arena on the way out — to
    /// `path` as one versioned binary snapshot (temp file + rename; a
    /// crash never tears the file). Returns the snapshot size in bytes.
    ///
    /// The cache is revalidated against the current database state first,
    /// so the snapshot never carries a servable entry from a database the
    /// file doesn't contain (entries a mutation may have changed travel
    /// marked stale, kept only to compare a regeneration against).
    pub fn snapshot_to(&self, path: &Path) -> Result<u64, ServiceError> {
        self.validate_cache();
        let db = self.db();
        crate::snapshot::write_snapshot(path, &db, &self.inner.cache, &self.inner.options)
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
        let (db, cache) = crate::snapshot::read_snapshot(path, &options)?;
        let pool = Pool::new(options.threads);
        Ok(Engine {
            inner: Arc::new(EngineInner {
                db: RwLock::new(db),
                cache: Arc::new(cache),
                options,
                pool,
            }),
        })
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
    /// sessions are live: the engine owns the one mutable handle, so —
    /// unlike per-clone [`Synthesizer::add_table`] mutation, where every
    /// clone re-adds the table and bumps its own epoch — there is a single
    /// new database state, and the shared DAG plane invalidates once, for
    /// everyone. Sessions notice on their next learn (lazily) and re-learn
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
    /// the new row ids. A row-level mutation, unlike [`Engine::add_table`],
    /// is *non-structural*: the table's indexes are maintained
    /// incrementally (microseconds per row, not a rebuild), and on the
    /// next learn the shared DAG plane and each session's cached learn
    /// revalidate against the mutation delta — entries that provably read
    /// only other tables stay warm instead of cold-starting.
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
    /// Same delta-aware invalidation as [`Engine::insert_rows`]; a
    /// no-op write (the value did not change) moves no epoch at all.
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
    /// compact. Same delta-aware invalidation as [`Engine::insert_rows`].
    pub fn delete_rows(&self, table: TableId, rows: &[RowId]) -> Result<usize, ServiceError> {
        let mut guard = self
            .inner
            .db
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        Ok(Arc::make_mut(&mut guard).delete_rows(table, rows)?)
    }

    /// Revalidates the shared DAG plane against the current database
    /// state *now* (it otherwise happens lazily on the next learn):
    /// retained-entry counts become observable immediately, which the
    /// mutation benchmarks use to measure warm-entry survival.
    pub fn validate_cache(&self) {
        self.inner.cache.validate_db(&self.read_db());
    }

    /// Entry counts of the shared memo plane `(per-value DAGs, servable
    /// (non-stale) examples, intersection chains)` — alongside
    /// [`Engine::cache_stats`], the observable the warm-across-mutation
    /// tests and benchmarks assert on.
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

    /// [`Engine::learn`] under a wall-clock budget: the synthesis is
    /// cooperatively cancelled once `budget` elapses, every shared memo
    /// stays valid (partial results are never inserted), and the abort
    /// surfaces as [`ServiceError::DeadlineExceeded`]. A retry without a
    /// budget is bit-identical to a cold learn (pinned by
    /// `tests/cancellation_equivalence.rs`).
    pub fn learn_with_budget(
        &self,
        examples: &[Example],
        budget: Duration,
    ) -> Result<LearnedPrograms, ServiceError> {
        with_deadline_error(
            self.synthesizer_with_budget(budget)
                .learn(examples)
                .map_err(ServiceError::from),
            budget,
        )
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
    /// When the batch actually fans out, each worker's inner `Intersect_u`
    /// plane runs serial (`threads = 1`): batch-level parallelism already
    /// saturates the pool width, and nesting the per-learn plane inside it
    /// would spawn up to `threads²` OS threads. Per-learn results are
    /// bit-identical at every inner width, so this is invisible; a
    /// single-request or serial-pool batch keeps the full inner width.
    pub fn learn_batch(&self, requests: &[LearnRequest]) -> Vec<LearnResponse> {
        self.learn_batch_inner(requests, None)
    }

    /// [`Engine::learn_batch`] under one shared wall-clock budget for the
    /// whole batch: every request races the same deadline, requests the
    /// deadline interrupts answer [`ServiceError::DeadlineExceeded`]
    /// individually, and requests that finished in time keep their
    /// results. All shared memos stay valid either way.
    pub fn learn_batch_with_budget(
        &self,
        requests: &[LearnRequest],
        budget: Duration,
    ) -> Vec<LearnResponse> {
        self.learn_batch_inner(requests, Some(budget))
    }

    fn learn_batch_inner(
        &self,
        requests: &[LearnRequest],
        budget: Option<Duration>,
    ) -> Vec<LearnResponse> {
        let fans_out = self.inner.pool.is_parallel() && requests.len() > 1;
        let synthesizer = self.batch_synthesizer(fans_out, budget);
        let default_k = self.inner.options.top_k;
        self.inner.pool.par_map_indexed(requests, |i, request| {
            let mut result = synthesizer
                .learn(&request.examples)
                .map_err(ServiceError::from);
            if let Some(budget) = budget {
                result = with_deadline_error(result, budget);
            }
            let top = result
                .as_ref()
                .map(|learned| learned.top_k(request.top_k.unwrap_or(default_k).max(1)))
                .unwrap_or_default();
            LearnResponse {
                request: i,
                result,
                top,
            }
        })
    }

    /// The synthesizer view a batch entry point learns through: the shared
    /// warm memo plane, a serial inner `Intersect_u` plane when the batch
    /// itself fans out (see [`Engine::learn_batch`]), and — under a budget
    /// — one deadline token shared by every request in the batch.
    fn batch_synthesizer(&self, fans_out: bool, budget: Option<Duration>) -> Synthesizer {
        if !fans_out && budget.is_none() {
            return self.synthesizer();
        }
        let mut builder = self.inner.options.to_builder();
        if fans_out {
            builder = builder.threads(1);
        }
        if let Some(budget) = budget {
            builder = builder.cancel_token(CancelToken::with_deadline(budget));
        }
        Synthesizer::with_shared_cache(self.db(), builder.build(), Arc::clone(&self.inner.cache))
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
        let learned = self.learn(examples)?;
        let top = learned
            .top()
            .ok_or(ServiceError::Synthesis(SynthesisError::NoConsistentProgram))?;
        Ok(top.compile().run_column(rows, &self.inner.pool))
    }

    /// [`Engine::apply`] under a wall-clock budget covering the learn
    /// phase (the row application of an already-learned program is bounded
    /// work and runs to completion). Deadline aborts surface as
    /// [`ServiceError::DeadlineExceeded`]; all shared memos stay valid.
    pub fn apply_with_budget(
        &self,
        examples: &[Example],
        rows: &[Vec<String>],
        budget: Duration,
    ) -> Result<Vec<Option<String>>, ServiceError> {
        let learned = self.learn_with_budget(examples, budget)?;
        let top = learned
            .top()
            .ok_or(ServiceError::Synthesis(SynthesisError::NoConsistentProgram))?;
        Ok(top.compile().run_column(rows, &self.inner.pool))
    }

    /// Serves a batch of independent [`ApplyRequest`]s, fanned across the
    /// engine pool with the same discipline as [`Engine::learn_batch`]:
    /// request-ordered responses, one shared database snapshot and warm
    /// memo plane, and — when the batch actually fans out — serial inner
    /// planes (both the per-learn `Intersect_u` plane and each request's
    /// `run_column`), since batch-level parallelism already saturates the
    /// pool. Results are bit-identical at every width.
    pub fn apply_batch(&self, requests: &[ApplyRequest]) -> Vec<ApplyResponse> {
        self.apply_batch_inner(requests, None)
    }

    /// [`Engine::apply_batch`] under one shared wall-clock budget for the
    /// whole batch, with the same per-request deadline typing as
    /// [`Engine::learn_batch_with_budget`].
    pub fn apply_batch_with_budget(
        &self,
        requests: &[ApplyRequest],
        budget: Duration,
    ) -> Vec<ApplyResponse> {
        self.apply_batch_inner(requests, Some(budget))
    }

    fn apply_batch_inner(
        &self,
        requests: &[ApplyRequest],
        budget: Option<Duration>,
    ) -> Vec<ApplyResponse> {
        let fans_out = self.inner.pool.is_parallel() && requests.len() > 1;
        let synthesizer = self.batch_synthesizer(fans_out, budget);
        let serial = Pool::new(1);
        let row_pool: &Pool = if fans_out { &serial } else { &self.inner.pool };
        self.inner.pool.par_map_indexed(requests, |i, request| {
            let mut result = synthesizer
                .learn(&request.examples)
                .map_err(ServiceError::from)
                .and_then(|learned| {
                    learned
                        .top()
                        .ok_or(ServiceError::Synthesis(SynthesisError::NoConsistentProgram))
                })
                .map(|top| top.compile().run_column(&request.rows, row_pool));
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
        Synthesizer::with_shared_cache(
            self.db(),
            self.inner.options.clone(),
            Arc::clone(&self.inner.cache),
        )
    }

    /// A synthesizer view whose learns race a fresh deadline of `budget`
    /// from *now* — what the budgeted entry points and budgeted sessions
    /// learn through. Shares the warm memo plane like
    /// [`Engine::synthesizer`].
    pub(crate) fn synthesizer_with_budget(&self, budget: Duration) -> Synthesizer {
        Synthesizer::with_shared_cache(
            self.db(),
            self.inner
                .options
                .to_builder()
                .cancel_token(CancelToken::with_deadline(budget))
                .build(),
            Arc::clone(&self.inner.cache),
        )
    }

    fn read_db(&self) -> Arc<Database> {
        Arc::clone(&self.inner.db.read().unwrap_or_else(PoisonError::into_inner))
    }
}
