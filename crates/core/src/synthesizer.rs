//! The end-user facing synthesizer (§3's `Synthesize` driver).
//!
//! `Synthesize((σ₁,s₁),...,(σₙ,sₙ))` = `GenerateStr_u` on the first example,
//! then `Intersect_u` with each subsequent example's structure, then rank.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use sst_counting::BigUint;
use sst_par::{CancelToken, Pool};
use sst_syntactic::TokenSet;
use sst_tables::{Database, DbDelta, Symbol, Table, TableError, TableId};

use crate::cache::DagCache;
use crate::dstruct::SemDStruct;
use crate::eval::eval_sem;
use crate::generate::{generate_str_u_budgeted, generate_str_u_keyed, LuOptions};
use crate::intersect::intersect_du_budgeted;
use crate::language::{display_sem, SemExpr};
use crate::paraphrase::paraphrase_sem;
use crate::rank::LuRankWeights;

/// One input-output example: an input row and its desired output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Example {
    /// Input columns `v_1, ..., v_m`.
    pub inputs: Vec<String>,
    /// Desired output string.
    pub output: String,
}

impl Example {
    /// Convenience constructor.
    pub fn new<S: Into<String>>(inputs: Vec<S>, output: impl Into<String>) -> Self {
        Example {
            inputs: inputs.into_iter().map(Into::into).collect(),
            output: output.into(),
        }
    }

    /// Input columns as `&str`s.
    pub fn input_refs(&self) -> Vec<&str> {
        self.inputs.iter().map(String::as_str).collect()
    }
}

/// Failures of [`Synthesizer::learn`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SynthesisError {
    /// No examples were provided.
    NoExamples,
    /// Examples disagree on the number of input columns.
    ArityMismatch {
        /// Arity of the first example.
        expected: usize,
        /// Index of the offending example.
        example: usize,
        /// Its arity.
        found: usize,
    },
    /// No `Lu` program is consistent with all examples.
    NoConsistentProgram,
    /// Learning was cancelled mid-flight — the configured
    /// [`CancelToken`] fired (deadline expiry or caller-triggered) before
    /// the consistent-program set was complete. All caches and memos are
    /// left exactly as they were: partial results are never inserted, so
    /// an immediate retry without a budget is bit-identical to a cold
    /// learn.
    Cancelled,
}

impl fmt::Display for SynthesisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthesisError::NoExamples => f.write_str("no input-output examples provided"),
            SynthesisError::ArityMismatch {
                expected,
                example,
                found,
            } => write!(
                f,
                "example {example} has {found} input columns, expected {expected}"
            ),
            SynthesisError::NoConsistentProgram => {
                f.write_str("no transformation in the language is consistent with all examples")
            }
            SynthesisError::Cancelled => {
                f.write_str("learning was cancelled before completion (deadline or caller)")
            }
        }
    }
}

impl std::error::Error for SynthesisError {}

/// Synthesis configuration: generation options, ranking weights and the
/// perf knobs of the memoized/parallel planes.
///
/// The struct is `#[non_exhaustive]` — construct it through the builder
/// ([`SynthesisOptions::builder`]), which stays source-compatible as knobs
/// are added:
///
/// ```
/// use sst_core::SynthesisOptions;
/// let options = SynthesisOptions::builder()
///     .threads(4)
///     .dag_cache(true)
///     .top_k(10)
///     .build();
/// assert_eq!(options.threads, 4);
/// ```
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct SynthesisOptions {
    /// Generation options (depth bound, token set).
    pub lu: LuOptions,
    /// Ranking weights.
    pub weights: LuRankWeights,
    /// Whether learning runs on the memoized DAG plane ([`DagCache`]):
    /// per-value predicate/top DAGs shared by `(sources_epoch, value)`,
    /// whole repeated examples served from the session memo, and repeated
    /// intersections served from the intersection memo, keyed by the
    /// chain of example ids they fold. Results are bit-identical either
    /// way (pinned by `tests/dag_memo_equivalence.rs`); the toggle exists
    /// for that differential harness and for perf comparisons. Default:
    /// enabled.
    pub dag_cache: bool,
    /// Worker threads for the parallel `Intersect_u` plane. `1` reproduces
    /// the serial execution exactly; any other width produces bit-identical
    /// counts, sizes and ranking (pinned by `tests/parallel_equivalence.rs`
    /// — the parallel plane's merge order is fixed before any worker
    /// runs). Default: [`sst_par::default_threads`] (the machine's
    /// available parallelism).
    pub threads: usize,
    /// How many top-ranked programs APIs that don't take an explicit `k`
    /// consider: [`LearnedPrograms::top_ranked`], and upstream the service
    /// plane's `Session::top_k` / ambiguity highlighting (§3.2 flags inputs
    /// where the `top_k` best programs disagree). Default: 10.
    pub top_k: usize,
    /// Estimated top-level edge-pair product below which `Intersect_u`
    /// runs the serial path even when [`SynthesisOptions::threads`] allows
    /// fan-out (the parallel plane's setup — discovery pass plus two
    /// `thread::scope` spawns — isn't worth amortizing on small products).
    /// Purely a perf knob: both paths are pinned bit-identical. Default:
    /// [`crate::DEFAULT_PARALLEL_EDGE_PRODUCT_MIN`]; untuned on real
    /// multi-core hardware.
    pub parallel_edge_product_min: usize,
    /// Cooperative cancellation for the synthesis hot loops. The default
    /// is the inert token (zero overhead — a single `None` branch per
    /// checkpoint); a live token (deadline- or caller-triggered, see
    /// [`CancelToken`]) makes `learn` abort with
    /// [`SynthesisError::Cancelled`] at the next coarse checkpoint
    /// (per generated example, per node-pair inside `Intersect_u`, per
    /// reachability frontier step inside `GenerateStr_u`). A cancelled
    /// learn never stores partial structures into the [`DagCache`], so
    /// retrying without a budget is bit-identical to a cold learn.
    pub cancel: CancelToken,
}

impl Default for SynthesisOptions {
    fn default() -> Self {
        SynthesisOptions {
            lu: LuOptions::default(),
            weights: LuRankWeights::default(),
            dag_cache: true,
            threads: sst_par::default_threads(),
            top_k: 10,
            parallel_edge_product_min: crate::intersect::DEFAULT_PARALLEL_EDGE_PRODUCT_MIN,
            cancel: CancelToken::default(),
        }
    }
}

impl SynthesisOptions {
    /// A builder over the defaults — the only way to construct options
    /// outside this crate (the struct is `#[non_exhaustive]`).
    pub fn builder() -> SynthesisOptionsBuilder {
        SynthesisOptionsBuilder {
            options: SynthesisOptions::default(),
        }
    }

    /// A builder seeded with *these* options — for deriving a variant
    /// (e.g. the same configuration at a different thread width) without
    /// enumerating every knob.
    pub fn to_builder(&self) -> SynthesisOptionsBuilder {
        SynthesisOptionsBuilder {
            options: self.clone(),
        }
    }
}

/// Builder for [`SynthesisOptions`]; see [`SynthesisOptions::builder`].
/// Every setter returns `self`, so knobs chain; unset knobs keep their
/// defaults, and adding a knob in a future version cannot break callers.
#[derive(Debug, Clone)]
pub struct SynthesisOptionsBuilder {
    options: SynthesisOptions,
}

impl SynthesisOptionsBuilder {
    /// Replaces the generation options (depth bound, token set, substring
    /// gate) wholesale.
    pub fn lu(mut self, lu: LuOptions) -> Self {
        self.options.lu = lu;
        self
    }

    /// Reachability depth bound (`LuOptions::max_depth`); the default
    /// derives it from the database (§4.3: number of tables).
    pub fn max_depth(mut self, depth: usize) -> Self {
        self.options.lu.max_depth = Some(depth);
        self
    }

    /// Replaces the ranking weights.
    pub fn weights(mut self, weights: LuRankWeights) -> Self {
        self.options.weights = weights;
        self
    }

    /// Toggles the memoized DAG plane (see
    /// [`SynthesisOptions::dag_cache`]).
    pub fn dag_cache(mut self, enabled: bool) -> Self {
        self.options.dag_cache = enabled;
        self
    }

    /// Worker threads for the parallel `Intersect_u` plane; `0` means the
    /// machine's available parallelism and `1` the exact serial execution.
    pub fn threads(mut self, threads: usize) -> Self {
        self.options.threads = if threads == 0 {
            sst_par::default_threads()
        } else {
            threads
        };
        self
    }

    /// How many top-ranked programs implicit-`k` APIs consider (see
    /// [`SynthesisOptions::top_k`]).
    pub fn top_k(mut self, k: usize) -> Self {
        self.options.top_k = k.max(1);
        self
    }

    /// Parallel-dispatch threshold for `Intersect_u` (see
    /// [`SynthesisOptions::parallel_edge_product_min`]).
    pub fn parallel_edge_product_min(mut self, min_product: usize) -> Self {
        self.options.parallel_edge_product_min = min_product;
        self
    }

    /// Installs a cooperative cancellation token (see
    /// [`SynthesisOptions::cancel`]). The default is the inert token,
    /// which never cancels and costs nothing.
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.options.cancel = token;
        self
    }

    /// Finishes the build.
    pub fn build(self) -> SynthesisOptions {
        self.options
    }
}

/// The programming-by-example synthesizer for semantic string
/// transformations.
///
/// Holds the session's memoized DAG plane: a [`DagCache`] shared by every
/// `learn` call (and by clones of this synthesizer), so the §3.2
/// interaction loop's repeated generations and example-pair intersections
/// are served from memory. The cache is interior-mutable with a read-path
/// that takes no exclusive lock, so concurrent learns over clones share
/// the warm plane instead of serializing. It self-validates against the
/// database epoch, so [`Synthesizer::add_table`] between learning steps
/// can never leak stale structures.
#[derive(Debug, Clone)]
pub struct Synthesizer {
    db: Arc<Database>,
    options: SynthesisOptions,
    cache: Arc<DagCache>,
}

impl Synthesizer {
    /// Creates a synthesizer over a shared database with default options.
    ///
    /// The database is taken as an `Arc` natively: callers that serve many
    /// sessions over one set of background tables (the `sst-service`
    /// `Engine`) hand out clones of one allocation instead of deep-copying
    /// tables and indexes per synthesizer. An owned [`Database`] converts
    /// with `Arc::new`.
    pub fn new(db: Arc<Database>) -> Self {
        Synthesizer::with_options(db, SynthesisOptions::default())
    }

    /// Creates a synthesizer with explicit options.
    pub fn with_options(db: Arc<Database>, options: SynthesisOptions) -> Self {
        Synthesizer {
            db,
            options,
            cache: Arc::new(DagCache::new()),
        }
    }

    /// Creates a synthesizer wired to an existing memoized DAG plane. This
    /// is the service plane's seam: an `Engine` owns one warm [`DagCache`]
    /// and builds a cheap synthesizer view per learn, so every session and
    /// batch request shares the plane. The cache must only ever be shared
    /// across synthesizers with equal generation options (entries are not
    /// keyed on `LuOptions`); it self-validates against the database
    /// epoch, so sharing across database *states* is safe.
    pub fn with_shared_cache(
        db: Arc<Database>,
        options: SynthesisOptions,
        cache: Arc<DagCache>,
    ) -> Self {
        Synthesizer { db, options, cache }
    }

    /// The database (user tables + background knowledge).
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// The shared handle to the database.
    pub fn db_arc(&self) -> &Arc<Database> {
        &self.db
    }

    /// The configured options.
    pub fn options(&self) -> &SynthesisOptions {
        &self.options
    }

    /// Adds a background-knowledge table between learning steps. The
    /// database's mutation epoch moves, so the next `learn` invalidates
    /// the whole DAG cache instead of serving structures computed against
    /// the smaller database (stale reachability). Learned programs handed
    /// out earlier keep their own snapshot (`Arc`-shared).
    ///
    /// The mutated synthesizer also detaches onto a fresh cache: clones
    /// made before the mutation keep the old one, so two diverged
    /// databases never alternate `validate` clears on a shared cache
    /// (which would silently disable caching for both).
    pub fn add_table(&mut self, table: Table) -> Result<TableId, TableError> {
        let id = Arc::make_mut(&mut self.db).add_table(table)?;
        self.cache = Arc::new(DagCache::new());
        Ok(id)
    }

    /// Snapshot of the DAG-cache hit/miss counters (benchmark
    /// introspection).
    pub fn cache_stats(&self) -> crate::cache::DagCacheStats {
        self.cache.stats()
    }

    /// Learns the set of all programs consistent with the examples.
    ///
    /// The session cache is probed lock-free-ish (read locks only) on the
    /// warm path, so concurrent learns over clones share one warm plane
    /// without serializing. Intersections run through the parallel
    /// `Intersect_u` plane sized by [`SynthesisOptions::threads`]; repeated
    /// intersections (the §3.2 loop's replays of a growing prefix) are
    /// served from the intersection memo, keyed by example-id chains.
    pub fn learn(&self, examples: &[Example]) -> Result<LearnedPrograms, SynthesisError> {
        let first = examples.first().ok_or(SynthesisError::NoExamples)?;
        let arity = first.inputs.len();
        for (i, e) in examples.iter().enumerate().skip(1) {
            if e.inputs.len() != arity {
                return Err(SynthesisError::ArityMismatch {
                    expected: arity,
                    example: i,
                    found: e.inputs.len(),
                });
            }
        }
        let pool = Pool::new(self.options.threads);
        let db_epoch = self.db.epoch();
        let cancel = &self.options.cancel;
        let cache: Option<&DagCache> = self.options.dag_cache.then_some(&*self.cache);
        let generate = |e: &Example| -> (SemDStruct, Option<u32>) {
            match cache {
                Some(c) => generate_str_u_keyed(
                    &self.db,
                    &e.input_refs(),
                    &e.output,
                    &self.options.lu,
                    c,
                    cancel,
                ),
                None => (
                    generate_str_u_budgeted(
                        &self.db,
                        &e.input_refs(),
                        &e.output,
                        &self.options.lu,
                        cancel,
                    ),
                    None,
                ),
            }
        };
        let (mut d, first_id) = generate(first);
        let mut chain = first_id.map(|id| vec![id]);
        if cancel.is_cancelled() {
            return Err(SynthesisError::Cancelled);
        }
        // Union of every per-example generation's reads (NOT the final
        // intersected structure's: a mutation can change one example's
        // generation through a node the intersection later dropped). Only
        // collected under the substring gate, where node values summarize
        // the activation-relevant strings — see `SemDStruct::reads`.
        let mut reads: Option<(Vec<TableId>, Vec<Symbol>)> =
            self.options.lu.substring_gate.then(|| d.reads());
        for e in &examples[1..] {
            let (next, next_id) = generate(e);
            if cancel.is_cancelled() {
                return Err(SynthesisError::Cancelled);
            }
            if let Some((tables, vals)) = &mut reads {
                let (t2, v2) = next.reads();
                tables.extend(t2);
                tables.sort_unstable();
                tables.dedup();
                vals.extend(v2);
                vals.sort_unstable();
                vals.dedup();
            }
            (d, chain) = intersect_step(
                cache,
                db_epoch,
                d,
                chain,
                &next,
                next_id,
                &pool,
                self.options.parallel_edge_product_min,
                cancel,
            );
            if cancel.is_cancelled() {
                return Err(SynthesisError::Cancelled);
            }
            if !d.has_programs() {
                return Err(SynthesisError::NoConsistentProgram);
            }
        }
        if !d.has_programs() {
            return Err(SynthesisError::NoConsistentProgram);
        }
        Ok(LearnedPrograms {
            depth: self.options.lu.depth_for(&self.db),
            dstruct: d,
            db: Arc::clone(&self.db),
            options: self.options.clone(),
            reads,
        })
    }
}

/// One `d ∩ next` step of the learn loop: served from the intersection
/// memo when `d` carries the chain of example ids it folds and `next` an
/// example id (each id names one value forever, so the extended chain
/// names exactly the result's value), computed through the parallel plane
/// and stored otherwise. The extended chain keys the next step. A
/// cancellation observed during the compute skips the store — partial
/// intersections never enter the memo — and the caller aborts the learn at
/// its own checkpoint.
#[allow(clippy::too_many_arguments)]
fn intersect_step(
    cache: Option<&DagCache>,
    db_epoch: u64,
    a: SemDStruct,
    a_chain: Option<Vec<u32>>,
    b: &SemDStruct,
    b_id: Option<u32>,
    pool: &Pool,
    parallel_edge_product_min: usize,
    cancel: &CancelToken,
) -> (SemDStruct, Option<Vec<u32>>) {
    match (cache, a_chain, b_id) {
        (Some(c), Some(mut chain), Some(ib)) => {
            chain.push(ib);
            if let Some(hit) = c.intersection(db_epoch, &chain) {
                return (hit, Some(chain));
            }
            let r = intersect_du_budgeted(&a, b, pool, parallel_edge_product_min, cancel);
            if cancel.is_cancelled() {
                return (r, None);
            }
            c.store_intersection(db_epoch, &chain, &r);
            (r, Some(chain))
        }
        _ => (
            intersect_du_budgeted(&a, b, pool, parallel_edge_product_min, cancel),
            None,
        ),
    }
}

/// The set of all consistent programs, plus ranking; the result of
/// [`Synthesizer::learn`].
#[derive(Debug, Clone)]
pub struct LearnedPrograms {
    dstruct: SemDStruct,
    db: Arc<Database>,
    options: SynthesisOptions,
    depth: usize,
    /// Union of every per-example generation's database reads (tables,
    /// node values), for [`LearnedPrograms::survives`]. `None` when the
    /// learn ran without the substring gate (not revalidatable).
    reads: Option<(Vec<TableId>, Vec<Symbol>)>,
}

impl LearnedPrograms {
    /// The underlying `Du` data structure.
    pub fn dstruct(&self) -> &SemDStruct {
        &self.dstruct
    }

    /// True iff the mutation span `delta` provably leaves this learn
    /// result intact: re-learning the same examples against the mutated
    /// database would produce a bit-identical structure, and the bundled
    /// programs evaluate identically (they only probe tables the learn
    /// read, none of which mutated). Upstream session caches use this to
    /// keep learned results — and their compiled forms — warm across
    /// unrelated row-level mutations. Structural deltas and gate-off
    /// learns never survive.
    pub fn survives(&self, delta: &DbDelta) -> bool {
        if delta.is_empty() {
            return true;
        }
        match &self.reads {
            Some((tables, vals)) => !delta.affects(tables, vals),
            None => false,
        }
    }

    /// Exact number of consistent programs with lookup depth ≤ k
    /// (Figure 11a's metric).
    pub fn count(&self) -> BigUint {
        self.dstruct.count(self.depth)
    }

    /// Data-structure size in terminal symbols (Figure 11b's metric).
    pub fn size(&self) -> usize {
        self.dstruct.size()
    }

    /// The top-ranked program.
    pub fn top(&self) -> Option<Program> {
        self.options
            .weights
            .best(&self.dstruct, self.depth)
            .map(|r| Program {
                expr: r.expr,
                cost: r.cost,
                db: Arc::clone(&self.db),
                tokens: self.options.lu.syntactic.token_set.clone(),
            })
    }

    /// The configured number of top-ranked programs
    /// ([`SynthesisOptions::top_k`]), ascending cost — the implicit-`k`
    /// variant of [`LearnedPrograms::top_k`] the §3.2 ambiguity model runs
    /// on.
    pub fn top_ranked(&self) -> Vec<Program> {
        self.top_k(self.options.top_k)
    }

    /// Up to `k` top-ranked programs, ascending cost.
    pub fn top_k(&self, k: usize) -> Vec<Program> {
        self.options
            .weights
            .top_k(&self.dstruct, self.depth, k)
            .into_iter()
            .map(|r| Program {
                expr: r.expr,
                cost: r.cost,
                db: Arc::clone(&self.db),
                tokens: self.options.lu.syntactic.token_set.clone(),
            })
            .collect()
    }

    /// Runs the top program on a fresh input row.
    pub fn run(&self, inputs: &[&str]) -> Option<String> {
        self.top()?.run(inputs)
    }

    /// Distinct outputs produced by the `k` best programs on an input —
    /// the §3.2 interaction model flags inputs where this set has ≥ 2
    /// entries.
    pub fn outputs(&self, inputs: &[&str], k: usize) -> BTreeSet<String> {
        self.top_k(k).iter().filter_map(|p| p.run(inputs)).collect()
    }
}

/// A concrete, runnable transformation (bundles the database and token set
/// so it can be applied anywhere).
#[derive(Debug, Clone)]
pub struct Program {
    expr: SemExpr,
    cost: u64,
    db: Arc<Database>,
    tokens: TokenSet,
}

impl Program {
    /// The program's expression tree.
    pub fn expr(&self) -> &SemExpr {
        &self.expr
    }

    /// The ranking cost (lower = preferred).
    pub fn cost(&self) -> u64 {
        self.cost
    }

    /// Applies the program to an input row.
    pub fn run(&self, inputs: &[&str]) -> Option<String> {
        eval_sem(&self.expr, &self.db, inputs, &self.tokens)
    }

    /// Lowers the program to linear bytecode for batch application
    /// ([`crate::CompiledProgram`]): pre-resolved token plans, compile-time
    /// interned constant probe values, reusable buffers. Output is
    /// bit-identical to [`Program::run`] on every row.
    pub fn compile(&self) -> crate::CompiledProgram {
        crate::CompiledProgram::lower(&self.expr, Arc::clone(&self.db), &self.tokens)
    }

    /// An English description of the program (§3.2's paraphrasing).
    pub fn paraphrase(&self) -> String {
        paraphrase_sem(&self.expr, &self.db)
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&display_sem(&self.expr, &self.db))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sst_tables::Table;

    fn comp_db() -> Database {
        Database::from_tables(vec![Table::new(
            "Comp",
            vec!["Id", "Name"],
            vec![
                vec!["c1", "Microsoft"],
                vec!["c2", "Google"],
                vec!["c3", "Apple"],
            ],
        )
        .unwrap()])
        .unwrap()
    }

    #[test]
    fn learn_simple_lookup() {
        let s = Synthesizer::new(Arc::new(comp_db()));
        let learned = s.learn(&[Example::new(vec!["c2"], "Google")]).unwrap();
        let top = learned.top().unwrap();
        assert_eq!(top.run(&["c1"]).as_deref(), Some("Microsoft"));
        assert!(top.to_string().contains("Select(Name, Comp"));
    }

    #[test]
    fn errors_are_reported() {
        let s = Synthesizer::new(Arc::new(comp_db()));
        assert_eq!(s.learn(&[]).unwrap_err(), SynthesisError::NoExamples);
        let err = s
            .learn(&[
                Example::new(vec!["a"], "x"),
                Example::new(vec!["a", "b"], "y"),
            ])
            .unwrap_err();
        assert!(matches!(err, SynthesisError::ArityMismatch { .. }));
        let err = s
            .learn(&[
                Example::new(vec!["c2"], "Google"),
                Example::new(vec!["c2"], "Apple"),
            ])
            .unwrap_err();
        assert_eq!(err, SynthesisError::NoConsistentProgram);
    }

    #[test]
    fn outputs_reports_ambiguity() {
        let s = Synthesizer::new(Arc::new(comp_db()));
        let learned = s.learn(&[Example::new(vec!["c2"], "Google")]).unwrap();
        // On the training input every program agrees.
        let outs = learned.outputs(&["c2"], 5);
        assert_eq!(outs.len(), 1);
        assert!(outs.contains("Google"));
        // On a new input the constant program (if present among top-k)
        // disagrees with the lookup.
        let outs = learned.outputs(&["c3"], 8);
        assert!(outs.contains("Apple"));
    }

    #[test]
    fn count_and_size_metrics() {
        let s = Synthesizer::new(Arc::new(comp_db()));
        let learned = s.learn(&[Example::new(vec!["c2"], "Google")]).unwrap();
        assert!(learned.count() > BigUint::from(1u64));
        assert!(learned.size() > 0);
    }

    #[test]
    fn add_table_invalidates_the_dag_cache() {
        // Warm the whole-example memo while the database cannot solve the
        // task semantically: the learned set is constants-only.
        let mut s = Synthesizer::new(Arc::new(Database::new()));
        let example = Example::new(vec!["c2"], "Google");
        let constant_only = s.learn(std::slice::from_ref(&example)).unwrap();
        assert_eq!(
            constant_only.run(&["c1"]).as_deref(),
            Some("Google"),
            "without tables only the constant program exists"
        );

        // Mutate the database between learning steps. A stale memo hit
        // would keep serving the constants-only structure; the epoch bump
        // must invalidate it so the new table's lookups are found.
        s.add_table(
            Table::new(
                "Comp",
                vec!["Id", "Name"],
                vec![
                    vec!["c1", "Microsoft"],
                    vec!["c2", "Google"],
                    vec!["c3", "Apple"],
                ],
            )
            .unwrap(),
        )
        .unwrap();
        let relearned = s.learn(std::slice::from_ref(&example)).unwrap();
        assert_eq!(
            relearned.run(&["c1"]).as_deref(),
            Some("Microsoft"),
            "stale DAG cache served: the lookup row is reachable now"
        );

        // And the post-mutation session is bit-identical to a fresh
        // synthesizer over the same database.
        let fresh = Synthesizer::new(Arc::new(s.db().clone()));
        let baseline = fresh.learn(std::slice::from_ref(&example)).unwrap();
        assert_eq!(relearned.count(), baseline.count());
        assert_eq!(relearned.size(), baseline.size());
    }

    #[test]
    fn cloned_synthesizers_share_one_cache() {
        let s = Synthesizer::new(Arc::new(comp_db()));
        let clone = s.clone();
        s.learn(&[Example::new(vec!["c2"], "Google")]).unwrap();
        let warmed = clone.cache_stats();
        assert!(
            warmed.example_misses > 0 || warmed.dag_misses > 0,
            "clones observe the shared cache: {warmed:?}"
        );
        // The clone's next learn of the same example is a memo hit.
        clone.learn(&[Example::new(vec!["c2"], "Google")]).unwrap();
        assert!(clone.cache_stats().example_hits > 0);
    }

    #[test]
    fn cancelled_learn_aborts_and_leaves_caches_clean() {
        let db = Arc::new(comp_db());
        let examples = [
            Example::new(vec!["c2"], "Google"),
            Example::new(vec!["c1"], "Microsoft"),
        ];
        // An already-expired deadline: the learn must abort with the typed
        // error at the first checkpoint.
        let cancelled = Synthesizer::with_options(
            Arc::clone(&db),
            SynthesisOptions::builder()
                .cancel_token(CancelToken::with_deadline(std::time::Duration::ZERO))
                .build(),
        );
        assert_eq!(
            cancelled.learn(&examples).unwrap_err(),
            SynthesisError::Cancelled
        );

        // Nothing partial entered the shared plane: a learn over the very
        // same cache serves no example memo entries from the aborted
        // attempt and matches a cold engine bit for bit.
        let warm = Synthesizer::with_shared_cache(
            Arc::clone(&db),
            SynthesisOptions::default(),
            Arc::clone(&cancelled.cache),
        );
        let relearned = warm.learn(&examples).unwrap();
        assert_eq!(
            warm.cache_stats().example_hits,
            0,
            "cancelled learn must not have stored example structures"
        );
        let fresh = Synthesizer::new(db).learn(&examples).unwrap();
        assert_eq!(relearned.count(), fresh.count());
        assert_eq!(relearned.size(), fresh.size());
    }

    #[test]
    fn caller_triggered_cancel_token_is_shared_across_clones() {
        let token = CancelToken::new();
        let s = Synthesizer::with_options(
            Arc::new(comp_db()),
            SynthesisOptions::builder()
                .cancel_token(token.clone())
                .build(),
        );
        // Not yet cancelled: the learn completes normally.
        s.learn(&[Example::new(vec!["c2"], "Google")]).unwrap();
        token.cancel();
        assert_eq!(
            s.learn(&[Example::new(vec!["c3"], "Apple")]).unwrap_err(),
            SynthesisError::Cancelled
        );
    }

    #[test]
    fn two_examples_converge() {
        let s = Synthesizer::new(Arc::new(comp_db()));
        let learned = s
            .learn(&[
                Example::new(vec!["c2"], "Google"),
                Example::new(vec!["c1"], "Microsoft"),
            ])
            .unwrap();
        assert_eq!(learned.run(&["c3"]).as_deref(), Some("Apple"));
    }
}
