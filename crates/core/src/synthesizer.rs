//! The end-user facing synthesizer (§3's `Synthesize` driver).
//!
//! `Synthesize((σ₁,s₁),...,(σₙ,sₙ))` = `GenerateStr_u` on the first example,
//! then `Intersect_u` with each subsequent example's structure, then rank.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use sst_counting::BigUint;
use sst_syntactic::TokenSet;
use sst_tables::Database;

use crate::cache::{DagCache, TopEntry, TopMemo};
use crate::dstruct::SemDStruct;
use crate::eval::eval_sem;
use crate::generate::{generate_str_u_impl, generate_str_u_keyed, LuOptions};
use crate::intersect::{intersect_du_impl, Product};
use crate::language::{display_sem, SemExpr};
use crate::paraphrase::paraphrase_sem;
use crate::rank::LuRankWeights;
use crate::CancelToken;

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
    /// Learning was cancelled mid-flight — the synthesizer's
    /// [`CancelToken`] ([`Synthesizer::with_cancel`]) fired (deadline
    /// expiry or caller-triggered) before the consistent-program set was
    /// complete. All caches and memos are left exactly as they were:
    /// partial results are never inserted, so an immediate retry without a
    /// budget is bit-identical to a cold learn.
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

/// Synthesis configuration: generation options, ranking weights, the
/// memoized DAG plane toggle, the serving pool width and the implicit
/// `k`. A [`DagCache`] owns one and every synthesizer over it learns
/// under it.
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
    /// Width of the engine pool that the service plane (`sst-service`'s
    /// `Engine`) builds from these options: batch requests fan out across
    /// it, and so do `run_column`'s row ranges. Learning itself is serial,
    /// so the width never changes a learned observable (pinned at widths 1,
    /// 2 and the machine width by `tests/service_equivalence.rs`). Default:
    /// [`crate::default_threads`] (the machine's available parallelism).
    pub threads: usize,
    /// How many top-ranked programs the service plane considers where a
    /// caller gives no explicit `k`: `Session::top_k`, ambiguity
    /// highlighting (§3.2 flags inputs where the `top_k` best programs
    /// disagree) and a learn response's ranked programs. Default: 10.
    pub top_k: usize,
}

impl Default for SynthesisOptions {
    fn default() -> Self {
        SynthesisOptions {
            lu: LuOptions::default(),
            weights: LuRankWeights::default(),
            dag_cache: true,
            threads: crate::default_threads(),
            top_k: 10,
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

    /// Width of the serving pool (see [`SynthesisOptions::threads`]); `0`
    /// means the machine's available parallelism.
    pub fn threads(mut self, threads: usize) -> Self {
        self.options.threads = if threads == 0 {
            crate::default_threads()
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
/// are served from memory. The cache owns the [`SynthesisOptions`] the
/// synthesizer learns under. It is interior-mutable with a read-path
/// that takes no exclusive lock, so concurrent learns over clones share
/// the warm plane instead of serializing. It self-validates against the
/// database epoch, so a database mutated between learning steps (through
/// `sst-service`'s `Engine`, the one owner of a mutable database) can
/// never leak stale structures.
#[derive(Debug, Clone)]
pub struct Synthesizer {
    db: Arc<Database>,
    cache: Arc<DagCache>,
    cancel: CancelToken,
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
        Synthesizer::with_shared_cache(db, Arc::new(DagCache::new(options)))
    }

    /// Creates a synthesizer wired to an existing memoized DAG plane,
    /// learning under the cache's options. This is the service plane's
    /// seam: an `Engine` owns one warm [`DagCache`] and builds a cheap
    /// synthesizer view per learn, so every session and batch request
    /// shares the plane.
    pub fn with_shared_cache(db: Arc<Database>, cache: Arc<DagCache>) -> Self {
        Synthesizer {
            db,
            cache,
            cancel: CancelToken::default(),
        }
    }

    /// This synthesizer learning under `cancel`: a fired token (deadline-
    /// or caller-triggered, see [`CancelToken`]) makes `learn` abort with
    /// [`SynthesisError::Cancelled`] at the next coarse checkpoint (per
    /// generated example; per node-pair and per left-operand edge of every
    /// DAG product inside `Intersect_u`; per reachability frontier step
    /// and activated row inside `GenerateStr_u`). Clones share the token.
    /// A cancelled learn never stores partial structures into the
    /// [`DagCache`], so retrying without a token is bit-identical to a
    /// cold learn. Without a token, the inert default costs a single
    /// `None` branch per checkpoint.
    pub fn with_cancel(self, cancel: CancelToken) -> Self {
        Synthesizer { cancel, ..self }
    }

    /// The database (user tables + background knowledge).
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// The shared handle to the database.
    pub fn db_arc(&self) -> &Arc<Database> {
        &self.db
    }

    /// The options this synthesizer learns under (its cache's).
    pub fn options(&self) -> &SynthesisOptions {
        self.cache.options()
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
    /// without serializing. Each further example folds in through one
    /// serial `Intersect_u` (§5.3); repeated intersections (the §3.2 loop's
    /// replays of a growing prefix) are served from the intersection memo,
    /// keyed by example-id chains. The result carries a handle to the
    /// ranked memo entry of the same chain, so its [`LearnedPrograms::top`]
    /// and the top program's [`Program::compile`] are served from memory
    /// when another learn already ranked and compiled this structure.
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
        let db_epoch = self.db.epoch();
        let cancel = &self.cancel;
        let options = self.cache.options();
        let cache: Option<&DagCache> = options.dag_cache.then_some(&*self.cache);
        let generate = |e: &Example| -> (SemDStruct, Option<u32>) {
            let inputs = e.input_refs();
            match cache {
                Some(c) => generate_str_u_keyed(&self.db, &inputs, &e.output, c, cancel),
                None => (
                    generate_str_u_impl(&self.db, &inputs, &e.output, &options.lu, None, cancel),
                    None,
                ),
            }
        };
        let (mut d, first_id) = generate(first);
        let mut chain = first_id.map(|id| vec![id]);
        if cancel.is_cancelled() {
            return Err(SynthesisError::Cancelled);
        }
        for e in &examples[1..] {
            let (next, next_id) = generate(e);
            if cancel.is_cancelled() {
                return Err(SynthesisError::Cancelled);
            }
            (d, chain) = intersect_step(cache, db_epoch, d, chain, &next, next_id, cancel);
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
        let depth = options.lu.depth_for(&self.db);
        let shared = cache
            .zip(chain)
            .and_then(|(c, chain)| c.top_entry(db_epoch, &chain, depth));
        let memo = match shared {
            Some(entry) => TopMemo::new(entry, Some(Arc::downgrade(&self.cache))),
            None => TopMemo::new(Arc::new(TopEntry::new(depth)), None),
        };
        Ok(LearnedPrograms {
            depth,
            dstruct: d,
            db: Arc::clone(&self.db),
            options: Arc::clone(options),
            memo,
        })
    }
}

/// One `d ∩ next` step of the learn loop: served from the intersection
/// memo when `d` carries the chain of example ids it folds and `next` an
/// example id (each id names one value forever, so the extended chain
/// names exactly the result's value), computed and stored otherwise. The
/// extended chain keys the next step. A cancellation observed during the
/// compute skips the store — partial intersections never enter the memo —
/// and the caller aborts the learn at its own checkpoint.
fn intersect_step(
    cache: Option<&DagCache>,
    db_epoch: u64,
    a: SemDStruct,
    a_chain: Option<Vec<u32>>,
    b: &SemDStruct,
    b_id: Option<u32>,
    cancel: &CancelToken,
) -> (SemDStruct, Option<Vec<u32>>) {
    match (cache, a_chain, b_id) {
        (Some(c), Some(mut chain), Some(ib)) => {
            chain.push(ib);
            if let Some(hit) = c.intersection(db_epoch, &chain) {
                return (hit, Some(chain));
            }
            let r = intersect_du_impl(&a, b, Product::Pruned, cancel);
            if cancel.is_cancelled() {
                return (r, None);
            }
            c.store_intersection(db_epoch, &chain, &r);
            (r, Some(chain))
        }
        _ => (intersect_du_impl(&a, b, Product::Pruned, cancel), None),
    }
}

/// The set of all consistent programs, plus ranking; the result of
/// [`Synthesizer::learn`].
#[derive(Debug, Clone)]
pub struct LearnedPrograms {
    dstruct: SemDStruct,
    db: Arc<Database>,
    /// The options of the cache it was learned through.
    options: Arc<SynthesisOptions>,
    depth: usize,
    /// The ranked memo entry behind [`LearnedPrograms::top`]: shared
    /// through the [`DagCache`] when an example-id chain names the
    /// structure, private to this learned set (and its clones) otherwise.
    memo: TopMemo,
}

impl LearnedPrograms {
    /// The underlying `Du` data structure.
    pub fn dstruct(&self) -> &SemDStruct {
        &self.dstruct
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
    ///
    /// Memoized: the structure is ranked once per memo entry — shared by
    /// every learn of the same examples through one [`DagCache`] at the
    /// same lookup depth, or private to this learned set — and
    /// later calls clone the stored program. The returned program's
    /// [`Program::compile`] is memoized the same way.
    pub fn top(&self) -> Option<Program> {
        let top = self.memo.top(&self.dstruct, &self.options.weights);
        top.map(|r| Program {
            expr: r.expr.clone(),
            cost: r.cost,
            db: Arc::clone(&self.db),
            options: Arc::clone(&self.options),
            memo: Some(self.memo.clone()),
        })
    }

    /// Up to `k` top-ranked programs, ascending cost. The first is
    /// [`LearnedPrograms::top`]'s program (ranked afresh, not memoized).
    pub fn top_k(&self, k: usize) -> Vec<Program> {
        self.options
            .weights
            .top_k(&self.dstruct, self.depth, k)
            .into_iter()
            .map(|r| Program {
                expr: r.expr,
                cost: r.cost,
                db: Arc::clone(&self.db),
                options: Arc::clone(&self.options),
                memo: None,
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

/// A concrete, runnable transformation (bundles the database and the
/// options holding its token set, so it can be applied anywhere).
#[derive(Debug, Clone)]
pub struct Program {
    expr: SemExpr,
    cost: u64,
    db: Arc<Database>,
    options: Arc<SynthesisOptions>,
    /// Set on [`LearnedPrograms::top`]'s program: where
    /// [`Program::compile`] finds and stores its compiled form.
    memo: Option<TopMemo>,
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
        eval_sem(&self.expr, &self.db, inputs, self.tokens())
    }

    /// Lowers the program to linear bytecode for batch application
    /// ([`crate::CompiledProgram`]): pre-resolved token plans, compile-time
    /// interned constant probe values, reusable buffers. Output is
    /// bit-identical to [`Program::run`] on every row.
    ///
    /// Memoized for the program [`LearnedPrograms::top`] returns: its
    /// learned set lowers it once, and learned sets sharing a ranked memo
    /// entry share the compiled form while the database stays at the
    /// epoch it was lowered against. Other programs lower on every call.
    pub fn compile(&self) -> Arc<crate::CompiledProgram> {
        let lower =
            || crate::CompiledProgram::lower(&self.expr, Arc::clone(&self.db), self.tokens());
        match &self.memo {
            Some(memo) => memo.compile(&self.db, lower),
            None => Arc::new(lower()),
        }
    }

    fn tokens(&self) -> &TokenSet {
        &self.options.lu.syntactic.token_set
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
        let cancelled = Synthesizer::new(Arc::clone(&db))
            .with_cancel(CancelToken::with_deadline(std::time::Duration::ZERO));
        assert_eq!(
            cancelled.learn(&examples).unwrap_err(),
            SynthesisError::Cancelled
        );

        // Nothing partial entered the shared plane: a learn over the very
        // same cache serves no example memo entries from the aborted
        // attempt and matches a cold engine bit for bit.
        let warm = Synthesizer::with_shared_cache(Arc::clone(&db), Arc::clone(&cancelled.cache));
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
        let s = Synthesizer::new(Arc::new(comp_db())).with_cancel(token.clone());
        let clone = s.clone();
        // Not yet cancelled: the learn completes normally.
        s.learn(&[Example::new(vec!["c2"], "Google")]).unwrap();
        token.cancel();
        assert_eq!(
            clone
                .learn(&[Example::new(vec!["c3"], "Apple")])
                .unwrap_err(),
            SynthesisError::Cancelled
        );
    }

    #[test]
    fn compiled_top_is_scoped_to_the_database_epoch() {
        // Two database states sharing one cache: the example's structure
        // (and so its chain and ranking) is the same in both, but the
        // compiled program bakes in the lookup table's cells.
        let cache = Arc::new(DagCache::new(SynthesisOptions::default()));
        let synthesizer =
            |db: Database| Synthesizer::with_shared_cache(Arc::new(db), Arc::clone(&cache));
        let example = [Example::new(vec!["c2"], "Google")];
        let before = synthesizer(comp_db()).learn(&example).unwrap();
        let compiled = before.top().unwrap().compile();
        assert_eq!(compiled.run_row(&["c3"]).as_deref(), Some("Apple"));

        let mut mutated = comp_db();
        mutated.update_cell(0, 1, 2, "Apricot").unwrap();
        let after = synthesizer(mutated).learn(&example).unwrap();
        let top = after.top().unwrap();
        assert_eq!(cache.stats().rank_hits, 1, "the ranking is served");
        assert_eq!(
            top.compile().run_row(&["c3"]).as_deref(),
            Some("Apricot"),
            "a compiled program lowered at another epoch was served"
        );
        assert_eq!(cache.stats().compile_misses, 2);
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

    /// `Ls` is `Lu` over a database with no tables.
    fn ls() -> Synthesizer {
        Synthesizer::new(Arc::new(Database::new()))
    }

    fn run(learned: &LearnedPrograms, inputs: &[&str]) -> Option<String> {
        learned.top().unwrap().run(inputs)
    }

    #[test]
    fn ls_name_initial_format_generalizes() {
        let learned = ls()
            .learn(&[Example::new(vec!["Alan Turing"], "Turing A")])
            .unwrap();
        assert_eq!(
            run(&learned, &["Grace Hopper"]).as_deref(),
            Some("Hopper G")
        );
        let learned = ls()
            .learn(&[
                Example::new(vec!["Alan Turing"], "Turing A"),
                Example::new(vec!["Grace Hopper"], "Hopper G"),
            ])
            .unwrap();
        assert_eq!(
            run(&learned, &["Barbara Liskov"]).as_deref(),
            Some("Liskov B")
        );
    }

    #[test]
    fn ls_two_examples_drop_constants() {
        let learned = ls()
            .learn(&[
                Example::new(vec!["ab 12 cd"], "12"),
                Example::new(vec!["qq 7 rr"], "7"),
            ])
            .unwrap();
        assert_eq!(run(&learned, &["zz 999 kk"]).as_deref(), Some("999"));
    }

    #[test]
    fn ls_inconsistent_examples_have_no_program() {
        let err = ls()
            .learn(&[Example::new(vec!["a"], "X"), Example::new(vec!["a"], "Y")])
            .unwrap_err();
        assert_eq!(err, SynthesisError::NoConsistentProgram);
    }

    #[test]
    fn ls_without_examples_is_an_error() {
        assert_eq!(ls().learn(&[]).unwrap_err(), SynthesisError::NoExamples);
    }

    #[test]
    fn ls_count_and_size_reported() {
        let learned = ls().learn(&[Example::new(vec!["abcd"], "abcd")]).unwrap();
        assert!(learned.count() > BigUint::from(1u64));
        assert!(learned.size() > 0);
        assert_eq!(run(&learned, &["abcd"]).as_deref(), Some("abcd"));
    }

    #[test]
    fn ls_multi_variable_concatenation() {
        let learned = ls()
            .learn(&[
                Example::new(vec!["Honda", "125"], "Honda-125"),
                Example::new(vec!["Ducati", "250"], "Ducati-250"),
            ])
            .unwrap();
        assert_eq!(
            run(&learned, &["Yamaha", "600"]).as_deref(),
            Some("Yamaha-600")
        );
    }
}
