//! The [`Session`]: one §3.2 conversation as a stateful handle.

use std::sync::Arc;
use std::time::Duration;

use sst_core::{
    converge, distinguishing_input, highlight_ambiguous, CompiledProgram, Example, LearnedPrograms,
    Program, SynthesisError,
};
use sst_counting::BigUint;
use sst_tables::{Table, TableId};

use crate::engine::{with_deadline_error, Engine};
use crate::types::{ServiceError, SessionStatus};

/// The cached result of the session's last learn. Every change to the
/// example list drops it, so it always covers the current examples; the
/// database epoch it was computed under makes staleness a cheap
/// comparison.
#[derive(Debug)]
struct CachedLearn {
    /// Database epoch at learn time.
    db_epoch: u64,
    learned: LearnedPrograms,
}

/// One interactive learning conversation (the §3.2 protocol), backed by a
/// shared [`Engine`].
///
/// The session accumulates examples ([`Session::add_example`]) and watches
/// the spreadsheet's input rows ([`Session::watch_inputs`]); every query —
/// [`Session::status`], [`Session::top_k`], [`Session::run`],
/// [`Session::paraphrase`] — learns lazily over the current examples and
/// caches the result, so callers never hand-roll the re-learn loop. The
/// learn itself runs through the engine's shared memo plane: re-learning
/// on a grown example prefix replays earlier generations and intersections
/// as memo hits, and any mutation through the engine (a table added
/// through [`Engine::add_table`] or [`Session::add_table`], a row
/// inserted, updated or deleted) invalidates every session's cached learn
/// at once via the database epoch.
///
/// Sessions are independent: two sessions on one engine hold separate
/// conversations over the same background knowledge.
#[derive(Debug)]
pub struct Session {
    engine: Engine,
    examples: Vec<Example>,
    inputs: Vec<Vec<String>>,
    learned: Option<CachedLearn>,
    /// Wall-clock budget for each (re-)learn this session triggers; `None`
    /// learns without a deadline. Set per request by the serving layer
    /// (the `deadline-ms` header or the server default).
    budget: Option<Duration>,
}

/// What [`Session::converge_with`] reached: how many examples the oracle
/// had to supply, and whether the top program ended up correct on every
/// row within the budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionConvergence {
    /// Examples supplied when the loop stopped.
    pub examples_used: usize,
    /// Whether the top-ranked program was correct on every ground-truth
    /// row within the example budget.
    pub converged: bool,
}

impl Session {
    pub(crate) fn new(engine: Engine) -> Self {
        Session {
            engine,
            examples: Vec::new(),
            inputs: Vec::new(),
            learned: None,
            budget: None,
        }
    }

    /// Sets (or clears) the wall-clock budget covering each learn this
    /// session triggers. A learn the deadline interrupts is cooperatively
    /// cancelled — all shared memos stay valid, the session's cached learn
    /// is untouched — and the query answers
    /// [`ServiceError::DeadlineExceeded`]; the deadline starts ticking at
    /// the query that triggers the learn, not at `set_budget`.
    pub fn set_budget(&mut self, budget: Option<Duration>) {
        self.budget = budget;
    }

    /// The session's learn budget, if any.
    pub fn budget(&self) -> Option<Duration> {
        self.budget
    }

    /// The engine this session learns through.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The examples supplied so far, in order.
    pub fn examples(&self) -> &[Example] {
        &self.examples
    }

    /// Supplies one more input-output example (a §3.2 user fix). The next
    /// query re-learns over the grown prefix — through the shared memo
    /// plane, so earlier examples and example-pair intersections replay
    /// from memory.
    pub fn add_example(&mut self, example: Example) {
        self.examples.push(example);
        self.learned = None;
    }

    /// Supplies several examples at once.
    pub fn add_examples(&mut self, examples: impl IntoIterator<Item = Example>) {
        let before = self.examples.len();
        self.examples.extend(examples);
        if self.examples.len() != before {
            self.learned = None;
        }
    }

    /// Retracts the example at `index` (a §3.2 user un-fix: the user
    /// realizes a supplied output was wrong). The next query re-learns
    /// over the remaining sequence: every change to the examples drops
    /// the cached learn, so removing one example and adding a different
    /// one never serves the stale set even though the count is unchanged.
    pub fn remove_example(&mut self, index: usize) -> Example {
        self.learned = None;
        self.examples.remove(index)
    }

    /// Clears the conversation's examples entirely (watched inputs are
    /// kept).
    pub fn clear_examples(&mut self) {
        self.examples.clear();
        self.learned = None;
    }

    /// Declares the spreadsheet's input rows — what [`Session::status`]
    /// scans for ambiguity. Replaces any previously watched rows.
    pub fn watch_inputs(&mut self, inputs: Vec<Vec<String>>) {
        self.inputs = inputs;
    }

    /// The watched input rows.
    pub fn inputs(&self) -> &[Vec<String>] {
        &self.inputs
    }

    /// Adds a background table through the engine — visible to **all**
    /// sessions, with exactly one epoch bump (see [`Engine::add_table`]).
    pub fn add_table(&self, table: Table) -> Result<TableId, ServiceError> {
        self.engine.add_table(table)
    }

    /// Where the conversation stands (§3.2): [`SessionStatus::Converged`]
    /// when the engine's `top_k` best programs agree on every watched
    /// input row, otherwise the ambiguous rows the user should check.
    /// With no examples yet, every watched row needs one.
    pub fn status(&mut self) -> Result<SessionStatus, ServiceError> {
        if self.examples.is_empty() {
            return Ok(SessionStatus::NeedsExamples {
                ambiguous_inputs: self.inputs.clone(),
            });
        }
        let k = self.engine.default_top_k();
        self.ensure_learned()?;
        let learned = &self.learned.as_ref().expect("just ensured").learned;
        let flagged = highlight_ambiguous(learned, &self.inputs, k);
        Ok(if flagged.is_empty() {
            SessionStatus::Converged
        } else {
            SessionStatus::NeedsExamples {
                ambiguous_inputs: flagged.iter().map(|&i| self.inputs[i].clone()).collect(),
            }
        })
    }

    /// The first watched row on which at least two of the `top_k` best
    /// programs disagree — the cheapest question to ask the user (§3.2,
    /// oracle-guided synthesis).
    pub fn distinguishing_input(&mut self) -> Result<Option<Vec<String>>, ServiceError> {
        let k = self.engine.default_top_k();
        self.ensure_learned()?;
        let learned = &self.learned.as_ref().expect("just ensured").learned;
        let found = distinguishing_input(learned, &self.inputs, k);
        Ok(found.map(|i| self.inputs[i].clone()))
    }

    /// The learned program set over the current examples, learning (or
    /// re-learning) if the examples or the database moved since the last
    /// query.
    pub fn learned(&mut self) -> Result<&LearnedPrograms, ServiceError> {
        self.ensure_learned()?;
        Ok(&self.learned.as_ref().expect("just ensured").learned)
    }

    /// Fills (or refreshes) the cached learn. Split from
    /// [`Session::learned`] so queries that also read other session fields
    /// (`status`, `distinguishing_input`) can end the mutable borrow
    /// before touching them — and so an `Err` never disturbs session
    /// state.
    ///
    /// The cached learn is kept only while the examples and the database
    /// epoch are unchanged. After any mutation the session re-learns
    /// through the engine's memo plane: each example regenerates, and an
    /// example whose structure came out equal keeps its id, so its
    /// intersection chains and ranked entry are served warm.
    fn ensure_learned(&mut self) -> Result<(), ServiceError> {
        let synthesizer = self.engine.budgeted_synthesizer(self.budget);
        let db_epoch = synthesizer.db_arc().epoch();
        if self
            .learned
            .as_ref()
            .is_some_and(|cached| cached.db_epoch == db_epoch)
        {
            return Ok(());
        }
        let mut result = synthesizer
            .learn(&self.examples)
            .map_err(ServiceError::from);
        if let Some(budget) = self.budget {
            result = with_deadline_error(result, budget);
        }
        let learned = result?;
        self.learned = Some(CachedLearn { db_epoch, learned });
        Ok(())
    }

    /// The compiled top-ranked program. Ranking and lowering are memoized
    /// by the cached learned set ([`LearnedPrograms::top`],
    /// [`Program::compile`]), so repeated calls neither re-rank nor
    /// re-lower until the examples or the database move.
    pub fn compiled_top(&mut self) -> Result<Arc<CompiledProgram>, ServiceError> {
        Ok(self.top()?.compile())
    }

    /// The top-ranked program.
    pub fn top(&mut self) -> Result<Program, ServiceError> {
        self.learned()?
            .top()
            .ok_or(ServiceError::Synthesis(SynthesisError::NoConsistentProgram))
    }

    /// The engine-configured number of top-ranked programs
    /// ([`SynthesisOptions::top_k`](sst_core::SynthesisOptions::top_k)),
    /// ascending cost; the first is [`Session::top`]'s program.
    pub fn top_k(&mut self) -> Result<Vec<Program>, ServiceError> {
        let k = self.engine.default_top_k();
        Ok(self.learned()?.top_k(k))
    }

    /// Runs the top-ranked program on a fresh input row — through the
    /// memoized compiled form, so repeated calls stop re-ranking and
    /// re-interpreting (bit-identical to `self.top()?.run(inputs)`).
    pub fn run(&mut self, inputs: &[&str]) -> Result<Option<String>, ServiceError> {
        Ok(self.compiled_top()?.run_row(inputs))
    }

    /// Applies the top-ranked program to a whole input column, fanning row
    /// ranges across the engine pool (deterministic row order at every
    /// width). The compiled program is memoized by the learned set, so
    /// replaying columns — or mixing `run` and `run_column` — compiles once.
    pub fn run_column(
        &mut self,
        rows: &[Vec<String>],
    ) -> Result<Vec<Option<String>>, ServiceError> {
        let compiled = self.compiled_top()?;
        Ok(compiled.run_column(rows, self.engine.pool()))
    }

    /// An English description of the top-ranked program (§3.2's
    /// paraphrasing, so the user can sanity-check the tool's guess).
    pub fn paraphrase(&mut self) -> Result<String, ServiceError> {
        Ok(self.top()?.paraphrase())
    }

    /// Exact number of consistent programs.
    pub fn count(&mut self) -> Result<BigUint, ServiceError> {
        Ok(self.learned()?.count())
    }

    /// Data-structure size in terminal symbols.
    pub fn size(&mut self) -> Result<usize, ServiceError> {
        Ok(self.learned()?.size())
    }

    /// Drives the conversation against a ground-truth oracle: the §3.2
    /// loop with the simulated user of the paper's §7 evaluation
    /// ([`sst_core::converge`]), learning through this session's engine
    /// and budget. Starting from the truth's first row, while the
    /// top-ranked program mislabels some row, that row becomes the next
    /// example; the loop stops after `max_examples` examples. The budget
    /// covers the whole loop. On success the session's examples become
    /// the converged sequence and its cached learn the final learned set,
    /// so later queries are served without re-learning.
    pub fn converge_with(
        &mut self,
        truth: &[Example],
        max_examples: usize,
    ) -> Result<SessionConvergence, ServiceError> {
        let synthesizer = self.engine.budgeted_synthesizer(self.budget);
        let mut result = converge(&synthesizer, truth, max_examples).map_err(ServiceError::from);
        if let Some(budget) = self.budget {
            result = with_deadline_error(result, budget);
        }
        let report = result?;
        let db_epoch = synthesizer.db_arc().epoch();
        let examples_used = report.examples.len();
        self.examples = report.examples;
        self.learned = Some(CachedLearn {
            db_epoch,
            learned: report.learned,
        });
        Ok(SessionConvergence {
            examples_used,
            converged: report.converged,
        })
    }
}
