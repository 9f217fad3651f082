//! The syntactic string-transformation language `Ls` and its inductive
//! synthesis algorithm (`GenerateStr_s` / `Intersect_s`).
//!
//! This crate reproduces the subset of Gulwani's POPL 2011 language that
//! Singh & Gulwani's VLDB 2012 paper builds on (§5 "Background"): programs
//! are concatenations of constants, input variables and substrings delimited
//! by token-based position expressions. Sets of programs are represented by
//! a [`Dag`] whose edges carry atomic-expression sets; generation and
//! intersection run in polynomial time and the ranked top program is
//! extracted by a shortest-path DP.
//!
//! The atom *source* type is generic: the semantic layer (`sst-core`) reuses
//! every algorithm here with lookup-node sources to get the `Lu` language.
//!
//! # Example
//!
//! ```
//! use sst_syntactic::SyntacticLearner;
//!
//! let learner = SyntacticLearner::default();
//! let learned = learner
//!     .learn(&[
//!         (vec!["Alan Turing".to_string()], "Turing A".to_string()),
//!         (vec!["Grace Hopper".to_string()], "Hopper G".to_string()),
//!     ])
//!     .expect("consistent programs exist");
//! let top = learned.top().expect("ranked program");
//! assert_eq!(
//!     learned.run(&top, &["Barbara Liskov"]).as_deref(),
//!     Some("Liskov B")
//! );
//! ```

#![forbid(unsafe_code)]

mod compiled;
mod dag;
mod eval;
mod generate;
mod intersect;
mod language;
mod matches;
mod positions;
mod rank;
mod tokens;

pub use compiled::{eval_compiled_pos, CompiledPos, RunsBuf, TokenPlan};
pub use dag::{AtomSet, Dag, PosSet};
pub use eval::{eval_atom, eval_expr, eval_on_state, eval_pos, eval_pos_with_runs};
pub use generate::{generate_dag, generate_dag_prepared, GenOptions, PreparedSources};
pub use intersect::{
    intersect_atom_sets, intersect_atom_sets_memo, intersect_dags, intersect_dags_memo,
    intersect_dags_memo_unpruned, intersect_pos_lists, intersect_pos_sets, PosMemo,
};
pub use language::{AtomicExpr, PosExpr, RegexSeq, StringExpr, Var, VarId};
pub use matches::Matcher;
pub use positions::PositionLearner;
pub use rank::RankWeights;
pub use tokens::{StringRuns, Token, TokenSet};

use sst_counting::BigUint;

/// Stand-alone synthesizer for the pure syntactic language `Ls`.
///
/// (The full semantic synthesizer lives in `sst-core`; this front-end is the
/// `Lt`-free baseline and the workhorse of the `Ls`-only tests/benches.)
#[derive(Debug, Clone, Default)]
pub struct SyntacticLearner {
    /// Generation options (token set, context length bound).
    pub options: GenOptions,
    /// Ranking weights.
    pub weights: RankWeights,
}

/// The set of `Ls` programs consistent with all provided examples.
#[derive(Debug, Clone)]
pub struct LearnedSyntactic {
    dag: Dag<Var>,
    options: GenOptions,
    weights: RankWeights,
}

impl SyntacticLearner {
    /// Learns from `(inputs, output)` examples; `None` if no program in
    /// `Ls` is consistent with all of them.
    pub fn learn(&self, examples: &[(Vec<String>, String)]) -> Option<LearnedSyntactic> {
        let mut iter = examples.iter();
        let (first_in, first_out) = iter.next()?;
        let mut dag = self.generate(first_in, first_out);
        for (inputs, output) in iter {
            let next = self.generate(inputs, output);
            dag = intersect_dags(&dag, &next, &mut |a: &Var, b: &Var| (a == b).then_some(*a))?;
        }
        Some(LearnedSyntactic {
            dag,
            options: self.options.clone(),
            weights: self.weights.clone(),
        })
    }

    fn generate(&self, inputs: &[String], output: &str) -> Dag<Var> {
        let sources: Vec<(Var, &str)> = inputs
            .iter()
            .enumerate()
            .map(|(i, s)| (Var(i as u32), s.as_str()))
            .collect();
        generate_dag(&sources, output, &self.options)
    }
}

impl LearnedSyntactic {
    /// The underlying program-set DAG.
    pub fn dag(&self) -> &Dag<Var> {
        &self.dag
    }

    /// Number of programs represented.
    pub fn count(&self) -> BigUint {
        self.dag.count_programs(&mut |_| BigUint::one())
    }

    /// Data-structure size in terminal symbols.
    pub fn size(&self) -> usize {
        self.dag.size(&mut |_| 1)
    }

    /// The top-ranked program.
    pub fn top(&self) -> Option<StringExpr<Var>> {
        self.weights
            .best_program(&self.dag, &mut |_| Some(0))
            .map(|(_, p)| p)
    }

    /// Runs a program on a fresh input row.
    pub fn run(&self, program: &StringExpr<Var>, inputs: &[&str]) -> Option<String> {
        eval_on_state(program, inputs, &self.options.token_set)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ex(inputs: &[&str], output: &str) -> (Vec<String>, String) {
        (
            inputs.iter().map(|s| s.to_string()).collect(),
            output.to_string(),
        )
    }

    #[test]
    fn learn_name_initial_format_generalizes() {
        let learner = SyntacticLearner::default();
        let learned = learner.learn(&[ex(&["Alan Turing"], "Turing A")]).unwrap();
        let top = learned.top().unwrap();
        assert_eq!(
            learned.run(&top, &["Grace Hopper"]).as_deref(),
            Some("Hopper G")
        );
    }

    #[test]
    fn learn_from_two_examples_drops_constants() {
        let learner = SyntacticLearner::default();
        let learned = learner
            .learn(&[ex(&["ab 12 cd"], "12"), ex(&["qq 7 rr"], "7")])
            .unwrap();
        let top = learned.top().unwrap();
        assert_eq!(learned.run(&top, &["zz 999 kk"]).as_deref(), Some("999"));
    }

    #[test]
    fn learn_inconsistent_returns_none() {
        let learner = SyntacticLearner::default();
        assert!(learner.learn(&[ex(&["a"], "X"), ex(&["a"], "Y")]).is_none());
    }

    #[test]
    fn learn_empty_examples_is_none() {
        let learner = SyntacticLearner::default();
        assert!(learner.learn(&[]).is_none());
    }

    #[test]
    fn count_and_size_reported() {
        let learner = SyntacticLearner::default();
        let learned = learner.learn(&[ex(&["abcd"], "abcd")]).unwrap();
        assert!(learned.count() > BigUint::from(1u64));
        assert!(learned.size() > 0);
    }

    #[test]
    fn multi_variable_concatenation() {
        let learner = SyntacticLearner::default();
        let learned = learner
            .learn(&[
                ex(&["Honda", "125"], "Honda-125"),
                ex(&["Ducati", "250"], "Ducati-250"),
            ])
            .unwrap();
        let top = learned.top().unwrap();
        assert_eq!(
            learned.run(&top, &["Yamaha", "600"]).as_deref(),
            Some("Yamaha-600")
        );
    }
}
