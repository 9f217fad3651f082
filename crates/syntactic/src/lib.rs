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
//! There is no separate `Ls` front-end: `Ls` is `Lu` over a database with
//! no tables, so `Ls` learning goes through `sst_core::Synthesizer` over
//! `Database::new()`. This crate supplies the algorithms it runs.
//!
//! # Example
//!
//! ```
//! use sst_syntactic::{eval_expr, generate_dag, intersect_dags, GenOptions, RankWeights, Var};
//!
//! let options = GenOptions::default();
//! let example = |input: &str, output: &str| generate_dag(&[(Var(0), input)], output, &options);
//! let dag = intersect_dags(
//!     &example("Alan Turing", "Turing A"),
//!     &example("Grace Hopper", "Hopper G"),
//!     &mut |a: &Var, b: &Var| (a == b).then_some(*a),
//! )
//! .expect("consistent programs exist");
//! let (_, top) = RankWeights::default()
//!     .best_program(&dag, &mut |_| Some(0))
//!     .expect("ranked program");
//! let row = &mut |_: &Var| Some("Barbara Liskov".to_string());
//! assert_eq!(
//!     eval_expr(&top, row, &options.token_set).as_deref(),
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
pub use eval::{eval_atom, eval_expr, eval_pos, eval_pos_with_runs};
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
