//! The semantic string transformation language `Lu` and its inductive
//! synthesis algorithm — the core contribution of Singh & Gulwani,
//! *Learning Semantic String Transformations from Examples*, VLDB 2012.
//!
//! `Lu` unifies table lookups (`Lt`, crate `sst-lookup`) with syntactic
//! string manipulation (`Ls`, crate `sst-syntactic`): programs concatenate
//! constants, lookup results and substrings of lookup results, and lookup
//! predicates may themselves be syntactic expressions over known strings
//! (§5.1). The synthesis algorithm learns *all* consistent programs from
//! input-output examples:
//!
//! * [`generate_str_u`] — `GenerateStr_u` (§5.3): relaxed forward
//!   reachability over table cells + a top-level substring DAG;
//! * [`intersect_du`] — `Intersect_u` (§5.3): automata-style product of
//!   DAGs with recursive lookup-node pairing;
//! * [`LuRankWeights`] — ranking (§5.4) and top-program extraction;
//! * [`Synthesizer`] / [`LearnedPrograms`] — the §3 driver and end-user
//!   API, including the §3.2 interaction model ([`converge`],
//!   [`highlight_ambiguous`], [`distinguishing_input`]).
//!
//! # Example: paper Example 6 (company-code expansion)
//!
//! ```
//! use std::sync::Arc;
//!
//! use sst_core::{Example, Synthesizer};
//! use sst_tables::{Database, Table};
//!
//! let comp = Table::new(
//!     "Comp",
//!     vec!["Id", "Name"],
//!     vec![
//!         vec!["c1", "Microsoft"],
//!         vec!["c2", "Google"],
//!         vec!["c3", "Apple"],
//!         vec!["c4", "Facebook"],
//!         vec!["c5", "IBM"],
//!         vec!["c6", "Xerox"],
//!     ],
//! )
//! .unwrap();
//! let db = Database::from_tables(vec![comp]).unwrap();
//!
//! let synthesizer = Synthesizer::new(Arc::new(db));
//! let learned = synthesizer
//!     .learn(&[Example::new(vec!["c4 c3 c1"], "Facebook Apple Microsoft")])
//!     .unwrap();
//! let program = learned.top().unwrap();
//! assert_eq!(
//!     program.run(&["c2 c5 c6"]).as_deref(),
//!     Some("Google IBM Xerox")
//! );
//! ```

mod arena_plane;
mod cache;
mod compiled;
mod dstruct;
mod eval;
mod generate;
mod interaction;
mod intersect;
mod language;
mod paraphrase;
mod rank;
mod synthesizer;

pub use cache::{DagCache, DagCacheStats, SourcesEpoch};
pub use compiled::{ApplyScratch, CompiledProgram};
pub use dstruct::{GenCondU, GenLookupU, GenPredU, SemDStruct, SemNode};
pub use eval::{eval_lookup_u, eval_sem};
pub use generate::{generate_str_u, generate_str_u_cached, LuOptions};
pub use interaction::{converge, distinguishing_input, highlight_ambiguous, ConvergenceReport};
pub use intersect::{
    intersect_du, intersect_du_budgeted, intersect_du_parallel, intersect_du_tuned,
    intersect_du_unpruned, intersect_du_with, DEFAULT_PARALLEL_EDGE_PRODUCT_MIN,
};
pub use language::{
    display_sem, sem_depth, sem_select_count, LookupU, PredRhsU, PredicateU, SemAtom, SemExpr,
    VarId,
};
pub use paraphrase::paraphrase_sem;
pub use rank::{best_lookup, LuRankWeights, RankedSem};
pub use sst_par::{default_threads, CancelToken, Pool};
pub use synthesizer::{
    Example, LearnedPrograms, Program, SynthesisError, SynthesisOptions, SynthesisOptionsBuilder,
    Synthesizer,
};
