//! The semantic string transformation language `Lu` and its inductive
//! synthesis algorithm — the core contribution of Singh & Gulwani,
//! *Learning Semantic String Transformations from Examples*, VLDB 2012.
//!
//! `Lu` unifies table lookups (`Lt`, §4) with syntactic string
//! manipulation (`Ls`, crate `sst-syntactic`): programs concatenate
//! constants, lookup results and substrings of lookup results, and lookup
//! predicates may themselves be syntactic expressions over known strings
//! (§5.1). The synthesis algorithm learns *all* consistent programs from
//! input-output examples:
//!
//! * [`generate_str_u`] — `GenerateStr_u` (§5.3): forward reachability
//!   over table cells behind the *relaxed* gate (substring-related and
//!   assemblable cells activate) + a top-level substring DAG;
//! * [`generate_str_t`] — `GenerateStr_t` (§4.3), the `Lt` fragment: the
//!   same reachability engine behind the *exact* gate (only cells equal to
//!   a known string activate), written as a [`SemDStruct`] so everything
//!   below serves it unchanged;
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

#![forbid(unsafe_code)]

mod cache;
mod compiled;
mod dstruct;
mod eval;
mod generate;
mod interaction;
mod intersect;
mod language;
mod par;
mod paraphrase;
mod rank;
mod reach;
pub mod snapshot;
mod synthesizer;

pub use cache::{DagCache, DagCacheStats};
pub use compiled::{ApplyScratch, CompiledProgram};
pub use dstruct::{GenCondU, GenLookupU, GenPredU, NodeId, SemDStruct, SemNode};
pub use eval::eval_sem;
pub use generate::{generate_str_t, generate_str_u, LuOptions};
pub use interaction::{converge, distinguishing_input, highlight_ambiguous, ConvergenceReport};
pub use intersect::{intersect_du, intersect_du_unpruned};
pub use language::{display_sem, LookupU, PredRhsU, PredicateU, SemAtom, SemExpr, VarId};
pub use par::{default_threads, CancelToken, Pool};
pub use paraphrase::paraphrase_sem;
pub use rank::{LuRankWeights, RankedSem};
pub use synthesizer::{
    Example, LearnedPrograms, Program, SynthesisError, SynthesisOptions, Synthesizer,
};
