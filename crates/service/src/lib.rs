//! The service plane: an [`Engine`]/[`Session`] front-end over the
//! synthesis core, making the paper's two deployment shapes first-class.
//!
//! Singh & Gulwani (PVLDB 2012) frame the system as an end-user
//! spreadsheet service: many transformation tasks served over shared
//! background knowledge (§6's data-type tables), each task learned through
//! the §3.2 *interactive* protocol — the user supplies examples
//! incrementally, the tool highlights inputs whose consistent programs
//! disagree, and each fix becomes a new example until convergence. Before
//! this crate the public API was a single stateless
//! [`Synthesizer::learn`](sst_core::Synthesizer::learn) call: every caller
//! hand-rolled the re-learn loop, and nothing owned the shared warm state
//! the lower layers already provide (an `Arc`-shared
//! [`Database`](sst_tables::Database), an interior-mutable
//! [`DagCache`](sst_core::DagCache) whose clones share one warm plane, a
//! sharded lock-free interner, and the deterministic
//! [`Pool`](sst_core::Pool)).
//!
//! Two layers:
//!
//! * [`Engine`] — owns one `Arc<Database>`, one warm
//!   [`DagCache`](sst_core::DagCache) plane and one global
//!   [`Pool`](sst_core::Pool); hands out cheap [`Session`] handles,
//!   serves one-shot [`Engine::learn`] calls, fans [`Engine::learn_batch`] /
//!   [`Engine::apply_batch`] requests across the pool (deterministic
//!   output order), applies learned programs to whole columns through
//!   the compiled bytecode plane ([`Engine::apply`]), and owns the
//!   database mutations ([`Engine::add_table`] bumps the epoch exactly
//!   once for every live session).
//! * [`Session`] — one §3.2 conversation: [`Session::add_example`],
//!   [`Session::status`] (converged, or which watched inputs are still
//!   ambiguous), [`Session::top_k`], [`Session::paraphrase`],
//!   [`Session::run`], [`Session::run_column`]. Learning is implicit and
//!   lazy; repeated learns on a grown example prefix are served from the
//!   engine's shared memo plane, and applies run through the compiled top
//!   program, cached until the examples or the database move.
//!
//! The typed boundary ([`LearnRequest`], [`LearnResponse`],
//! [`ServiceError`]) is deliberately plain data, ready to be lifted onto a
//! wire protocol; everything observable through it is **bit-identical** to
//! sequential [`Synthesizer`](sst_core::Synthesizer) calls at every batch
//! width (pinned by `tests/service_equivalence.rs`).
//!
//! # Example: interactive learning
//!
//! ```
//! use std::sync::Arc;
//!
//! use sst_service::{Engine, SessionStatus};
//! use sst_core::Example;
//! use sst_tables::{Database, Table};
//!
//! let comp = Table::new(
//!     "Comp",
//!     vec!["Id", "Name"],
//!     vec![
//!         vec!["c1", "Microsoft"],
//!         vec!["c2", "Google"],
//!         vec!["c3", "Apple"],
//!     ],
//! )
//! .unwrap();
//! let engine = Engine::new(Arc::new(Database::from_tables(vec![comp]).unwrap()));
//!
//! let mut session = engine.session();
//! session.watch_inputs(vec![vec!["c1".into()], vec!["c2".into()], vec!["c3".into()]]);
//! session.add_example(Example::new(vec!["c2"], "Google"));
//! match session.status().unwrap() {
//!     SessionStatus::Converged => {}
//!     SessionStatus::NeedsExamples { ambiguous_inputs } => {
//!         // The §3.2 loop: the user fixes one highlighted row...
//!         assert!(!ambiguous_inputs.is_empty());
//!     }
//! }
//! assert_eq!(session.run(&["c1"]).unwrap().as_deref(), Some("Microsoft"));
//! ```

#![forbid(unsafe_code)]

mod engine;
mod session;
mod types;
pub mod wire;

pub use engine::Engine;
pub use session::{Session, SessionConvergence};
pub use sst_core::snapshot::ArenaStats;
pub use types::{
    ApplyRequest, ApplyResponse, LearnRequest, LearnResponse, ServiceError, SessionStatus,
};
pub use wire::{
    decode_cell_lines, decode_lines, decode_row_lines, encode_cell_lines, encode_lines,
    encode_row_lines, Json, LearnSummary, Wire, WireError, WireLearnResponse,
};
