//! `semantic-strings` — programming-by-example synthesis of **semantic
//! string transformations**, a from-scratch Rust reproduction of
//! Singh & Gulwani, *Learning Semantic String Transformations from
//! Examples*, PVLDB 5(8), 2012.
//!
//! This facade crate re-exports the workspace so downstream users can depend
//! on a single crate:
//!
//! * [`service`] — the serving front-end: an [`Engine`](service::Engine)
//!   owning shared background knowledge, one warm memo plane and a global
//!   worker pool, handing out [`Session`](service::Session) handles for
//!   the §3.2 interactive protocol and `learn_batch` for bulk requests.
//! * [`tables`] — the relational table substrate (schemas, candidate keys,
//!   the value and substring indexes each table owns, CSV ingest).
//! * [`syntactic`] — the syntactic transformation language `Ls`
//!   (FlashFill-style substrings/concatenation) and its synthesis algorithm.
//! * [`lookup`] — the lookup transformation language `Lt` (`Select`
//!   expressions over candidate keys) and its synthesis algorithm.
//! * [`core`] — the combined semantic language `Lu`, the low-level
//!   `Synthesizer`, ranking, the §3.2 interaction primitives, the
//!   worker `Pool` behind batch serving and `run_column`
//!   (deterministic-order `par_map_indexed`; learning itself is serial),
//!   and the versioned snapshot file format
//!   ([`core::snapshot`]).
//! * [`datatypes`] — background-knowledge tables for standard data types
//!   (§6): time, months, ordinals, currencies, phone codes, US states.
//! * [`benchmarks`] — the reconstructed 50-task evaluation suite (§7) and
//!   synthetic worst-case workload generators.
//! * [`counting`] — arbitrary-precision counters for program-set sizes.
//!
//! # Quickstart: an interactive session
//!
//! The paper's §3.2 model is a *conversation*: the user gives an example,
//! the tool fills the spreadsheet and highlights rows its candidate
//! programs disagree on, and each fix becomes a new example. The
//! [`Engine`](service::Engine)/[`Session`](service::Session) front-end
//! makes that loop first-class:
//!
//! ```
//! use std::sync::Arc;
//!
//! use semantic_strings::prelude::*;
//!
//! // Background table mapping company codes to names (paper Example 6).
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
//! // One conversation: supply examples until the watched rows stop being
//! // ambiguous. Learning is implicit — no manual re-learn loop.
//! let mut session = engine.session();
//! session.watch_inputs(vec![vec!["c1".into()], vec!["c2".into()], vec!["c3".into()]]);
//! session.add_example(Example::new(vec!["c2"], "Google"));
//! while let SessionStatus::NeedsExamples { ambiguous_inputs } = session.status().unwrap() {
//!     // The simulated user fixes the first highlighted row.
//!     let row = &ambiguous_inputs[0];
//!     let truth = match row[0].as_str() {
//!         "c1" => "Microsoft",
//!         "c3" => "Apple",
//!         other => other,
//!     };
//!     session.add_example(Example::new(vec![row[0].clone()], truth));
//! }
//!
//! // The converged program generalizes to unseen inputs.
//! assert_eq!(session.run(&["c3"]).unwrap().unwrap(), "Apple");
//! ```
//!
//! Batch serving fans independent requests across the engine's pool with
//! deterministic, request-ordered responses:
//!
//! ```
//! use std::sync::Arc;
//!
//! use semantic_strings::prelude::*;
//!
//! # let comp = Table::new("Comp", vec!["Id", "Name"],
//! #     vec![vec!["c1", "Microsoft"], vec!["c2", "Google"], vec!["c3", "Apple"]]).unwrap();
//! let engine = Engine::new(Arc::new(Database::from_tables(vec![comp]).unwrap()));
//! let responses = engine.learn_batch(&[
//!     LearnRequest::new(vec![Example::new(vec!["c2"], "Google")]),
//!     LearnRequest::new(vec![Example::new(vec!["c1"], "Microsoft")]),
//! ], None);
//! assert_eq!(responses[0].best().unwrap().run(&["c3"]).unwrap(), "Apple");
//! ```
//!
//! # Applying at scale
//!
//! Learning is interactive; *applying* is bulk. Once a task converges,
//! [`Program::compile`](core::Program::compile) lowers the top-ranked
//! program to compact linear bytecode — token automata pre-resolved,
//! single-condition lookups baked into value→cell probe maps, constant
//! lookups folded away — so filling a row is a flat op walk with zero
//! tree recursion and zero per-row allocation. The service plane wraps
//! this: [`Engine::apply`](service::Engine::apply) (or
//! [`ApplyRequest`](service::ApplyRequest)s via
//! [`Engine::apply_batch`](service::Engine::apply_batch)) learns, compiles
//! once, and fans the column across the worker pool;
//! [`Session::run_column`](service::Session::run_column) does the same
//! inside a conversation, caching the compiled program until the examples
//! or the database change.
//!
//! ```
//! use std::sync::Arc;
//!
//! use semantic_strings::prelude::*;
//!
//! # let comp = Table::new("Comp", vec!["Id", "Name"],
//! #     vec![vec!["c1", "Microsoft"], vec!["c2", "Google"], vec!["c3", "Apple"]]).unwrap();
//! let engine = Engine::new(Arc::new(Database::from_tables(vec![comp]).unwrap()));
//! let column: Vec<Vec<String>> = ["c1", "c3", "c9"]
//!     .iter()
//!     .map(|c| vec![c.to_string()])
//!     .collect();
//! let outputs = engine
//!     .apply(&[Example::new(vec!["c2"], "Google")], &column)
//!     .unwrap();
//! assert_eq!(outputs[1].as_deref(), Some("Apple"));
//! // Lookup misses yield the empty string per the paper's semantics.
//! assert_eq!(outputs[2].as_deref(), Some(""));
//! ```
//!
//! Outputs are deterministic and bit-identical at every pool width — the
//! `tests/compiled_equivalence.rs` harness replays the full 50-task suite
//! through both the interpreter and the bytecode plane to pin this.
//!
//! # Serving over the wire
//!
//! [`server`] (`sst-server`) puts a real TCP front door on the service
//! plane: hand-rolled HTTP/1.1 over [`std::net::TcpListener`] (the
//! container has no registry access, so no hyper/tokio/serde), with
//! newline-delimited JSON request/response bodies from the serde-free
//! [`service::wire`] codec. One [`Server`](server::Server) hosts many
//! *named* engines; per-engine routes cover batch `learn`/`apply` and
//! the full interactive session lifecycle
//! (create/attach/examples/inputs/status/run_column/close). Idle
//! sessions are evicted by a deadline wheel and answer a typed
//! `SessionNotFound` (404) afterwards; a saturated server rejects with a
//! typed `Overloaded` (429) instead of queueing unboundedly; `/metrics`
//! exports per-endpoint latency quantiles and cache hit rates.
//!
//! The stack is hardened for hostile conditions: a `deadline-ms` request
//! header (or [`ServerConfig`](server::ServerConfig) default) threads a
//! cooperative [`CancelToken`](core::CancelToken) budget through the
//! synthesis hot loops and answers a typed `DeadlineExceeded` (408) that
//! leaves every cache clean; handler panics are isolated as typed
//! `Internal` (500) responses; malformed frames answer typed 400s,
//! oversized bodies a typed `PayloadTooLarge` (413); slow-loris and idle
//! peers are timed out; and [`Server::shutdown`](server::Server::shutdown)
//! drains in-flight requests before stopping. The
//! [`Client`](server::Client) retries idempotent requests with capped,
//! seeded-jitter backoff (see [`ClientConfig`](server::ClientConfig)).
//! A seeded [`FaultPlan`](server::FaultPlan) set in
//! [`ServerConfig::fault_plan`](server::ServerConfig::fault_plan) injects
//! delays, dropped connections, truncated responses and handler panics;
//! `tests/chaos_replay.rs` arms one to prove all of it under load — see
//! the README's *Operations* section.
//!
//! ```
//! use std::sync::Arc;
//!
//! use semantic_strings::prelude::*;
//!
//! # let comp = Table::new("Comp", vec!["Id", "Name"],
//! #     vec![vec!["c1", "Microsoft"], vec!["c2", "Google"], vec!["c3", "Apple"]]).unwrap();
//! let engine = Engine::new(Arc::new(Database::from_tables(vec![comp]).unwrap()));
//! let server = Server::bind(engine, ServerConfig::default()).unwrap();
//!
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! let info = client
//!     .create_session("default", &[Example::new(vec!["c2"], "Google")])
//!     .unwrap();
//! assert!(client.status("default", info.session).unwrap().is_converged());
//! let cells = client
//!     .run_column("default", info.session, &[vec!["c1".to_string()]])
//!     .unwrap();
//! assert_eq!(cells[0].as_deref(), Some("Microsoft"));
//! ```
//!
//! The payloads are plain NDJSON, so any HTTP client works — see the
//! README for a `curl` transcript. `tests/server_equivalence.rs` replays
//! the 50-task suite over real sockets and asserts the response bodies
//! are byte-identical to encoding the in-process results.
//! `tests/chaos_replay.rs` drives 60 concurrent sessions against one
//! server under injected faults, then checks a fault-free wave against
//! the in-process plane; perfbench's `wire_mixed` workload is the load
//! instrument.
//!
//! # Mutating tables at scale
//!
//! Background knowledge is live data, not a frozen snapshot:
//! [`Engine::insert_rows`](service::Engine::insert_rows),
//! [`Engine::update_cell`](service::Engine::update_cell) and
//! [`Engine::delete_rows`](service::Engine::delete_rows) apply row-level
//! mutations whose index maintenance is *incremental* — each table's value
//! index and q-gram substring index are spliced in place
//! (microseconds per row on 10⁵–10⁶-row tables) instead of rebuilt.
//! Every table carries its own epoch and each mutation records a
//! row-level delta, so invalidation is surgical: memo entries and
//! cached session learns survive any mutation that provably doesn't
//! touch the tables or values they read, and a mutation to one
//! background table leaves sessions learning against others fully warm
//! (no relearn, no recompile). Adding a whole table is the structural
//! exception that still invalidates broadly. See the
//! [`tables`] module docs for the exact epoch/delta semantics.
//!
//! ```
//! use std::sync::Arc;
//!
//! use semantic_strings::prelude::*;
//!
//! # let comp = Table::new("Comp", vec!["Id", "Name"],
//! #     vec![vec!["c1", "Microsoft"], vec!["c2", "Google"], vec!["c3", "Apple"]]).unwrap();
//! let scratch = Table::new("Jobs", vec!["Code", "Role"], vec![vec!["j1", "eng"]]).unwrap();
//! let engine =
//!     Engine::new(Arc::new(Database::from_tables(vec![comp, scratch]).unwrap()));
//! let mut session = engine.session();
//! session.add_example(Example::new(vec!["c2"], "Google"));
//! assert_eq!(session.run(&["c1"]).unwrap().as_deref(), Some("Microsoft"));
//!
//! // Mutating the unrelated Jobs table leaves this session warm…
//! let jobs = engine.db().table_id("Jobs").unwrap();
//! engine.insert_rows(jobs, vec![vec!["j2", "pm"]]).unwrap();
//! assert_eq!(session.run(&["c1"]).unwrap().as_deref(), Some("Microsoft"));
//!
//! // …while a mutation to a table the program reads is picked up.
//! let comp_id = engine.db().table_id("Comp").unwrap();
//! engine.update_cell(comp_id, 1, 0, "Microsoft Corp").unwrap();
//! assert_eq!(session.run(&["c1"]).unwrap().as_deref(), Some("Microsoft Corp"));
//! ```
//!
//! # Memo keys and snapshots
//!
//! The memo cache names every cached example structure by a dense
//! *example id*, minted once and never reused, and keys the intersection
//! memo by the *chain* of example ids an intersection folds: `[e₁, e₂]`
//! names `G(e₁) ∩ G(e₂)`, `[e₁, e₂, e₃]` names `(G(e₁) ∩ G(e₂)) ∩ G(e₃)`.
//! This is sound because an id names one structure value forever (a
//! mutation that changes an example's regenerated structure mints a fresh
//! id) and an intersection result is a pure function of its operand
//! values. Everything observable stays bit-identical (pinned by the
//! `dag_memo_equivalence` and `service_equivalence` harnesses).
//!
//! The snapshot module ([`core::snapshot`]) is what makes the engine
//! *persistable*: every cached structure is written as a
//! plain tree, and one pointer memo spans the whole write, so each `Arc`
//! the live memo plane shares (a DAG, a position list, a condition list)
//! is written once and back-referenced after — a restore rebuilds exactly
//! that sharing. Learning itself never touches the codec.
//! [`Engine::snapshot_to`](service::Engine::snapshot_to) writes the
//! database, interner symbols and the memo plane as one
//! versioned, checksummed binary file, and
//! [`Engine::restore_from`](service::Engine::restore_from) rebuilds an
//! engine in a fresh process that serves replayed requests memo-warm.
//! The server wires this up as
//! [`ServerConfig::snapshot_path`](server::ServerConfig::snapshot_path) /
//! `snapshot_on_shutdown` / `warm_start_on_boot` — see the README's
//! *Snapshots & warm start* section for the file format and operational
//! caveats.
//!
//! # Low-level API
//!
//! The stateless [`Synthesizer`](core::Synthesizer) underneath the service
//! plane remains public for callers that manage their own state — one
//! `learn` call over an explicit example slice, options built with
//! [`SynthesisOptions::builder`](core::SynthesisOptions::builder):
//!
//! ```
//! use std::sync::Arc;
//!
//! use semantic_strings::prelude::*;
//!
//! # let comp = Table::new("Comp", vec!["Id", "Name"],
//! #     vec![vec!["c1", "Microsoft"], vec!["c2", "Google"], vec!["c3", "Apple"]]).unwrap();
//! let db = Arc::new(Database::from_tables(vec![comp]).unwrap());
//! let options = SynthesisOptions::builder().dag_cache(true).top_k(5).build();
//! let synthesizer = Synthesizer::with_options(db, options);
//! let learned = synthesizer
//!     .learn(&[Example::new(vec!["c2"], "Google")])
//!     .unwrap();
//! assert_eq!(learned.top().unwrap().run(&["c3"]).unwrap(), "Apple");
//! ```

#![forbid(unsafe_code)]

pub use sst_core as core;
pub use sst_core::snapshot as arena; // Former crate name; perfbench imports `arena::ArenaStats`.
pub use sst_counting as counting;
pub use sst_datatypes as datatypes;
pub use sst_lookup as lookup;
pub use sst_server as server;
pub use sst_service as service;
pub use sst_syntactic as syntactic;
pub use sst_tables as tables;

pub use sst_benchmarks as benchmarks;

/// Convenience re-exports covering the common entry points.
pub mod prelude {
    pub use sst_core::{
        CancelToken, Example, LearnedPrograms, SynthesisOptions, SynthesisOptionsBuilder,
        Synthesizer,
    };
    pub use sst_server::{Client, ClientConfig, Server, ServerConfig};
    pub use sst_service::{
        ApplyRequest, ApplyResponse, Engine, LearnRequest, LearnResponse, ServiceError, Session,
        SessionStatus,
    };
    pub use sst_tables::{Database, Table};
}
