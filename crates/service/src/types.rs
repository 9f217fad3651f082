//! The typed service boundary: request/response/error/status structs.
//!
//! These are deliberately plain owned data — no lifetimes, no handles into
//! engine internals beyond the `Arc`-shared learned results — so a future
//! wire boundary (HTTP/IPC serving) can serialize them without reshaping
//! the API. Everything observable through them is bit-identical to direct
//! `Synthesizer` calls (pinned by `tests/service_equivalence.rs`).

use std::fmt;

use sst_core::{Example, LearnedPrograms, Program, SynthesisError};
use sst_tables::TableError;

/// Failures of the service plane: synthesis failures (no examples, arity
/// mismatch, no consistent program), database mutations gone wrong
/// (duplicate table names, ragged rows, ...), and the wire-serving
/// conditions a remote front door must type precisely — an evicted or
/// unknown session, admission-control overload (the HTTP 429 body), and
/// malformed wire payloads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// Learning failed.
    Synthesis(SynthesisError),
    /// A table mutation ([`crate::Engine::add_table`]) failed.
    Table(TableError),
    /// The named session does not exist — never created, closed, or
    /// evicted after its idle deadline passed.
    SessionNotFound(u64),
    /// Admission control rejected the request: the execution slots were
    /// all busy and the bounded wait queue was full. Carries the limits in
    /// force so clients can reason about backoff.
    Overloaded {
        /// Requests executing when the rejection happened.
        in_flight: usize,
        /// Requests already waiting for a slot.
        queued: usize,
    },
    /// The request could not be decoded (malformed JSON, an unknown
    /// field shape, an undecodable body line).
    BadRequest(String),
    /// The request's deadline expired before the work completed: the
    /// in-flight synthesis was cooperatively cancelled (caches left
    /// valid, partial results never inserted) and the request answers
    /// HTTP 408. Carries the budget that was in force, in milliseconds.
    DeadlineExceeded {
        /// The request's time budget, in milliseconds.
        budget_ms: u64,
    },
    /// The request body exceeded the server's frame cap (HTTP 413).
    /// Carries the cap in force, in bytes, so clients can re-chunk.
    PayloadTooLarge {
        /// The maximum accepted body size, in bytes.
        limit: usize,
    },
    /// The server contained a crash while handling the request (HTTP
    /// 500): a handler panicked and was isolated by the per-request
    /// `catch_unwind` boundary. The engine state stays consistent; the
    /// message is diagnostic only.
    Internal(String),
    /// A snapshot persist or restore failed: io error, corrupt or
    /// truncated file, version mismatch, or an options fingerprint that
    /// does not match the engine being restored.
    Snapshot(String),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Synthesis(e) => write!(f, "synthesis failed: {e}"),
            ServiceError::Table(e) => write!(f, "table mutation failed: {e}"),
            ServiceError::SessionNotFound(id) => {
                write!(
                    f,
                    "session {id} not found (never created, closed, or evicted)"
                )
            }
            ServiceError::Overloaded { in_flight, queued } => write!(
                f,
                "server overloaded: {in_flight} requests in flight, {queued} queued"
            ),
            ServiceError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            ServiceError::DeadlineExceeded { budget_ms } => {
                write!(f, "deadline exceeded: request budget was {budget_ms} ms")
            }
            ServiceError::PayloadTooLarge { limit } => {
                write!(f, "payload too large: body cap is {limit} bytes")
            }
            ServiceError::Internal(msg) => write!(f, "internal server error: {msg}"),
            ServiceError::Snapshot(msg) => write!(f, "snapshot error: {msg}"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Synthesis(e) => Some(e),
            ServiceError::Table(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SynthesisError> for ServiceError {
    fn from(e: SynthesisError) -> Self {
        ServiceError::Synthesis(e)
    }
}

impl From<TableError> for ServiceError {
    fn from(e: TableError) -> Self {
        ServiceError::Table(e)
    }
}

impl From<sst_core::snapshot::SnapshotError> for ServiceError {
    fn from(e: sst_core::snapshot::SnapshotError) -> Self {
        ServiceError::Snapshot(e.to_string())
    }
}

/// One independent learning request for [`crate::Engine::learn_batch`]:
/// a complete example set (the batch path is for tasks whose examples are
/// already known — interactive refinement goes through
/// [`crate::Session`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LearnRequest {
    /// The input-output examples to learn from.
    pub examples: Vec<Example>,
    /// How many top-ranked programs the response materializes; `None`
    /// falls back to the engine's configured
    /// [`top_k`](sst_core::SynthesisOptions::top_k).
    pub top_k: Option<usize>,
}

impl LearnRequest {
    /// A request over `examples` with the engine-default `top_k`.
    pub fn new(examples: Vec<Example>) -> Self {
        LearnRequest {
            examples,
            top_k: None,
        }
    }

    /// Overrides how many ranked programs the response carries (clamped
    /// to at least 1, like the engine's default `k` — a successful learn
    /// always materializes its best program).
    pub fn with_top_k(mut self, k: usize) -> Self {
        self.top_k = Some(k.max(1));
        self
    }
}

/// The answer to one [`LearnRequest`]. Responses come back in request
/// order regardless of how the batch was scheduled (the pool puts each
/// result back at its request's index); `request` names the slot explicitly
/// so a wire boundary can stream responses out of order later.
#[derive(Debug, Clone)]
pub struct LearnResponse {
    /// Index of the request this answers.
    pub request: usize,
    /// The full learned program set, or why learning failed.
    pub result: Result<LearnedPrograms, ServiceError>,
    /// The materialized top-ranked programs (the request's `top_k` or the
    /// engine default), ascending cost; empty when learning failed.
    pub top: Vec<Program>,
}

impl LearnResponse {
    /// The learned set, if learning succeeded.
    pub fn programs(&self) -> Option<&LearnedPrograms> {
        self.result.as_ref().ok()
    }

    /// The single best program, if any.
    pub fn best(&self) -> Option<&Program> {
        self.top.first()
    }
}

/// One independent batch-apply request for [`crate::Engine::apply_batch`]:
/// learn from `examples`, compile the top-ranked program, run it over every
/// row of `rows` (the paper's deployment shape — a learned transformation
/// filling an entire spreadsheet column).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApplyRequest {
    /// The input-output examples defining the transformation.
    pub examples: Vec<Example>,
    /// The input rows to transform.
    pub rows: Vec<Vec<String>>,
}

impl ApplyRequest {
    /// A request applying the program learned from `examples` to `rows`.
    pub fn new(examples: Vec<Example>, rows: Vec<Vec<String>>) -> Self {
        ApplyRequest { examples, rows }
    }
}

/// The answer to one [`ApplyRequest`]: per-row outputs in input order
/// (`None` where the program is undefined on a row), or why learning
/// failed. Like [`LearnResponse`], `request` names the slot explicitly.
#[derive(Debug, Clone)]
pub struct ApplyResponse {
    /// Index of the request this answers.
    pub request: usize,
    /// One output per input row, or the learning failure.
    pub result: Result<Vec<Option<String>>, ServiceError>,
}

impl ApplyResponse {
    /// The per-row outputs, if learning succeeded.
    pub fn outputs(&self) -> Option<&[Option<String>]> {
        self.result.as_deref().ok()
    }
}

/// Where a [`crate::Session`] stands in the §3.2 protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionStatus {
    /// Every watched input row gets one agreed output from the top-ranked
    /// programs: the conversation has converged (§3.2 — nothing left to
    /// highlight).
    Converged,
    /// The session needs more examples: these watched input rows are
    /// *ambiguous* — the top-ranked consistent programs produce two or
    /// more distinct outputs on them (§3.2's highlighting rule). Fixing
    /// any one of them (usually the first) splits the hypothesis space
    /// fastest. With no examples at all, every watched row is reported.
    NeedsExamples {
        /// The ambiguous input rows, in spreadsheet order.
        ambiguous_inputs: Vec<Vec<String>>,
    },
}

impl SessionStatus {
    /// True iff the session has converged.
    pub fn is_converged(&self) -> bool {
        matches!(self, SessionStatus::Converged)
    }
}
