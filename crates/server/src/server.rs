//! The server: TCP accept loop, routing, and request lifecycle.
//!
//! One [`Server`] hosts one or more *named* engines (a name is a path
//! segment, so fifty benchmark tasks can live behind one port without
//! merging their databases and changing what each one learns). Each
//! accepted connection gets a thread running the HTTP/1.1 keep-alive
//! loop; synthesis-bearing endpoints (`learn`, `apply`, `status`,
//! `run_column`) pass through [`Admission`] first, because connection
//! threads are cheap but the shared engine pool is not. A sweeper thread
//! sweeps the session store once per granularity, so idle conversations
//! are evicted even when no traffic arrives.
//!
//! # Routes
//!
//! All request/response bodies are newline-delimited JSON (one value per
//! line) using the [`sst_service::wire`] codec.
//!
//! | Route | Body in → out |
//! |---|---|
//! | `GET /healthz` | — → `ok` |
//! | `GET /metrics` | — → Prometheus text |
//! | `POST /v1/{engine}/learn` | `LearnRequest` lines → `WireLearnResponse` lines |
//! | `POST /v1/{engine}/apply` | `ApplyRequest` lines → `ApplyResponse` lines |
//! | `POST /v1/{engine}/sessions` | `Example` lines (may be empty) → `SessionInfo` |
//! | `GET /v1/{engine}/sessions/{id}` | — → `SessionInfo` |
//! | `POST /v1/{engine}/sessions/{id}/examples` | `Example` lines → `SessionInfo` |
//! | `POST /v1/{engine}/sessions/{id}/inputs` | row lines → `SessionInfo` |
//! | `GET /v1/{engine}/sessions/{id}/status` | — → `SessionStatus` line |
//! | `POST /v1/{engine}/sessions/{id}/run_column` | row lines → cell lines |
//! | `DELETE /v1/{engine}/sessions/{id}` | — → empty |
//!
//! # Errors
//!
//! Every error response body is one [`ServiceError`] wire line:
//! `BadRequest` → 400, `SessionNotFound` (and unknown engine names) →
//! 404, `DeadlineExceeded` → 408, `PayloadTooLarge` → 413,
//! `Synthesis`/`Table` → 422, `Overloaded` → 429, `Internal` (an
//! isolated handler panic) → 500. Batch endpoints return 200 with
//! per-request errors embedded in their response lines, matching the
//! in-process `learn_batch`/`apply_batch` contract — except when a
//! deadline killed the *entire* batch, which answers a top-level 408.
//!
//! # Deadlines
//!
//! A request may carry a `deadline-ms` header (or the server may set
//! [`ServerConfig::default_deadline`]): synthesis-bearing work then runs
//! under a cooperative cancellation budget. A learn the deadline
//! interrupts aborts mid-synthesis with every shared memo left valid —
//! partial results are never inserted — and answers the typed 408; the
//! identical request without a deadline later is bit-identical to a cold
//! engine (pinned by `tests/cancellation_equivalence.rs`).
//!
//! # Crash containment
//!
//! Each request is routed inside a `catch_unwind` boundary: a handler
//! panic is isolated to that one request (typed 500, `sst_panics_total`
//! bumped), the connection and every other session stay live. Socket
//! reads are budgeted ([`crate::http::ReadLimits`]) so slow-loris peers
//! cannot pin connection threads, and [`Server::shutdown`] drains
//! in-flight requests up to [`ServerConfig::drain_deadline`] before
//! returning.

use std::collections::HashMap;
use std::io::Write;
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sst_service::{
    decode_lines, decode_row_lines, encode_cell_lines, encode_lines, Engine, ServiceError, Wire,
    WireError, WireLearnResponse,
};

use crate::admission::Admission;
use crate::fault::{FaultAction, FaultPlan, FaultSite};
use crate::http::{read_request, write_response, ReadError, ReadLimits, Request, Response};
use crate::metrics::{Endpoint, Metrics};
use crate::proto::SessionInfo;
use crate::sessions::SessionStore;

/// Server tuning knobs. `Default` suits tests and local use: an
/// OS-assigned port on loopback, admission sized for a small pool, and a
/// five-minute idle session ttl.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks a free port; read it back with
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Synthesis-bearing requests allowed to execute at once.
    pub max_in_flight: usize,
    /// Synthesis-bearing requests allowed to wait for a slot; one more
    /// is rejected with a typed 429.
    pub max_queue: usize,
    /// Idle time after which a session is evicted.
    pub session_ttl: Duration,
    /// Sweeper interval (how late past its ttl an idle session may be
    /// evicted when nothing touches it).
    pub sweep_granularity: Duration,
    /// Default synthesis budget for requests that carry no `deadline-ms`
    /// header; `None` (the default) learns without a deadline.
    pub default_deadline: Option<Duration>,
    /// How long a keep-alive connection may sit idle between requests
    /// before it is closed silently.
    pub idle_timeout: Option<Duration>,
    /// Total wall-clock budget for one request to arrive in full once its
    /// first byte lands (the slow-loris bound); a stalled peer is answered
    /// with a typed 408 and closed.
    pub request_read_timeout: Option<Duration>,
    /// Socket write timeout per response (a peer that stops draining its
    /// receive buffer cannot pin a connection thread forever).
    pub write_timeout: Option<Duration>,
    /// How long [`Server::shutdown`] waits for in-flight requests to
    /// finish after it stops accepting, before giving up on them.
    pub drain_deadline: Duration,
    /// Where the `default` engine's snapshot lives. Required for
    /// [`ServerConfig::warm_start_on_boot`] and
    /// [`ServerConfig::snapshot_on_shutdown`]; also feeds the
    /// `sst_snapshot_bytes` / `sst_snapshot_age_seconds` gauges.
    pub snapshot_path: Option<PathBuf>,
    /// Persist the `default` engine's warm state to
    /// [`ServerConfig::snapshot_path`] during [`Server::shutdown`], after
    /// in-flight requests drain (so the file sees every memo they
    /// inserted). Best-effort: a failed write never blocks shutdown.
    pub snapshot_on_shutdown: bool,
    /// Restore the `default` engine from [`ServerConfig::snapshot_path`]
    /// at bind time, replacing the cold engine handed to
    /// [`Server::bind`]. A missing, corrupt, or options-mismatched
    /// snapshot falls back to the cold engine — a bad file can never keep
    /// the server from booting.
    pub warm_start_on_boot: bool,
    /// Test hook: hold each admitted synthesis request this long before
    /// doing the work, so saturation tests can fill the admission queue
    /// deterministically. [`ServerConfig::fault_plan`] cannot do this: its
    /// delays are random draws, not one fixed hold on every request.
    #[doc(hidden)]
    pub debug_handler_delay: Option<Duration>,
    /// Test hook: panic inside the handler boundary when the request path
    /// contains this substring, so a panic isolation test can target one
    /// path deterministically (a [`ServerConfig::fault_plan`] panic lands
    /// on whichever request draws it).
    #[doc(hidden)]
    pub debug_panic_on: Option<String>,
    /// The seeded fault schedule the connection loop draws from (see
    /// [`crate::fault`]); `None`, the default, injects nothing and costs
    /// one `Option` check at each of the three draw sites.
    pub fault_plan: Option<Arc<FaultPlan>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            max_in_flight: 8,
            max_queue: 1024,
            session_ttl: Duration::from_secs(300),
            sweep_granularity: Duration::from_millis(50),
            default_deadline: None,
            idle_timeout: Some(Duration::from_secs(300)),
            request_read_timeout: Some(Duration::from_secs(10)),
            write_timeout: Some(Duration::from_secs(30)),
            drain_deadline: Duration::from_secs(5),
            snapshot_path: None,
            snapshot_on_shutdown: false,
            warm_start_on_boot: false,
            debug_handler_delay: None,
            debug_panic_on: None,
            fault_plan: None,
        }
    }
}

/// Drain state for `/metrics` (`sst_drain_state`): 0 serving, 1 draining
/// in-flight requests, 2 stopped.
pub const DRAIN_SERVING: u8 = 0;
/// See [`DRAIN_SERVING`].
pub const DRAIN_DRAINING: u8 = 1;
/// See [`DRAIN_SERVING`].
pub const DRAIN_STOPPED: u8 = 2;

struct State {
    /// Engine name → engine, plus a stable render order for `/metrics`.
    engines: HashMap<String, Engine>,
    engine_names: Vec<String>,
    sessions: SessionStore,
    admission: Admission,
    metrics: Metrics,
    default_deadline: Option<Duration>,
    read_limits: ReadLimits,
    write_timeout: Option<Duration>,
    drain_deadline: Duration,
    snapshot_path: Option<PathBuf>,
    snapshot_on_shutdown: bool,
    /// Wall-clock nanoseconds the boot-time snapshot restore took; `0`
    /// means a cold boot (no restore, or the restore failed).
    restore_ns: AtomicU64,
    debug_handler_delay: Option<Duration>,
    debug_panic_on: Option<String>,
    fault_plan: Option<Arc<FaultPlan>>,
    shutdown: AtomicBool,
    /// Requests currently inside the handler boundary (drained by
    /// [`Server::shutdown`]).
    active_requests: AtomicUsize,
    /// One of the `DRAIN_*` states.
    drain: AtomicU8,
}

/// A running server. Dropping it (or calling [`Server::shutdown`]) stops
/// the accept loop and the sweeper; established connections wind down as
/// their clients disconnect.
pub struct Server {
    state: Arc<State>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    sweeper: Option<JoinHandle<()>>,
}

impl Server {
    /// Serves a single engine under the name `default`.
    pub fn bind(engine: Engine, config: ServerConfig) -> io::Result<Server> {
        Server::bind_named(vec![("default".to_string(), engine)], config)
    }

    /// Serves several engines, each addressed by its name in the path.
    pub fn bind_named(
        mut engines: Vec<(String, Engine)>,
        config: ServerConfig,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        // Warm start: replace the cold `default` engine with one restored
        // from the snapshot file. Any failure (missing file, corruption,
        // options mismatch) keeps the cold engine — booting always wins.
        let mut restore_ns = 0u64;
        if config.warm_start_on_boot {
            if let Some(path) = &config.snapshot_path {
                if let Some(slot) = engines.iter_mut().find(|(name, _)| name == "default") {
                    let started = Instant::now();
                    if let Ok(warm) = Engine::restore_from(path, slot.1.options().clone()) {
                        restore_ns = started.elapsed().as_nanos() as u64;
                        slot.1 = warm;
                    }
                }
            }
        }
        let engine_names: Vec<String> = engines.iter().map(|(name, _)| name.clone()).collect();
        let state = Arc::new(State {
            engines: engines.into_iter().collect(),
            engine_names,
            sessions: SessionStore::new(config.session_ttl, config.sweep_granularity),
            admission: Admission::new(config.max_in_flight, config.max_queue),
            metrics: Metrics::default(),
            default_deadline: config.default_deadline,
            read_limits: ReadLimits {
                idle_timeout: config.idle_timeout,
                request_timeout: config.request_read_timeout,
            },
            write_timeout: config.write_timeout,
            drain_deadline: config.drain_deadline,
            snapshot_path: config.snapshot_path,
            snapshot_on_shutdown: config.snapshot_on_shutdown,
            restore_ns: AtomicU64::new(restore_ns),
            debug_handler_delay: config.debug_handler_delay,
            debug_panic_on: config.debug_panic_on,
            fault_plan: config.fault_plan,
            shutdown: AtomicBool::new(false),
            active_requests: AtomicUsize::new(0),
            drain: AtomicU8::new(DRAIN_SERVING),
        });

        let accept_state = Arc::clone(&state);
        let accept = std::thread::spawn(move || accept_loop(listener, accept_state));

        let sweep_state = Arc::clone(&state);
        let sweeper = std::thread::spawn(move || {
            let tick = sweep_state.sessions.granularity();
            while !sweep_state.shutdown.load(Ordering::Acquire) {
                std::thread::sleep(tick);
                sweep_state.sessions.sweep();
            }
        });

        Ok(Server {
            state,
            addr,
            accept: Some(accept),
            sweeper: Some(sweeper),
        })
    }

    /// The bound address (the actual port when `addr` asked for `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live sessions right now.
    pub fn live_sessions(&self) -> usize {
        self.state.sessions.live()
    }

    /// Sessions evicted by the idle deadline so far.
    pub fn evicted_sessions(&self) -> u64 {
        self.state.sessions.evicted()
    }

    /// Requests rejected by admission control so far.
    pub fn rejected_requests(&self) -> u64 {
        self.state.metrics.rejected()
    }

    /// Handler panics isolated by the per-request `catch_unwind` boundary
    /// so far.
    pub fn caught_panics(&self) -> u64 {
        self.state.metrics.panics_total()
    }

    /// Requests currently inside the handler boundary.
    pub fn active_requests(&self) -> usize {
        self.state.active_requests.load(Ordering::Acquire)
    }

    /// Where the server stands in its lifecycle: [`DRAIN_SERVING`],
    /// [`DRAIN_DRAINING`], or [`DRAIN_STOPPED`].
    pub fn drain_state(&self) -> u8 {
        self.state.drain.load(Ordering::Acquire)
    }

    /// True iff the `default` engine was restored from a snapshot at bind
    /// time ([`ServerConfig::warm_start_on_boot`] with a readable,
    /// options-compatible file).
    pub fn warm_started(&self) -> bool {
        self.state.restore_ns.load(Ordering::Acquire) > 0
    }

    /// Gracefully stops the server: stops accepting connections, waits up
    /// to [`ServerConfig::drain_deadline`] for in-flight requests to
    /// finish (they get their responses; the keep-alive loop marks every
    /// connection `connection: close` once shutdown begins), then joins
    /// the background threads. Idempotent; also runs on `Drop`.
    pub fn shutdown(&mut self) {
        if self.state.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        self.state.drain.store(DRAIN_DRAINING, Ordering::Release);
        // Wake the blocking `accept` with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        let deadline = Instant::now() + self.state.drain_deadline;
        while self.state.active_requests.load(Ordering::Acquire) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        // Persist after the drain, so the snapshot carries every memo the
        // in-flight requests inserted. Best-effort by design: a full disk
        // must not turn shutdown into a hang or a panic.
        if self.state.snapshot_on_shutdown {
            if let (Some(path), Some(engine)) = (
                self.state.snapshot_path.as_ref(),
                self.state.engines.get("default"),
            ) {
                let _ = engine.snapshot_to(path);
            }
        }
        self.state.drain.store(DRAIN_STOPPED, Ordering::Release);
        if let Some(sweeper) = self.sweeper.take() {
            let _ = sweeper.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, state: Arc<State>) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if state.shutdown.load(Ordering::Acquire) {
                    return;
                }
                let state = Arc::clone(&state);
                std::thread::spawn(move || {
                    let _ = serve_connection(stream, &state);
                });
            }
            Err(_) => {
                if state.shutdown.load(Ordering::Acquire) {
                    return;
                }
            }
        }
    }
}

/// Extracts a printable message from a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "handler panicked (non-string payload)".to_string()
    }
}

fn serve_connection(stream: TcpStream, state: &State) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_write_timeout(state.write_timeout)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    loop {
        if let Some(action) = state
            .fault_plan
            .as_deref()
            .and_then(|plan| plan.draw(FaultSite::PreRead))
        {
            match action {
                FaultAction::DelayMs(ms) => std::thread::sleep(Duration::from_millis(ms)),
                // Kill the connection before even reading the request.
                _ => return Ok(()),
            }
        }
        let request = match read_request(&mut reader, &state.read_limits) {
            Ok(Some(request)) => request,
            Ok(None) => return Ok(()),
            Err(ReadError::Malformed(msg)) => {
                // Malformed framing: answer the typed 400 if the peer is
                // still there, then drop the connection.
                let err = ServiceError::BadRequest(format!("malformed request: {msg}"));
                let _ = write_response(&mut writer, &error_response(&err), true);
                return Ok(());
            }
            Err(ReadError::TooLarge { limit }) => {
                let err = ServiceError::PayloadTooLarge { limit };
                let _ = write_response(&mut writer, &error_response(&err), true);
                return Ok(());
            }
            Err(ReadError::TimedOut { idle }) => {
                if !idle {
                    // A peer stalled mid-request (slow-loris): typed 408.
                    state.metrics.timeout();
                    let budget_ms = state
                        .read_limits
                        .request_timeout
                        .map_or(0, |d| d.as_millis() as u64);
                    let err = ServiceError::DeadlineExceeded { budget_ms };
                    let _ = write_response(&mut writer, &error_response(&err), true);
                }
                return Ok(());
            }
            Err(ReadError::Io(err)) => return Err(err),
        };
        let close = request.wants_close() || state.shutdown.load(Ordering::Acquire);
        if request.header("x-retry-attempt").is_some() {
            state.metrics.retry();
        }
        let started = Instant::now();
        state.active_requests.fetch_add(1, Ordering::AcqRel);
        // The handler boundary: a panic anywhere inside routing or a
        // handler is isolated to this request. Engine/session state stays
        // consistent (all shared locks are acquired poison-tolerantly and
        // memo inserts are all-or-nothing), so serving continues.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if let Some(action) = state
                .fault_plan
                .as_deref()
                .and_then(|plan| plan.draw(FaultSite::Handler))
            {
                match action {
                    FaultAction::DelayMs(ms) => std::thread::sleep(Duration::from_millis(ms)),
                    FaultAction::Panic => panic!("injected handler panic"),
                    _ => {}
                }
            }
            if let Some(needle) = &state.debug_panic_on {
                if request.path.contains(needle.as_str()) {
                    panic!("debug panic: {}", request.path);
                }
            }
            route(state, &request)
        }));
        state.active_requests.fetch_sub(1, Ordering::AcqRel);
        let (endpoint, response) = outcome.unwrap_or_else(|payload| {
            state.metrics.panic_caught();
            (
                Endpoint::Other,
                error_response(&ServiceError::Internal(panic_message(payload.as_ref()))),
            )
        });
        if response.status == 408 {
            state.metrics.deadline_exceeded();
        }
        state
            .metrics
            .observe(endpoint, started.elapsed(), response.status < 400);
        if let Some(action) = state
            .fault_plan
            .as_deref()
            .and_then(|plan| plan.draw(FaultSite::PreWrite))
        {
            match action {
                FaultAction::DelayMs(ms) => std::thread::sleep(Duration::from_millis(ms)),
                FaultAction::DropConnection => return Ok(()),
                FaultAction::TruncateResponse => {
                    let bytes = crate::http::response_bytes(&response, true);
                    let _ = writer.write_all(&bytes[..bytes.len() / 2]);
                    let _ = writer.flush();
                    return Ok(());
                }
                FaultAction::Panic => {}
            }
        }
        write_response(&mut writer, &response, close)?;
        if close {
            return Ok(());
        }
    }
}

/// Maps a service error onto its HTTP status.
fn error_status(err: &ServiceError) -> u16 {
    match err {
        ServiceError::BadRequest(_) => 400,
        ServiceError::SessionNotFound(_) => 404,
        ServiceError::DeadlineExceeded { .. } => 408,
        ServiceError::PayloadTooLarge { .. } => 413,
        ServiceError::Synthesis(_) | ServiceError::Table(_) => 422,
        ServiceError::Overloaded { .. } => 429,
        ServiceError::Internal(_) | ServiceError::Snapshot(_) => 500,
    }
}

fn error_response(err: &ServiceError) -> Response {
    Response::ndjson(error_status(err), err.encode_line() + "\n")
}

fn decode_error(err: WireError) -> Response {
    error_response(&ServiceError::BadRequest(err.to_string()))
}

/// The synthesis budget in force for one request: its `deadline-ms`
/// header, else the server default. A malformed header is a typed 400.
fn request_budget(state: &State, request: &Request) -> Result<Option<Duration>, Response> {
    match request.header("deadline-ms") {
        None => Ok(state.default_deadline),
        Some(value) => match value.trim().parse::<u64>() {
            Ok(ms) => Ok(Some(Duration::from_millis(ms))),
            Err(_) => Err(error_response(&ServiceError::BadRequest(format!(
                "bad deadline-ms header `{value}`"
            )))),
        },
    }
}

fn route(state: &State, request: &Request) -> (Endpoint, Response) {
    let budget = match request_budget(state, request) {
        Ok(budget) => budget,
        Err(response) => return (Endpoint::Other, response),
    };
    let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
    match (request.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => (Endpoint::Other, Response::text(200, "ok\n".to_string())),
        ("GET", ["metrics"]) => (Endpoint::Other, metrics_response(state)),
        (method, ["v1", engine, rest @ ..]) => {
            let Some(engine) = state.engines.get(*engine) else {
                // Unknown engine: 404, body says which segment failed.
                let err = ServiceError::BadRequest(format!("unknown engine `{engine}`"));
                return (
                    Endpoint::Other,
                    Response::ndjson(404, err.encode_line() + "\n"),
                );
            };
            route_engine(state, engine, method, rest, &request.body, budget)
        }
        _ => (
            Endpoint::Other,
            error_response(&ServiceError::BadRequest(format!(
                "no route for {} {}",
                request.method, request.path
            ))),
        ),
    }
}

fn route_engine(
    state: &State,
    engine: &Engine,
    method: &str,
    rest: &[&str],
    body: &str,
    budget: Option<Duration>,
) -> (Endpoint, Response) {
    match (method, rest) {
        ("POST", ["learn"]) => (Endpoint::Learn, learn(state, engine, body, budget)),
        ("POST", ["apply"]) => (Endpoint::Apply, apply(state, engine, body, budget)),
        ("POST", ["sessions"]) => (Endpoint::SessionCreate, session_create(state, engine, body)),
        (method, ["sessions", id, verb @ ..]) => {
            let Ok(id) = id.parse::<u64>() else {
                return (
                    Endpoint::Other,
                    error_response(&ServiceError::BadRequest(format!("bad session id `{id}`"))),
                );
            };
            route_session(state, method, id, verb, body, budget)
        }
        (method, rest) => (
            Endpoint::Other,
            error_response(&ServiceError::BadRequest(format!(
                "no route for {} /v1/{{engine}}/{}",
                method,
                rest.join("/")
            ))),
        ),
    }
}

fn route_session(
    state: &State,
    method: &str,
    id: u64,
    verb: &[&str],
    body: &str,
    budget: Option<Duration>,
) -> (Endpoint, Response) {
    match (method, verb) {
        ("GET", []) => (Endpoint::SessionAttach, session_attach(state, id)),
        ("DELETE", []) => (Endpoint::SessionClose, session_close(state, id)),
        ("POST", ["examples"]) => (Endpoint::AddExamples, session_examples(state, id, body)),
        ("POST", ["inputs"]) => (Endpoint::WatchInputs, session_inputs(state, id, body)),
        ("GET", ["status"]) => (Endpoint::Status, session_status(state, id, budget)),
        ("POST", ["run_column"]) => (
            Endpoint::RunColumn,
            session_run_column(state, id, body, budget),
        ),
        (method, verb) => (
            Endpoint::Other,
            error_response(&ServiceError::BadRequest(format!(
                "no route for {} /v1/{{engine}}/sessions/{{id}}/{}",
                method,
                verb.join("/")
            ))),
        ),
    }
}

/// Runs `work` under an admission permit, answering the typed 429 when
/// both the execution slots and the wait queue are full.
fn admitted(state: &State, work: impl FnOnce() -> Response) -> Response {
    match state.admission.admit() {
        Ok(_permit) => {
            if let Some(delay) = state.debug_handler_delay {
                std::thread::sleep(delay);
            }
            work()
        }
        Err(err) => {
            state.metrics.reject();
            error_response(&err)
        }
    }
}

/// When a deadline terminated *every* request of a batch, the batch
/// answers a single top-level 408 instead of the usual 200 with embedded
/// errors (a partial batch keeps its successes and stays a 200).
fn whole_batch_deadline<'a>(
    errors: impl Iterator<Item = Option<&'a ServiceError>>,
) -> Option<ServiceError> {
    let mut first = None;
    let mut any = false;
    for error in errors {
        any = true;
        match error {
            Some(err @ ServiceError::DeadlineExceeded { .. }) => {
                if first.is_none() {
                    first = Some(err.clone());
                }
            }
            _ => return None,
        }
    }
    if any {
        first
    } else {
        None
    }
}

fn learn(state: &State, engine: &Engine, body: &str, budget: Option<Duration>) -> Response {
    let requests = match decode_lines(body) {
        Ok(requests) => requests,
        Err(err) => return decode_error(err),
    };
    admitted(state, || {
        let responses = engine.learn_batch(&requests, budget);
        if let Some(err) = whole_batch_deadline(responses.iter().map(|r| r.result.as_ref().err())) {
            return error_response(&err);
        }
        let wire: Vec<WireLearnResponse> = responses
            .iter()
            .map(WireLearnResponse::from_response)
            .collect();
        Response::ndjson(200, encode_lines(&wire))
    })
}

fn apply(state: &State, engine: &Engine, body: &str, budget: Option<Duration>) -> Response {
    let requests = match decode_lines(body) {
        Ok(requests) => requests,
        Err(err) => return decode_error(err),
    };
    admitted(state, || {
        let responses = engine.apply_batch(&requests, budget);
        if let Some(err) = whole_batch_deadline(responses.iter().map(|r| r.result.as_ref().err())) {
            return error_response(&err);
        }
        Response::ndjson(200, encode_lines(&responses))
    })
}

fn session_create(state: &State, engine: &Engine, body: &str) -> Response {
    let examples = match decode_lines(body) {
        Ok(examples) => examples,
        Err(err) => return decode_error(err),
    };
    let mut session = engine.session();
    session.add_examples(examples);
    let info = SessionInfo {
        session: 0,
        examples: session.examples().len(),
        inputs: session.inputs().len(),
    };
    let id = state.sessions.create(session);
    let info = SessionInfo {
        session: id,
        ..info
    };
    Response::ndjson(200, info.encode_line() + "\n")
}

fn with_session(
    state: &State,
    id: u64,
    work: impl FnOnce(&mut sst_service::Session) -> Response,
) -> Response {
    match state.sessions.touch(id) {
        Ok(session) => {
            let mut session = session
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            work(&mut session)
        }
        Err(err) => error_response(&err),
    }
}

fn session_info(id: u64, session: &sst_service::Session) -> Response {
    let info = SessionInfo {
        session: id,
        examples: session.examples().len(),
        inputs: session.inputs().len(),
    };
    Response::ndjson(200, info.encode_line() + "\n")
}

fn session_attach(state: &State, id: u64) -> Response {
    with_session(state, id, |session| session_info(id, session))
}

fn session_close(state: &State, id: u64) -> Response {
    match state.sessions.close(id) {
        Ok(()) => Response::ndjson(200, String::new()),
        Err(err) => error_response(&err),
    }
}

fn session_examples(state: &State, id: u64, body: &str) -> Response {
    let examples: Vec<sst_core::Example> = match decode_lines(body) {
        Ok(examples) => examples,
        Err(err) => return decode_error(err),
    };
    with_session(state, id, |session| {
        session.add_examples(examples);
        session_info(id, session)
    })
}

fn session_inputs(state: &State, id: u64, body: &str) -> Response {
    let rows = match decode_row_lines(body) {
        Ok(rows) => rows,
        Err(err) => return decode_error(err),
    };
    with_session(state, id, |session| {
        session.watch_inputs(rows);
        session_info(id, session)
    })
}

fn session_status(state: &State, id: u64, budget: Option<Duration>) -> Response {
    admitted(state, || {
        with_session(state, id, |session| {
            session.set_budget(budget);
            match session.status() {
                Ok(status) => Response::ndjson(200, status.encode_line() + "\n"),
                Err(err) => error_response(&err),
            }
        })
    })
}

fn session_run_column(state: &State, id: u64, body: &str, budget: Option<Duration>) -> Response {
    let rows = match decode_row_lines(body) {
        Ok(rows) => rows,
        Err(err) => return decode_error(err),
    };
    admitted(state, || {
        with_session(state, id, |session| {
            session.set_budget(budget);
            match session.run_column(&rows) {
                Ok(cells) => Response::ndjson(200, encode_cell_lines(&cells)),
                Err(err) => error_response(&err),
            }
        })
    })
}

fn metrics_response(state: &State) -> Response {
    use std::fmt::Write;
    let mut out = String::new();
    state.metrics.render(&mut out);
    let _ = writeln!(out, "# TYPE sst_in_flight gauge");
    let _ = writeln!(out, "sst_in_flight {}", state.admission.in_flight());
    let _ = writeln!(out, "# TYPE sst_queued gauge");
    let _ = writeln!(out, "sst_queued {}", state.admission.queued());
    let _ = writeln!(out, "# TYPE sst_drain_state gauge");
    let _ = writeln!(
        out,
        "sst_drain_state {}",
        state.drain.load(Ordering::Acquire)
    );
    let _ = writeln!(out, "# TYPE sst_active_requests gauge");
    let _ = writeln!(
        out,
        "sst_active_requests {}",
        state.active_requests.load(Ordering::Acquire)
    );
    let _ = writeln!(out, "# TYPE sst_sessions_live gauge");
    let _ = writeln!(out, "sst_sessions_live {}", state.sessions.live());
    let _ = writeln!(out, "# TYPE sst_sessions_evicted_total counter");
    let _ = writeln!(
        out,
        "sst_sessions_evicted_total {}",
        state.sessions.evicted()
    );
    out.push_str("# TYPE sst_cache_hits_total counter\n");
    out.push_str("# TYPE sst_cache_misses_total counter\n");
    for name in &state.engine_names {
        let stats = state.engines[name].cache_stats();
        for (layer, hits, misses) in [
            ("dag", stats.dag_hits, stats.dag_misses),
            ("example", stats.example_hits, stats.example_misses),
            ("intersect", stats.intersect_hits, stats.intersect_misses),
            ("rank", stats.rank_hits, stats.rank_misses),
            ("compile", stats.compile_hits, stats.compile_misses),
        ] {
            let _ = writeln!(
                out,
                "sst_cache_hits_total{{engine=\"{name}\",layer=\"{layer}\"}} {hits}"
            );
            let _ = writeln!(
                out,
                "sst_cache_misses_total{{engine=\"{name}\",layer=\"{layer}\"}} {misses}"
            );
        }
    }
    // Sharing counters of the last snapshot write or restore, replaced by
    // each, so all four are gauges.
    out.push_str("# TYPE sst_snapshot_allocations gauge\n");
    out.push_str("# TYPE sst_snapshot_references gauge\n");
    out.push_str("# TYPE sst_snapshot_back_references gauge\n");
    out.push_str("# TYPE sst_snapshot_memo_bytes gauge\n");
    for name in &state.engine_names {
        let stats = state.engines[name].arena_stats();
        for (metric, value) in [
            ("sst_snapshot_allocations", stats.stored),
            ("sst_snapshot_references", stats.interned),
            ("sst_snapshot_back_references", stats.hits()),
            ("sst_snapshot_memo_bytes", stats.resident_bytes),
        ] {
            let _ = writeln!(out, "{metric}{{engine=\"{name}\"}} {value}");
        }
    }
    // Snapshot gauges read the file at render time: the numbers describe
    // the durable artifact itself, not a counter the server could drift
    // away from across restarts.
    if let Some(path) = &state.snapshot_path {
        if let Ok(meta) = std::fs::metadata(path) {
            let _ = writeln!(out, "# TYPE sst_snapshot_bytes gauge");
            let _ = writeln!(out, "sst_snapshot_bytes {}", meta.len());
            if let Some(age) = meta.modified().ok().and_then(|m| m.elapsed().ok()) {
                let _ = writeln!(out, "# TYPE sst_snapshot_age_seconds gauge");
                let _ = writeln!(out, "sst_snapshot_age_seconds {}", age.as_secs());
            }
        }
    }
    let restore_ns = state.restore_ns.load(Ordering::Acquire);
    let _ = writeln!(out, "# TYPE sst_snapshot_restore_seconds gauge");
    let _ = writeln!(
        out,
        "sst_snapshot_restore_seconds {:.9}",
        restore_ns as f64 / 1e9
    );
    Response::text(200, out)
}
