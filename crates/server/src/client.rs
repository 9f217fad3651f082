//! A blocking client for the serving stack, one keep-alive connection
//! per instance.
//!
//! The client speaks exactly what the server serves: HTTP/1.1 with
//! newline-delimited JSON bodies. Non-2xx responses are decoded into the
//! typed [`ServiceError`] they carry, so callers match on
//! [`ClientError::Http`] the same way in-process callers match on the
//! service plane's own errors — an evicted session is
//! `SessionNotFound`, a saturated server is `Overloaded`, never a
//! stringly-typed status code.
//!
//! Instances are intentionally single-connection: drive concurrency by
//! opening more clients (as the `chaos_replay` test does), not by sharing
//! one.
//!
//! # Timeouts and retries
//!
//! A client built with [`Client::connect_with`] can bound each request
//! with a socket read timeout ([`ClientConfig::request_timeout`]) and
//! retry *idempotent* requests — learn, apply, status, `run_column`,
//! attach, `watch_inputs`, close, `/healthz`, `/metrics` — on transport
//! failures, 429 and 5xx, with capped exponential backoff and
//! deterministic (seeded) jitter. Non-idempotent requests
//! (`create_session`, `add_examples`) are never retried automatically:
//! a retry that actually reached the server the first time would create
//! a second session or double an example. Retried requests carry an
//! `x-retry-attempt` header, which the server counts on `/metrics`.
//! Defaults keep the pre-hardening behavior: zero retries, no timeout.

use std::fmt;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use sst_core::Example;
use sst_service::{
    decode_cell_lines, decode_lines, encode_lines, encode_row_lines, ApplyRequest, ApplyResponse,
    LearnRequest, ServiceError, SessionStatus, Wire, WireError, WireLearnResponse,
};

use crate::fault::splitmix64;
use crate::proto::SessionInfo;

/// What a request can fail with.
#[derive(Debug)]
pub enum ClientError {
    /// The connection broke or the response framing was malformed.
    Io(io::Error),
    /// The response body did not decode as the expected wire type.
    Decode(WireError),
    /// The server answered non-2xx with a typed error body.
    Http {
        /// The HTTP status.
        status: u16,
        /// The decoded error body.
        error: ServiceError,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(err) => write!(f, "transport: {err}"),
            ClientError::Decode(err) => write!(f, "bad response body: {err}"),
            ClientError::Http { status, error } => write!(f, "HTTP {status}: {error}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(err) => Some(err),
            ClientError::Decode(err) => Some(err),
            ClientError::Http { error, .. } => Some(error),
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(err: io::Error) -> Self {
        ClientError::Io(err)
    }
}

impl From<WireError> for ClientError {
    fn from(err: WireError) -> Self {
        ClientError::Decode(err)
    }
}

impl ClientError {
    /// The typed service error, when the server sent one.
    pub fn service_error(&self) -> Option<&ServiceError> {
        match self {
            ClientError::Http { error, .. } => Some(error),
            _ => None,
        }
    }
}

/// Client tuning knobs for [`Client::connect_with`]. `Default` is the
/// pre-hardening behavior: no socket timeout, no deadline header, zero
/// retries.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Socket read timeout per response; a server that stalls past it
    /// surfaces as [`ClientError::Io`] (kind `WouldBlock`/`TimedOut`).
    pub request_timeout: Option<Duration>,
    /// How many times an idempotent request is retried after a
    /// retryable failure (transport error, 429, 5xx). `0` disables.
    pub retries: u32,
    /// First backoff delay; doubles per attempt.
    pub backoff_base: Duration,
    /// Upper bound on one backoff delay.
    pub backoff_cap: Duration,
    /// Seed for the deterministic backoff jitter.
    pub retry_seed: u64,
    /// When set, every request carries a `deadline-ms` header with this
    /// value — the server-side synthesis budget.
    pub deadline_ms: Option<u64>,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            request_timeout: None,
            retries: 0,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(250),
            retry_seed: 0x5357_5f72_6574_7279,
            deadline_ms: None,
        }
    }
}

/// One keep-alive connection to a server. See the module docs.
pub struct Client {
    addr: SocketAddr,
    config: ClientConfig,
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects to a server with default (no-retry) configuration.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        Client::connect_with(addr, ClientConfig::default())
    }

    /// Connects with explicit timeout/retry configuration.
    pub fn connect_with(addr: impl ToSocketAddrs, config: ClientConfig) -> io::Result<Client> {
        let addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::AddrNotAvailable,
                "address resolved to nothing",
            )
        })?;
        let (writer, reader) = Client::open(addr, &config)?;
        Ok(Client {
            addr,
            config,
            writer,
            reader,
        })
    }

    fn open(
        addr: SocketAddr,
        config: &ClientConfig,
    ) -> io::Result<(TcpStream, BufReader<TcpStream>)> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(config.request_timeout)?;
        let writer = stream.try_clone()?;
        Ok((writer, BufReader::new(stream)))
    }

    /// Tears down the (possibly mid-frame) connection and dials a fresh
    /// one — the retry path after a transport failure.
    fn reconnect(&mut self) -> io::Result<()> {
        let (writer, reader) = Client::open(self.addr, &self.config)?;
        self.writer = writer;
        self.reader = reader;
        Ok(())
    }

    /// Sets (or clears) the `deadline-ms` header attached to every
    /// subsequent request.
    pub fn set_deadline_ms(&mut self, ms: Option<u64>) {
        self.config.deadline_ms = ms;
    }

    /// One raw exchange: returns the status and body. Typed helpers below
    /// are built on this; it is public so tests can hit edge routes.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
    ) -> Result<(u16, String), ClientError> {
        self.request_attempt(method, path, body, 0)
    }

    fn request_attempt(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
        attempt: u32,
    ) -> Result<(u16, String), ClientError> {
        let mut head = format!(
            "{method} {path} HTTP/1.1\r\nhost: sst\r\ncontent-length: {}\r\n",
            body.len()
        );
        if let Some(ms) = self.config.deadline_ms {
            head.push_str(&format!("deadline-ms: {ms}\r\n"));
        }
        if attempt > 0 {
            head.push_str(&format!("x-retry-attempt: {attempt}\r\n"));
        }
        head.push_str("\r\n");
        self.writer.write_all(head.as_bytes())?;
        self.writer.write_all(body.as_bytes())?;
        self.writer.flush()?;

        let mut status_line = String::new();
        if self.reader.read_line(&mut status_line)? == 0 {
            return Err(ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )));
        }
        let status = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| {
                ClientError::Io(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "malformed status line",
                ))
            })?;

        let mut content_length = 0usize;
        loop {
            let mut line = String::new();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(ClientError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed inside headers",
                )));
            }
            let trimmed = line.trim_end_matches(['\r', '\n']);
            if trimmed.is_empty() {
                break;
            }
            if let Some((name, value)) = trimmed.split_once(':') {
                if name.trim().eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().map_err(|_| {
                        ClientError::Io(io::Error::new(
                            io::ErrorKind::InvalidData,
                            "bad content-length",
                        ))
                    })?;
                }
            }
        }

        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        let body = String::from_utf8(body).map_err(|_| {
            ClientError::Io(io::Error::new(
                io::ErrorKind::InvalidData,
                "response body is not UTF-8",
            ))
        })?;
        Ok((status, body))
    }

    /// Raises non-2xx responses as [`ClientError::Http`] with the typed
    /// error decoded from the body. One attempt, no retry.
    fn checked(&mut self, method: &str, path: &str, body: &str) -> Result<String, ClientError> {
        self.checked_attempt(method, path, body, 0)
    }

    fn checked_attempt(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
        attempt: u32,
    ) -> Result<String, ClientError> {
        let (status, body) = self.request_attempt(method, path, body, attempt)?;
        if (200..300).contains(&status) {
            return Ok(body);
        }
        let error = body
            .lines()
            .find(|line| !line.trim().is_empty())
            .and_then(|line| ServiceError::decode_line(line).ok())
            .unwrap_or_else(|| ServiceError::BadRequest(body.trim().to_string()));
        Err(ClientError::Http { status, error })
    }

    /// [`Client::checked`] plus the retry loop for idempotent requests:
    /// transport failures, 429 and 5xx are retried up to
    /// [`ClientConfig::retries`] times with capped exponential backoff
    /// and seeded jitter; everything else (and every non-idempotent
    /// request) surfaces immediately.
    fn checked_retry(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
        idempotent: bool,
    ) -> Result<String, ClientError> {
        let mut attempt = 0u32;
        loop {
            let result = self.checked_attempt(method, path, body, attempt);
            let retryable = idempotent
                && attempt < self.config.retries
                && match &result {
                    Err(ClientError::Io(_)) => true,
                    Err(ClientError::Http { status, .. }) => *status == 429 || *status >= 500,
                    _ => false,
                };
            if !retryable {
                return result;
            }
            if matches!(result, Err(ClientError::Io(_))) {
                // The connection may hold half a frame; start clean.
                if let Err(err) = self.reconnect() {
                    return Err(ClientError::Io(err));
                }
            }
            std::thread::sleep(self.backoff(attempt));
            attempt += 1;
        }
    }

    /// Backoff before retry `attempt + 1`: `base * 2^attempt`, capped,
    /// then jittered into `[delay/2, delay]` deterministically.
    fn backoff(&self, attempt: u32) -> Duration {
        let base = self.config.backoff_base.as_millis().max(1) as u64;
        let cap = self.config.backoff_cap.as_millis().max(1) as u64;
        let delay = base.saturating_mul(1u64 << attempt.min(16)).min(cap);
        let jitter = splitmix64(self.config.retry_seed ^ u64::from(attempt)) % (delay / 2 + 1);
        Duration::from_millis(delay / 2 + jitter)
    }

    /// `GET /healthz`.
    pub fn healthz(&mut self) -> Result<bool, ClientError> {
        let (status, _) = self.request("GET", "/healthz", "")?;
        Ok(status == 200)
    }

    /// `GET /metrics`: the raw Prometheus text.
    pub fn metrics_text(&mut self) -> Result<String, ClientError> {
        self.checked_retry("GET", "/metrics", "", true)
    }

    /// `POST /v1/{engine}/learn`: batch learn, request-ordered summaries.
    pub fn learn(
        &mut self,
        engine: &str,
        requests: &[LearnRequest],
    ) -> Result<Vec<WireLearnResponse>, ClientError> {
        let body = self.checked_retry(
            "POST",
            &format!("/v1/{engine}/learn"),
            &encode_lines(requests),
            true,
        )?;
        Ok(decode_lines(&body)?)
    }

    /// `POST /v1/{engine}/apply`: batch apply, request-ordered outputs.
    pub fn apply(
        &mut self,
        engine: &str,
        requests: &[ApplyRequest],
    ) -> Result<Vec<ApplyResponse>, ClientError> {
        let body = self.checked_retry(
            "POST",
            &format!("/v1/{engine}/apply"),
            &encode_lines(requests),
            true,
        )?;
        Ok(decode_lines(&body)?)
    }

    /// `POST /v1/{engine}/sessions`: a new session seeded with
    /// `examples` (may be empty).
    pub fn create_session(
        &mut self,
        engine: &str,
        examples: &[Example],
    ) -> Result<SessionInfo, ClientError> {
        let body = self.checked(
            "POST",
            &format!("/v1/{engine}/sessions"),
            &encode_lines(examples),
        )?;
        Ok(SessionInfo::decode_line(body.trim_end())?)
    }

    /// `GET /v1/{engine}/sessions/{id}`: attach to a live session.
    pub fn attach(&mut self, engine: &str, session: u64) -> Result<SessionInfo, ClientError> {
        let body =
            self.checked_retry("GET", &format!("/v1/{engine}/sessions/{session}"), "", true)?;
        Ok(SessionInfo::decode_line(body.trim_end())?)
    }

    /// `POST /v1/{engine}/sessions/{id}/examples`.
    pub fn add_examples(
        &mut self,
        engine: &str,
        session: u64,
        examples: &[Example],
    ) -> Result<SessionInfo, ClientError> {
        let body = self.checked(
            "POST",
            &format!("/v1/{engine}/sessions/{session}/examples"),
            &encode_lines(examples),
        )?;
        Ok(SessionInfo::decode_line(body.trim_end())?)
    }

    /// `POST /v1/{engine}/sessions/{id}/inputs`.
    pub fn watch_inputs(
        &mut self,
        engine: &str,
        session: u64,
        rows: &[Vec<String>],
    ) -> Result<SessionInfo, ClientError> {
        let body = self.checked_retry(
            "POST",
            &format!("/v1/{engine}/sessions/{session}/inputs"),
            &encode_row_lines(rows),
            true,
        )?;
        Ok(SessionInfo::decode_line(body.trim_end())?)
    }

    /// `GET /v1/{engine}/sessions/{id}/status`: learns (server-side,
    /// memoized) and reports convergence.
    pub fn status(&mut self, engine: &str, session: u64) -> Result<SessionStatus, ClientError> {
        let body = self.checked_retry(
            "GET",
            &format!("/v1/{engine}/sessions/{session}/status"),
            "",
            true,
        )?;
        Ok(SessionStatus::decode_line(body.trim_end())?)
    }

    /// `POST /v1/{engine}/sessions/{id}/run_column`: top-ranked program
    /// over a whole column.
    pub fn run_column(
        &mut self,
        engine: &str,
        session: u64,
        rows: &[Vec<String>],
    ) -> Result<Vec<Option<String>>, ClientError> {
        let body = self.checked_retry(
            "POST",
            &format!("/v1/{engine}/sessions/{session}/run_column"),
            &encode_row_lines(rows),
            true,
        )?;
        Ok(decode_cell_lines(&body)?)
    }

    /// `DELETE /v1/{engine}/sessions/{id}`.
    pub fn close_session(&mut self, engine: &str, session: u64) -> Result<(), ClientError> {
        self.checked_retry(
            "DELETE",
            &format!("/v1/{engine}/sessions/{session}"),
            "",
            true,
        )?;
        Ok(())
    }
}
