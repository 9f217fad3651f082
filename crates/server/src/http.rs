//! Minimal HTTP/1.1 framing over [`std::net::TcpStream`].
//!
//! Hand-rolled because the build environment has no registry access:
//! exactly the subset the serving stack needs — request-line + headers +
//! `Content-Length` bodies in, status + headers + body out, persistent
//! connections by default (`Connection: close` honored both ways). No
//! chunked encoding, no TLS, no HTTP/2; the wire payloads themselves are
//! newline-delimited JSON from [`sst_service::wire`].
//!
//! The read path is hardened against hostile peers: every failure mode is
//! a typed [`ReadError`] (so the server can answer 400/408/413 precisely
//! instead of guessing from an `io::Error` string), header lines are
//! length-capped, declared bodies are capped at [`MAX_BODY`], and
//! [`ReadLimits`] bounds both keep-alive idleness and the total wall-clock
//! a single request may take to arrive (the slow-loris budget — the
//! timeout re-arms on *remaining* budget before every read, so trickling
//! one byte per second never keeps a connection thread hostage).

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Upper bound on header count per request (defense against malformed or
/// hostile peers).
const MAX_HEADERS: usize = 100;

/// Upper bound on one request-line or header line, bytes (a peer sending
/// an endless line without `\n` is cut off here instead of growing a
/// buffer without bound).
const MAX_LINE: usize = 8 << 10;

/// Upper bound on a request body (64 MiB — a 10⁶-row apply column of
/// short cells fits comfortably).
pub const MAX_BODY: usize = 64 << 20;

/// How reading one request can fail. Each variant maps onto exactly one
/// server behavior, so the connection loop never has to parse error
/// strings.
#[derive(Debug)]
pub enum ReadError {
    /// Framing or syntax violation (bad request line, oversized or
    /// malformed header, non-UTF-8 body, peer vanished mid-frame):
    /// answered with a typed 400, then the connection closes.
    Malformed(String),
    /// The declared `Content-Length` exceeds the frame cap: answered with
    /// a typed 413 carrying the cap, then the connection closes.
    TooLarge {
        /// The cap in force ([`MAX_BODY`]).
        limit: usize,
    },
    /// A socket read timed out. `idle: true` means not one byte of the
    /// next request had arrived (keep-alive quiescence — the connection
    /// closes silently); `idle: false` means the peer stalled mid-request
    /// (slow-loris), answered with a typed 408 before closing.
    TimedOut {
        /// Whether the connection was between requests when it timed out.
        idle: bool,
    },
    /// Transport failure (reset, broken pipe); the connection closes
    /// silently.
    Io(io::Error),
}

/// Socket read budgets for one connection, applied by [`read_request`].
/// `None` disables the respective bound (the pre-hardening behavior).
#[derive(Debug, Clone, Copy, Default)]
pub struct ReadLimits {
    /// How long a keep-alive connection may sit with no request at all
    /// before it is closed.
    pub idle_timeout: Option<Duration>,
    /// Total wall-clock budget for one request to arrive in full, started
    /// at its first byte (the slow-loris bound).
    pub request_timeout: Option<Duration>,
}

/// Tracks where one request-read stands against [`ReadLimits`]: idle
/// until the first byte, then racing the request budget.
struct ReadClock<'a> {
    limits: &'a ReadLimits,
    started: Option<Instant>,
}

impl<'a> ReadClock<'a> {
    fn new(limits: &'a ReadLimits) -> Self {
        ReadClock {
            limits,
            started: None,
        }
    }

    /// Whether no byte of the request has arrived yet.
    fn idle(&self) -> bool {
        self.started.is_none()
    }

    /// Marks the first byte as arrived (starts the request budget).
    fn start(&mut self) {
        if self.started.is_none() {
            self.started = Some(Instant::now());
        }
    }

    /// Arms the socket read timeout with whatever budget remains —
    /// failing immediately when the request budget is already spent.
    fn arm(&self, stream: &TcpStream) -> Result<(), ReadError> {
        let timeout = match self.started {
            None => self.limits.idle_timeout,
            Some(started) => match self.limits.request_timeout {
                None => None,
                Some(budget) => {
                    let remaining = budget.saturating_sub(started.elapsed());
                    if remaining.is_zero() {
                        return Err(ReadError::TimedOut { idle: false });
                    }
                    Some(remaining)
                }
            },
        };
        stream.set_read_timeout(timeout).map_err(ReadError::Io)
    }
}

fn is_timeout(err: &io::Error) -> bool {
    matches!(
        err.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Reads one `\n`-terminated line, capped at [`MAX_LINE`] bytes.
/// `Ok(None)` is EOF before any byte of the line.
fn read_line_capped(
    reader: &mut BufReader<TcpStream>,
    clock: &mut ReadClock<'_>,
) -> Result<Option<String>, ReadError> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        clock.arm(reader.get_ref())?;
        let buf = match reader.fill_buf() {
            Ok(buf) => buf,
            Err(err) if err.kind() == io::ErrorKind::Interrupted => continue,
            Err(err) if is_timeout(&err) => {
                return Err(ReadError::TimedOut {
                    idle: clock.idle() && line.is_empty(),
                });
            }
            Err(err) => return Err(ReadError::Io(err)),
        };
        if buf.is_empty() {
            return if line.is_empty() {
                Ok(None)
            } else {
                Err(ReadError::Malformed(
                    "connection closed inside a line".to_string(),
                ))
            };
        }
        let (take, done) = match buf.iter().position(|&b| b == b'\n') {
            Some(i) => (i + 1, true),
            None => (buf.len(), false),
        };
        line.extend_from_slice(&buf[..take]);
        reader.consume(take);
        clock.start();
        if line.len() > MAX_LINE {
            return Err(ReadError::Malformed("header line too long".to_string()));
        }
        if done {
            let text = String::from_utf8(line)
                .map_err(|_| ReadError::Malformed("header line is not UTF-8".to_string()))?;
            return Ok(Some(text));
        }
    }
}

/// One parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// `GET`, `POST`, `DELETE`, ...
    pub method: String,
    /// The request target (path only; this server defines no query
    /// parameters).
    pub path: String,
    /// Headers in arrival order, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The body (empty when no `Content-Length`).
    pub body: String,
}

impl Request {
    /// Case-insensitive header lookup (names are stored lower-cased).
    pub fn header(&self, name: &str) -> Option<&str> {
        let lower = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == lower)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to drop the connection after this
    /// exchange.
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Reads one request off a persistent connection under `limits`.
/// `Ok(None)` is a clean EOF before the request line (the client hung up
/// between requests); every failure is a typed [`ReadError`].
pub fn read_request(
    reader: &mut BufReader<TcpStream>,
    limits: &ReadLimits,
) -> Result<Option<Request>, ReadError> {
    let mut clock = ReadClock::new(limits);
    let Some(line) = read_line_capped(reader, &mut clock)? else {
        return Ok(None);
    };
    let mut parts = line.split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v)) => (m.to_string(), p.to_string(), v),
        _ => return Err(ReadError::Malformed("malformed request line".to_string())),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(ReadError::Malformed("unsupported HTTP version".to_string()));
    }

    let mut headers = Vec::new();
    loop {
        let header_line = read_line_capped(reader, &mut clock)?
            .ok_or_else(|| ReadError::Malformed("connection closed inside headers".to_string()))?;
        let trimmed = header_line.trim_end_matches(['\r', '\n']);
        if trimmed.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(ReadError::Malformed("too many headers".to_string()));
        }
        let (name, value) = trimmed
            .split_once(':')
            .ok_or_else(|| ReadError::Malformed("malformed header".to_string()))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let content_length = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .map(|(_, v)| {
            v.parse::<usize>()
                .map_err(|_| ReadError::Malformed("bad content-length".to_string()))
        })
        .transpose()?
        .unwrap_or(0);
    if content_length > MAX_BODY {
        return Err(ReadError::TooLarge { limit: MAX_BODY });
    }
    let mut body = vec![0u8; content_length];
    let mut filled = 0;
    while filled < content_length {
        clock.arm(reader.get_ref())?;
        match reader.read(&mut body[filled..]) {
            Ok(0) => {
                return Err(ReadError::Malformed(
                    "connection closed inside body".to_string(),
                ))
            }
            Ok(n) => filled += n,
            Err(err) if err.kind() == io::ErrorKind::Interrupted => continue,
            Err(err) if is_timeout(&err) => return Err(ReadError::TimedOut { idle: false }),
            Err(err) => return Err(ReadError::Io(err)),
        }
    }
    let body = String::from_utf8(body)
        .map_err(|_| ReadError::Malformed("body is not UTF-8".to_string()))?;

    Ok(Some(Request {
        method,
        path,
        headers,
        body,
    }))
}

/// One response to write back.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// The body.
    pub body: String,
}

impl Response {
    /// An NDJSON response (the serving stack's default content type).
    pub fn ndjson(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "application/x-ndjson",
            body,
        }
    }

    /// A plain-text response (`/metrics`, `/healthz`).
    pub fn text(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body,
        }
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        _ => "Unknown",
    }
}

/// Serializes one response to raw wire bytes (head + body). The fault
/// plane uses this to truncate responses mid-frame deterministically.
pub fn response_bytes(response: &Response, close: bool) -> Vec<u8> {
    let head = format!(
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {}\r\n\r\n",
        response.status,
        reason(response.status),
        response.content_type,
        response.body.len(),
        if close { "close" } else { "keep-alive" },
    );
    let mut bytes = Vec::with_capacity(head.len() + response.body.len());
    bytes.extend_from_slice(head.as_bytes());
    bytes.extend_from_slice(response.body.as_bytes());
    bytes
}

/// Writes one response, keeping the connection open unless `close`.
pub fn write_response(stream: &mut TcpStream, response: &Response, close: bool) -> io::Result<()> {
    stream.write_all(&response_bytes(response, close))?;
    stream.flush()
}
