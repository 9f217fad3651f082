//! The wire codec: line-delimited JSON for the typed service boundary.
//!
//! The build container has no registry access, so this module hand-rolls
//! the small JSON subset the serving stack needs instead of pulling in
//! `serde` — in the same vendored spirit as the offline `proptest` shim.
//! One encoded value is always **one line** (JSON escapes every control
//! character, so a newline can never appear inside an encoded value), which gives the server its framing for free:
//! request and response bodies are newline-delimited streams of values,
//! and a reader can split on `\n` before parsing.
//!
//! Two layers:
//!
//! * [`Json`] — a minimal JSON document model (null, bool, unsigned
//!   integer, string, array, object) with a strict parser and a writer.
//!   Unsigned integers are the only number shape the boundary uses;
//!   floats are rejected at parse time rather than silently rounded, so
//!   `decode(encode(x)) == x` can hold exactly.
//! * [`Wire`] — encode/decode between the service types and [`Json`].
//!   Implemented for [`Example`], [`LearnRequest`], [`WireLearnResponse`],
//!   [`ApplyRequest`], [`ApplyResponse`] and every [`ServiceError`]
//!   variant (including the nested [`SynthesisError`] / [`TableError`]
//!   causes). Round-trips are pinned by proptests in
//!   `tests/wire_roundtrip.rs` over randomized values — unicode, empty
//!   strings, miss cells, every error variant.
//!
//! [`LearnResponse`](crate::LearnResponse) itself holds the in-memory
//! [`LearnedPrograms`](sst_core::LearnedPrograms) set (counts like
//! 1.5·10³⁵³ of `Arc`-shared program trees); what crosses the wire is
//! [`WireLearnResponse`] — the response's *observables*: exact program
//! count (decimal), structure size, and the top-ranked programs'
//! paraphrases. Execution stays server-side (`/apply`, `run_column`),
//! which is also why those endpoints return full per-row outputs.

use std::fmt;

use sst_core::{Example, SynthesisError};
use sst_tables::TableError;

use crate::types::{
    ApplyRequest, ApplyResponse, LearnRequest, LearnResponse, ServiceError, SessionStatus,
};

/// A decode failure: what the parser or a [`Wire`] impl could not accept.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Human-readable description of the failure.
    pub message: String,
}

impl WireError {
    /// A failure with the given description.
    pub fn new(message: impl Into<String>) -> Self {
        WireError {
            message: message.into(),
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wire decode failed: {}", self.message)
    }
}

impl std::error::Error for WireError {}

/// The JSON subset of the wire: null, bool, unsigned 64-bit integer,
/// string, array, object (insertion-ordered — encoding is deterministic).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (the only number shape on this boundary).
    UInt(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// A required object field.
    pub fn field(&self, key: &str) -> Result<&Json, WireError> {
        self.get(key)
            .ok_or_else(|| WireError::new(format!("missing field `{key}`")))
    }

    /// This value as a string.
    pub fn as_str(&self) -> Result<&str, WireError> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(WireError::new(format!("expected string, got {other:?}"))),
        }
    }

    /// This value as a `u64`.
    pub fn as_u64(&self) -> Result<u64, WireError> {
        match self {
            Json::UInt(n) => Ok(*n),
            other => Err(WireError::new(format!("expected integer, got {other:?}"))),
        }
    }

    /// This value as a `usize`.
    pub fn as_usize(&self) -> Result<usize, WireError> {
        usize::try_from(self.as_u64()?).map_err(|_| WireError::new("integer does not fit in usize"))
    }

    /// This value as a `u32` (the tables' row/column/table id width).
    pub fn as_u32(&self) -> Result<u32, WireError> {
        u32::try_from(self.as_u64()?).map_err(|_| WireError::new("integer does not fit in u32"))
    }

    /// This value as an array slice.
    pub fn as_arr(&self) -> Result<&[Json], WireError> {
        match self {
            Json::Arr(items) => Ok(items),
            other => Err(WireError::new(format!("expected array, got {other:?}"))),
        }
    }

    /// Serializes onto one line (no interior newlines, by JSON escaping).
    pub fn to_line(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(n) => {
                out.push_str(&n.to_string());
            }
            Json::Str(s) => write_json_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON value, requiring it to span the whole input (aside
    /// from surrounding whitespace).
    pub fn parse(input: &str) -> Result<Json, WireError> {
        let bytes = input.as_bytes();
        let mut pos = 0;
        skip_ws(bytes, &mut pos);
        let value = parse_value(input, bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(WireError::new(format!(
                "trailing garbage at byte {pos} of {:?}",
                truncate_for_error(input)
            )));
        }
        Ok(value)
    }
}

/// JSON string escaping: `"` and `\` get backslashes, control characters
/// become `\uXXXX` (with the `\n`/`\r`/`\t` shorthands); everything else —
/// including multi-byte unicode — passes through as UTF-8.
fn write_json_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn truncate_for_error(s: &str) -> String {
    let mut out: String = s.chars().take(60).collect();
    if out.len() < s.len() {
        out.push('…');
    }
    out
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect_byte(bytes: &[u8], pos: &mut usize, want: u8) -> Result<(), WireError> {
    if *pos < bytes.len() && bytes[*pos] == want {
        *pos += 1;
        Ok(())
    } else {
        Err(WireError::new(format!(
            "expected `{}` at byte {}",
            want as char, *pos
        )))
    }
}

fn parse_value(input: &str, bytes: &[u8], pos: &mut usize) -> Result<Json, WireError> {
    match bytes.get(*pos) {
        None => Err(WireError::new("unexpected end of input")),
        Some(b'n') => parse_keyword(bytes, pos, "null", Json::Null),
        Some(b't') => parse_keyword(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(input, bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                skip_ws(bytes, pos);
                items.push(parse_value(input, bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(WireError::new(format!("expected `,` or `]` at byte {pos}"))),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(input, bytes, pos)?;
                skip_ws(bytes, pos);
                expect_byte(bytes, pos, b':')?;
                skip_ws(bytes, pos);
                let value = parse_value(input, bytes, pos)?;
                pairs.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => {
                        return Err(WireError::new(format!(
                            "expected `,` or `}}` at byte {pos}"
                        )))
                    }
                }
            }
        }
        Some(b'0'..=b'9') => {
            let start = *pos;
            while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
                *pos += 1;
            }
            // The boundary carries no floats: reject rather than round.
            if matches!(bytes.get(*pos), Some(b'.') | Some(b'e') | Some(b'E')) {
                return Err(WireError::new(
                    "non-integer numbers are not part of the wire",
                ));
            }
            input[start..*pos]
                .parse::<u64>()
                .map(Json::UInt)
                .map_err(|_| WireError::new("integer out of u64 range"))
        }
        Some(b'-') => Err(WireError::new("negative numbers are not part of the wire")),
        Some(&c) => Err(WireError::new(format!(
            "unexpected byte `{}` at {}",
            c as char, *pos
        ))),
    }
}

fn parse_keyword(
    bytes: &[u8],
    pos: &mut usize,
    keyword: &str,
    value: Json,
) -> Result<Json, WireError> {
    if bytes[*pos..].starts_with(keyword.as_bytes()) {
        *pos += keyword.len();
        Ok(value)
    } else {
        Err(WireError::new(format!(
            "expected `{keyword}` at byte {pos}"
        )))
    }
}

fn parse_string(input: &str, bytes: &[u8], pos: &mut usize) -> Result<String, WireError> {
    expect_byte(bytes, pos, b'"')?;
    let mut out = String::new();
    let mut chunk_start = *pos;
    loop {
        match bytes.get(*pos) {
            None => return Err(WireError::new("unterminated string")),
            Some(b'"') => {
                out.push_str(&input[chunk_start..*pos]);
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                out.push_str(&input[chunk_start..*pos]);
                *pos += 1;
                let escaped = bytes
                    .get(*pos)
                    .ok_or_else(|| WireError::new("unterminated escape"))?;
                *pos += 1;
                match escaped {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let first = parse_hex4(input, pos)?;
                        let c = if (0xD800..0xDC00).contains(&first) {
                            // High surrogate: a `\uXXXX` low surrogate must
                            // follow.
                            if bytes.get(*pos) != Some(&b'\\') || bytes.get(*pos + 1) != Some(&b'u')
                            {
                                return Err(WireError::new("lone high surrogate"));
                            }
                            *pos += 2;
                            let second = parse_hex4(input, pos)?;
                            if !(0xDC00..0xE000).contains(&second) {
                                return Err(WireError::new("invalid low surrogate"));
                            }
                            let code = 0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00);
                            char::from_u32(code)
                                .ok_or_else(|| WireError::new("invalid surrogate pair"))?
                        } else {
                            char::from_u32(first)
                                .ok_or_else(|| WireError::new("invalid \\u escape"))?
                        };
                        out.push(c);
                    }
                    other => {
                        return Err(WireError::new(format!(
                            "unknown escape `\\{}`",
                            *other as char
                        )))
                    }
                }
                chunk_start = *pos;
            }
            Some(&c) if c < 0x20 => return Err(WireError::new("raw control character in string")),
            Some(_) => {
                // Advance one UTF-8 character (input is valid UTF-8).
                let rest = &input[*pos..];
                let step = rest.chars().next().map(char::len_utf8).unwrap_or(1);
                *pos += step;
            }
        }
    }
}

fn parse_hex4(input: &str, pos: &mut usize) -> Result<u32, WireError> {
    let hex = input
        .get(*pos..*pos + 4)
        .ok_or_else(|| WireError::new("truncated \\u escape"))?;
    *pos += 4;
    u32::from_str_radix(hex, 16).map_err(|_| WireError::new("bad \\u escape digits"))
}

/// Encode/decode between a service type and the wire's [`Json`] model.
pub trait Wire: Sized {
    /// This value as a JSON document.
    fn to_json(&self) -> Json;
    /// Reconstructs a value from a JSON document.
    fn from_json(v: &Json) -> Result<Self, WireError>;

    /// Encodes onto one line (without the trailing newline).
    fn encode_line(&self) -> String {
        self.to_json().to_line()
    }

    /// Decodes from one line.
    fn decode_line(line: &str) -> Result<Self, WireError> {
        Self::from_json(&Json::parse(line)?)
    }
}

/// Encodes a stream of values as newline-delimited JSON (one value per
/// line, trailing newline included when non-empty).
pub fn encode_lines<T: Wire>(values: &[T]) -> String {
    let mut out = String::new();
    for value in values {
        out.push_str(&value.encode_line());
        out.push('\n');
    }
    out
}

/// Decodes a newline-delimited JSON stream (blank lines are skipped, so a
/// trailing newline is harmless).
pub fn decode_lines<T: Wire>(body: &str) -> Result<Vec<T>, WireError> {
    body.lines()
        .filter(|line| !line.trim().is_empty())
        .map(T::decode_line)
        .collect()
}

fn str_arr(items: &[String]) -> Json {
    Json::Arr(items.iter().map(|s| Json::Str(s.clone())).collect())
}

fn decode_str_arr(v: &Json) -> Result<Vec<String>, WireError> {
    v.as_arr()?
        .iter()
        .map(|item| item.as_str().map(str::to_string))
        .collect()
}

impl Wire for Example {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("inputs", str_arr(&self.inputs)),
            ("output", Json::Str(self.output.clone())),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, WireError> {
        Ok(Example {
            inputs: decode_str_arr(v.field("inputs")?)?,
            output: v.field("output")?.as_str()?.to_string(),
        })
    }
}

impl Wire for LearnRequest {
    fn to_json(&self) -> Json {
        let mut pairs = vec![(
            "examples",
            Json::Arr(self.examples.iter().map(Wire::to_json).collect()),
        )];
        if let Some(k) = self.top_k {
            pairs.push(("top_k", Json::UInt(k as u64)));
        }
        Json::obj(pairs)
    }

    fn from_json(v: &Json) -> Result<Self, WireError> {
        let examples = v
            .field("examples")?
            .as_arr()?
            .iter()
            .map(Example::from_json)
            .collect::<Result<_, _>>()?;
        let top_k = match v.get("top_k") {
            None | Some(Json::Null) => None,
            Some(k) => Some(k.as_usize()?),
        };
        Ok(LearnRequest { examples, top_k })
    }
}

impl Wire for ApplyRequest {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            (
                "examples",
                Json::Arr(self.examples.iter().map(Wire::to_json).collect()),
            ),
            (
                "rows",
                Json::Arr(self.rows.iter().map(|r| str_arr(r)).collect()),
            ),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, WireError> {
        Ok(ApplyRequest {
            examples: v
                .field("examples")?
                .as_arr()?
                .iter()
                .map(Example::from_json)
                .collect::<Result<_, _>>()?,
            rows: v
                .field("rows")?
                .as_arr()?
                .iter()
                .map(decode_str_arr)
                .collect::<Result<_, _>>()?,
        })
    }
}

/// Encodes an optional cell: `null` is the miss (`None` — the program is
/// undefined on the row), a string is the output (possibly empty — the
/// paper's lookup-miss semantics).
fn opt_cell(v: &Option<String>) -> Json {
    match v {
        Some(s) => Json::Str(s.clone()),
        None => Json::Null,
    }
}

fn decode_opt_cell(v: &Json) -> Result<Option<String>, WireError> {
    match v {
        Json::Null => Ok(None),
        Json::Str(s) => Ok(Some(s.clone())),
        other => Err(WireError::new(format!(
            "expected string or null cell, got {other:?}"
        ))),
    }
}

impl Wire for ApplyResponse {
    fn to_json(&self) -> Json {
        let mut pairs = vec![("request", Json::UInt(self.request as u64))];
        match &self.result {
            Ok(outputs) => pairs.push(("ok", Json::Arr(outputs.iter().map(opt_cell).collect()))),
            Err(e) => pairs.push(("err", e.to_json())),
        }
        Json::obj(pairs)
    }

    fn from_json(v: &Json) -> Result<Self, WireError> {
        let request = v.field("request")?.as_usize()?;
        let result = match (v.get("ok"), v.get("err")) {
            (Some(ok), None) => Ok(ok
                .as_arr()?
                .iter()
                .map(decode_opt_cell)
                .collect::<Result<_, _>>()?),
            (None, Some(err)) => Err(ServiceError::from_json(err)?),
            _ => {
                return Err(WireError::new(
                    "apply response needs exactly one of `ok`/`err`",
                ))
            }
        };
        Ok(ApplyResponse { request, result })
    }
}

/// The observables of one successful learn, as they cross the wire: exact
/// consistent-program count (decimal string — counts overflow every
/// machine integer), structure size in terminal symbols, and the
/// top-ranked programs' paraphrases in ascending cost order. The programs
/// themselves stay server-side (execution goes through `/apply` and
/// `run_column`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LearnSummary {
    /// Exact program count, decimal.
    pub count: String,
    /// Data-structure size in terminal symbols.
    pub size: usize,
    /// Paraphrases of the materialized top-ranked programs.
    pub top: Vec<String>,
}

impl Wire for LearnSummary {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("count", Json::Str(self.count.clone())),
            ("size", Json::UInt(self.size as u64)),
            ("top", str_arr(&self.top)),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, WireError> {
        Ok(LearnSummary {
            count: v.field("count")?.as_str()?.to_string(),
            size: v.field("size")?.as_usize()?,
            top: decode_str_arr(v.field("top")?)?,
        })
    }
}

/// The wire form of a [`LearnResponse`]: the request slot plus either the
/// learn's [`LearnSummary`] observables or its typed [`ServiceError`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireLearnResponse {
    /// Index of the request this answers.
    pub request: usize,
    /// The learn's observables, or why it failed.
    pub result: Result<LearnSummary, ServiceError>,
}

impl WireLearnResponse {
    /// Projects an in-memory batch response onto the wire.
    pub fn from_response(response: &LearnResponse) -> Self {
        WireLearnResponse {
            request: response.request,
            result: match &response.result {
                Ok(learned) => Ok(LearnSummary {
                    count: learned.count().to_decimal(),
                    size: learned.size(),
                    top: response.top.iter().map(|p| p.paraphrase()).collect(),
                }),
                Err(e) => Err(e.clone()),
            },
        }
    }
}

impl Wire for WireLearnResponse {
    fn to_json(&self) -> Json {
        let mut pairs = vec![("request", Json::UInt(self.request as u64))];
        match &self.result {
            Ok(summary) => pairs.push(("ok", summary.to_json())),
            Err(e) => pairs.push(("err", e.to_json())),
        }
        Json::obj(pairs)
    }

    fn from_json(v: &Json) -> Result<Self, WireError> {
        let request = v.field("request")?.as_usize()?;
        let result = match (v.get("ok"), v.get("err")) {
            (Some(ok), None) => Ok(LearnSummary::from_json(ok)?),
            (None, Some(err)) => Err(ServiceError::from_json(err)?),
            _ => {
                return Err(WireError::new(
                    "learn response needs exactly one of `ok`/`err`",
                ))
            }
        };
        Ok(WireLearnResponse { request, result })
    }
}

impl Wire for SessionStatus {
    fn to_json(&self) -> Json {
        match self {
            SessionStatus::Converged => Json::obj(vec![("status", Json::Str("converged".into()))]),
            SessionStatus::NeedsExamples { ambiguous_inputs } => Json::obj(vec![
                ("status", Json::Str("needs_examples".into())),
                (
                    "ambiguous_inputs",
                    Json::Arr(ambiguous_inputs.iter().map(|r| str_arr(r)).collect()),
                ),
            ]),
        }
    }

    fn from_json(v: &Json) -> Result<Self, WireError> {
        match v.field("status")?.as_str()? {
            "converged" => Ok(SessionStatus::Converged),
            "needs_examples" => Ok(SessionStatus::NeedsExamples {
                ambiguous_inputs: v
                    .field("ambiguous_inputs")?
                    .as_arr()?
                    .iter()
                    .map(decode_str_arr)
                    .collect::<Result<_, _>>()?,
            }),
            other => Err(WireError::new(format!("unknown session status `{other}`"))),
        }
    }
}

/// Encodes input rows as newline-delimited JSON arrays of strings (the
/// `watch_inputs` / `run_column` request body shape).
pub fn encode_row_lines(rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    for row in rows {
        out.push_str(&str_arr(row).to_line());
        out.push('\n');
    }
    out
}

/// Decodes newline-delimited input rows.
pub fn decode_row_lines(body: &str) -> Result<Vec<Vec<String>>, WireError> {
    body.lines()
        .filter(|line| !line.trim().is_empty())
        .map(|line| decode_str_arr(&Json::parse(line)?))
        .collect()
}

/// Encodes a `run_column` output column: one line per cell, `null` where
/// the program is undefined, a (possibly empty) JSON string otherwise.
pub fn encode_cell_lines(cells: &[Option<String>]) -> String {
    let mut out = String::new();
    for cell in cells {
        out.push_str(&opt_cell(cell).to_line());
        out.push('\n');
    }
    out
}

/// Decodes a newline-delimited output column.
pub fn decode_cell_lines(body: &str) -> Result<Vec<Option<String>>, WireError> {
    body.lines()
        .filter(|line| !line.trim().is_empty())
        .map(|line| decode_opt_cell(&Json::parse(line)?))
        .collect()
}

impl Wire for SynthesisError {
    fn to_json(&self) -> Json {
        match self {
            SynthesisError::NoExamples => {
                Json::obj(vec![("kind", Json::Str("no_examples".into()))])
            }
            SynthesisError::ArityMismatch {
                expected,
                example,
                found,
            } => Json::obj(vec![
                ("kind", Json::Str("arity_mismatch".into())),
                ("expected", Json::UInt(*expected as u64)),
                ("example", Json::UInt(*example as u64)),
                ("found", Json::UInt(*found as u64)),
            ]),
            SynthesisError::NoConsistentProgram => {
                Json::obj(vec![("kind", Json::Str("no_consistent_program".into()))])
            }
            SynthesisError::Cancelled => Json::obj(vec![("kind", Json::Str("cancelled".into()))]),
        }
    }

    fn from_json(v: &Json) -> Result<Self, WireError> {
        match v.field("kind")?.as_str()? {
            "no_examples" => Ok(SynthesisError::NoExamples),
            "no_consistent_program" => Ok(SynthesisError::NoConsistentProgram),
            "cancelled" => Ok(SynthesisError::Cancelled),
            "arity_mismatch" => Ok(SynthesisError::ArityMismatch {
                expected: v.field("expected")?.as_usize()?,
                example: v.field("example")?.as_usize()?,
                found: v.field("found")?.as_usize()?,
            }),
            other => Err(WireError::new(format!("unknown synthesis error `{other}`"))),
        }
    }
}

impl Wire for TableError {
    fn to_json(&self) -> Json {
        match self {
            TableError::RaggedRow {
                row,
                found,
                expected,
            } => Json::obj(vec![
                ("kind", Json::Str("ragged_row".into())),
                ("row", Json::UInt(*row as u64)),
                ("found", Json::UInt(*found as u64)),
                ("expected", Json::UInt(*expected as u64)),
            ]),
            TableError::DuplicateColumn(name) => Json::obj(vec![
                ("kind", Json::Str("duplicate_column".into())),
                ("name", Json::Str(name.clone())),
            ]),
            TableError::UnknownColumn(name) => Json::obj(vec![
                ("kind", Json::Str("unknown_column".into())),
                ("name", Json::Str(name.clone())),
            ]),
            TableError::NotAKey(cols) => Json::obj(vec![
                ("kind", Json::Str("not_a_key".into())),
                ("columns", str_arr(cols)),
            ]),
            TableError::NoCandidateKey(name) => Json::obj(vec![
                ("kind", Json::Str("no_candidate_key".into())),
                ("name", Json::Str(name.clone())),
            ]),
            TableError::DuplicateTable(name) => Json::obj(vec![
                ("kind", Json::Str("duplicate_table".into())),
                ("name", Json::Str(name.clone())),
            ]),
            TableError::UnknownTable(name) => Json::obj(vec![
                ("kind", Json::Str("unknown_table".into())),
                ("name", Json::Str(name.clone())),
            ]),
            TableError::EmptyTable(name) => Json::obj(vec![
                ("kind", Json::Str("empty_table".into())),
                ("name", Json::Str(name.clone())),
            ]),
            TableError::RowOutOfRange { row, slots } => Json::obj(vec![
                ("kind", Json::Str("row_out_of_range".into())),
                ("row", Json::UInt(*row as u64)),
                ("slots", Json::UInt(*slots as u64)),
            ]),
            TableError::DeadRow(row) => Json::obj(vec![
                ("kind", Json::Str("dead_row".into())),
                ("row", Json::UInt(*row as u64)),
            ]),
            TableError::ColumnOutOfRange { col, width } => Json::obj(vec![
                ("kind", Json::Str("column_out_of_range".into())),
                ("col", Json::UInt(*col as u64)),
                ("width", Json::UInt(*width as u64)),
            ]),
        }
    }

    fn from_json(v: &Json) -> Result<Self, WireError> {
        let name =
            |v: &Json| -> Result<String, WireError> { Ok(v.field("name")?.as_str()?.to_string()) };
        match v.field("kind")?.as_str()? {
            "ragged_row" => Ok(TableError::RaggedRow {
                row: v.field("row")?.as_usize()?,
                found: v.field("found")?.as_usize()?,
                expected: v.field("expected")?.as_usize()?,
            }),
            "duplicate_column" => Ok(TableError::DuplicateColumn(name(v)?)),
            "unknown_column" => Ok(TableError::UnknownColumn(name(v)?)),
            "not_a_key" => Ok(TableError::NotAKey(decode_str_arr(v.field("columns")?)?)),
            "no_candidate_key" => Ok(TableError::NoCandidateKey(name(v)?)),
            "duplicate_table" => Ok(TableError::DuplicateTable(name(v)?)),
            "unknown_table" => Ok(TableError::UnknownTable(name(v)?)),
            "empty_table" => Ok(TableError::EmptyTable(name(v)?)),
            "row_out_of_range" => Ok(TableError::RowOutOfRange {
                row: v.field("row")?.as_u32()?,
                slots: v.field("slots")?.as_usize()?,
            }),
            "dead_row" => Ok(TableError::DeadRow(v.field("row")?.as_u32()?)),
            "column_out_of_range" => Ok(TableError::ColumnOutOfRange {
                col: v.field("col")?.as_u32()?,
                width: v.field("width")?.as_usize()?,
            }),
            other => Err(WireError::new(format!("unknown table error `{other}`"))),
        }
    }
}

impl Wire for ServiceError {
    fn to_json(&self) -> Json {
        match self {
            ServiceError::Synthesis(e) => Json::obj(vec![
                ("kind", Json::Str("synthesis".into())),
                ("error", e.to_json()),
            ]),
            ServiceError::Table(e) => Json::obj(vec![
                ("kind", Json::Str("table".into())),
                ("error", e.to_json()),
            ]),
            ServiceError::SessionNotFound(id) => Json::obj(vec![
                ("kind", Json::Str("session_not_found".into())),
                ("session", Json::UInt(*id)),
            ]),
            ServiceError::Overloaded { in_flight, queued } => Json::obj(vec![
                ("kind", Json::Str("overloaded".into())),
                ("in_flight", Json::UInt(*in_flight as u64)),
                ("queued", Json::UInt(*queued as u64)),
            ]),
            ServiceError::BadRequest(msg) => Json::obj(vec![
                ("kind", Json::Str("bad_request".into())),
                ("message", Json::Str(msg.clone())),
            ]),
            ServiceError::DeadlineExceeded { budget_ms } => Json::obj(vec![
                ("kind", Json::Str("deadline_exceeded".into())),
                ("budget_ms", Json::UInt(*budget_ms)),
            ]),
            ServiceError::PayloadTooLarge { limit } => Json::obj(vec![
                ("kind", Json::Str("payload_too_large".into())),
                ("limit", Json::UInt(*limit as u64)),
            ]),
            ServiceError::Internal(msg) => Json::obj(vec![
                ("kind", Json::Str("internal".into())),
                ("message", Json::Str(msg.clone())),
            ]),
            ServiceError::Snapshot(msg) => Json::obj(vec![
                ("kind", Json::Str("snapshot".into())),
                ("message", Json::Str(msg.clone())),
            ]),
        }
    }

    fn from_json(v: &Json) -> Result<Self, WireError> {
        match v.field("kind")?.as_str()? {
            "synthesis" => Ok(ServiceError::Synthesis(SynthesisError::from_json(
                v.field("error")?,
            )?)),
            "table" => Ok(ServiceError::Table(TableError::from_json(
                v.field("error")?,
            )?)),
            "session_not_found" => Ok(ServiceError::SessionNotFound(v.field("session")?.as_u64()?)),
            "overloaded" => Ok(ServiceError::Overloaded {
                in_flight: v.field("in_flight")?.as_usize()?,
                queued: v.field("queued")?.as_usize()?,
            }),
            "bad_request" => Ok(ServiceError::BadRequest(
                v.field("message")?.as_str()?.to_string(),
            )),
            "deadline_exceeded" => Ok(ServiceError::DeadlineExceeded {
                budget_ms: v.field("budget_ms")?.as_u64()?,
            }),
            "payload_too_large" => Ok(ServiceError::PayloadTooLarge {
                limit: v.field("limit")?.as_usize()?,
            }),
            "internal" => Ok(ServiceError::Internal(
                v.field("message")?.as_str()?.to_string(),
            )),
            "snapshot" => Ok(ServiceError::Snapshot(
                v.field("message")?.as_str()?.to_string(),
            )),
            other => Err(WireError::new(format!("unknown service error `{other}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_value_round_trips() {
        let value = Json::obj(vec![
            ("s", Json::Str("héllo\n\"w\\orld\"\u{1}☃".into())),
            ("n", Json::UInt(u64::MAX)),
            ("b", Json::Bool(true)),
            ("z", Json::Null),
            (
                "a",
                Json::Arr(vec![Json::UInt(0), Json::Str(String::new())]),
            ),
        ]);
        let line = value.to_line();
        assert!(!line.contains('\n'), "encoded values must be one line");
        assert_eq!(Json::parse(&line).unwrap(), value);
    }

    #[test]
    fn parser_accepts_escapes_and_surrogates() {
        let parsed = Json::parse(r#""aAé😀\t""#).unwrap();
        assert_eq!(parsed, Json::Str("aAé😀\t".into()));
    }

    #[test]
    fn parser_rejects_floats_and_garbage() {
        assert!(Json::parse("1.5").is_err());
        assert!(Json::parse("-3").is_err());
        assert!(Json::parse("{} x").is_err());
        assert!(Json::parse("\"\u{1}\"").is_err(), "raw control byte");
    }

    #[test]
    fn requests_round_trip() {
        let request = LearnRequest::new(vec![Example::new(vec!["a", ""], "ü✓")]).with_top_k(3);
        assert_eq!(
            LearnRequest::decode_line(&request.encode_line()).unwrap(),
            request
        );
        let apply = ApplyRequest::new(
            vec![Example::new(vec!["x"], "y")],
            vec![vec!["p".into()], vec![String::new()]],
        );
        assert_eq!(
            ApplyRequest::decode_line(&apply.encode_line()).unwrap(),
            apply
        );
    }

    #[test]
    fn miss_cells_survive_the_wire() {
        let response = ApplyResponse {
            request: 2,
            result: Ok(vec![Some("v".into()), None, Some(String::new())]),
        };
        let decoded = ApplyResponse::decode_line(&response.encode_line()).unwrap();
        assert_eq!(decoded.request, 2);
        assert_eq!(decoded.result, response.result);
    }
}
