//! A minimal, hardened HTTP/1.1 layer over byte buffers — no
//! dependencies, no async. Since the serving tier moved onto a
//! nonblocking reactor, parsing is **incremental**: [`RequestParser`]
//! is a state machine fed whatever bytes the socket produced, and it
//! yields complete requests one at a time (which is what makes
//! pipelining work — a client may write ten requests back to back and
//! the parser hands them out in order without touching the socket
//! again).
//!
//! Hardening rules (each one closes a request-smuggling-shaped hole
//! that becomes live the moment responses stop closing the
//! connection):
//!
//! * exactly **one** `Content-Length` header is accepted — duplicates
//!   are rejected even when the values agree, and so are comma-joined
//!   or conflicting values;
//! * `Content-Length` values must be pure ASCII digits (`+5`, `5 `,
//!   hex, or anything `usize::from_str` would wave through is a 400)
//!   and must not overflow `u64`;
//! * any `Transfer-Encoding` request header is a 400 — chunked request
//!   bodies are not supported, and silently ignoring the header would
//!   desynchronise request framing;
//! * every parse error poisons the connection: the caller must send
//!   the 400 and close, never resynchronise (enforced by the parser
//!   refusing to produce further requests after an error).
//!
//! Responses are framed with an exact `Content-Length` (keep-alive
//! capable) or `Transfer-Encoding: chunked` (streaming estimates);
//! encoders produce byte buffers and the caller owns delivery, so
//! partial writes / `EAGAIN` are the *writer's* state, not hidden
//! inside this module.

use std::io::BufRead;

/// Parsing limits (defense against hostile or broken clients).
#[derive(Copy, Clone, Debug)]
pub struct Limits {
    /// Longest accepted request/header line in bytes.
    pub max_line: usize,
    /// Maximum number of headers.
    pub max_headers: usize,
    /// Maximum accepted body size in bytes.
    pub max_body: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_line: 8 * 1024,
            max_headers: 64,
            max_body: 256 * 1024,
        }
    }
}

/// A parsed request.
#[derive(Clone, Debug)]
pub struct Request {
    /// `GET`, `POST`, `DELETE`, …
    pub method: String,
    /// Path component, query string stripped.
    pub path: String,
    /// Lower-cased header names with their values.
    pub headers: Vec<(String, String)>,
    /// Raw body bytes.
    pub body: Vec<u8>,
    /// Whether the connection should stay open after the response
    /// (HTTP/1.1 default yes unless `Connection: close`; HTTP/1.0
    /// default no unless `Connection: keep-alive`).
    pub keep_alive: bool,
}

impl Request {
    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// Connection closed before a complete request arrived. An
    /// immediate close (zero bytes) is a normal client disconnect.
    Closed,
    /// Malformed request line / headers / framing. The connection must
    /// be closed after the 400 — framing can no longer be trusted.
    BadRequest(String),
    /// Declared body exceeds [`Limits::max_body`].
    PayloadTooLarge,
    /// Underlying I/O failure.
    Io(std::io::Error),
}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// Internal parser position.
#[derive(Debug)]
enum ParseState {
    /// Waiting for the request line.
    RequestLine,
    /// Collecting headers for the request under construction.
    Headers,
    /// Headers done; `need` more body bytes.
    Body { need: usize },
    /// A framing error occurred; the stream is poisoned.
    Poisoned,
}

/// Partial request fields while headers accumulate.
#[derive(Default)]
struct Partial {
    method: String,
    path: String,
    http11: bool,
    headers: Vec<(String, String)>,
    content_length: Option<u64>,
    connection: Option<String>,
    body: Vec<u8>,
}

/// Incremental HTTP/1.1 request parser: [`feed`](RequestParser::feed)
/// bytes as they arrive, then [`poll`](RequestParser::poll) complete
/// requests out. See the [module docs](self) for the hardening rules.
pub struct RequestParser {
    limits: Limits,
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed by completed parsing.
    pos: usize,
    state: ParseState,
    partial: Partial,
}

impl RequestParser {
    /// A fresh parser with `limits`.
    pub fn new(limits: Limits) -> RequestParser {
        RequestParser {
            limits,
            buf: Vec::new(),
            pos: 0,
            state: ParseState::RequestLine,
            partial: Partial::default(),
        }
    }

    /// Appends bytes read from the transport.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Unconsumed bytes currently buffered (pipelined backlog).
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the parser sits at a request boundary (no partial
    /// request buffered) — the state in which a clean EOF is a normal
    /// disconnect rather than a truncated request.
    pub fn at_boundary(&self) -> bool {
        matches!(self.state, ParseState::RequestLine) && self.buffered() == 0
    }

    /// Drops consumed bytes (amortised O(1) per byte).
    fn compact(&mut self) {
        if self.pos > 0 && (self.pos == self.buf.len() || self.pos > 16 * 1024) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }

    /// Takes the next CRLF- (or bare-LF-) terminated line if one is
    /// complete, enforcing `max_line`.
    fn take_line(&mut self) -> Result<Option<String>, HttpError> {
        // fs-lint: allow(panic-path) — `pos <= buf.len()` is the parser's cursor invariant (every advance is bounds-checked)
        let window = &self.buf[self.pos..];
        match window.iter().position(|&b| b == b'\n') {
            Some(at) => {
                // fs-lint: allow(panic-path) — `at` comes from `position` over this window, so `at < window.len()`
                let mut line = &window[..at];
                if line.last() == Some(&b'\r') {
                    // fs-lint: allow(panic-path) — guarded by `last() == Some(..)`: the line is non-empty here
                    line = &line[..line.len() - 1];
                }
                if line.len() > self.limits.max_line {
                    return Err(HttpError::BadRequest("header line too long".into()));
                }
                let text = std::str::from_utf8(line)
                    .map_err(|_| HttpError::BadRequest("non-UTF-8 header line".into()))?
                    .to_string();
                self.pos += at + 1;
                Ok(Some(text))
            }
            None => {
                if window.len() > self.limits.max_line {
                    return Err(HttpError::BadRequest("header line too long".into()));
                }
                Ok(None)
            }
        }
    }

    /// Yields the next complete request, `Ok(None)` when more bytes
    /// are needed. After any `Err`, the parser is poisoned: every
    /// further call returns the same class of error and the caller
    /// must close the connection once the 400/413 is flushed.
    pub fn poll(&mut self) -> Result<Option<Request>, HttpError> {
        let result = self.poll_inner();
        if result.is_err() {
            self.state = ParseState::Poisoned;
        }
        self.compact();
        result
    }

    fn poll_inner(&mut self) -> Result<Option<Request>, HttpError> {
        loop {
            match self.state {
                ParseState::Poisoned => {
                    return Err(HttpError::BadRequest(
                        "connection poisoned by an earlier framing error".into(),
                    ))
                }
                ParseState::RequestLine => {
                    let Some(line) = self.take_line()? else {
                        return Ok(None);
                    };
                    // Be lenient on empty lines *between* requests
                    // (RFC 9112 §2.2 allows ignoring a stray CRLF).
                    if line.is_empty() {
                        continue;
                    }
                    self.partial = parse_request_line(&line)?;
                    self.state = ParseState::Headers;
                }
                ParseState::Headers => {
                    let Some(line) = self.take_line()? else {
                        return Ok(None);
                    };
                    if line.is_empty() {
                        let declared = self.partial.content_length.unwrap_or(0);
                        if declared > self.limits.max_body as u64 {
                            return Err(HttpError::PayloadTooLarge);
                        }
                        self.state = ParseState::Body {
                            need: declared as usize,
                        };
                        continue;
                    }
                    if self.partial.headers.len() >= self.limits.max_headers {
                        return Err(HttpError::BadRequest("too many headers".into()));
                    }
                    parse_header_line(&line, &mut self.partial)?;
                }
                ParseState::Body { need } => {
                    let have = self.buf.len() - self.pos;
                    if have < need {
                        return Ok(None);
                    }
                    // fs-lint: allow(panic-path) — the `have < need` early-return above guarantees the range is in bounds
                    self.partial.body = self.buf[self.pos..self.pos + need].to_vec();
                    self.pos += need;
                    self.state = ParseState::RequestLine;
                    let p = std::mem::take(&mut self.partial);
                    let keep_alive = match (p.http11, p.connection.as_deref()) {
                        (_, Some(c)) if c.eq_ignore_ascii_case("close") => false,
                        (false, Some(c)) if c.eq_ignore_ascii_case("keep-alive") => true,
                        (http11, _) => http11,
                    };
                    return Ok(Some(Request {
                        method: p.method,
                        path: p.path,
                        headers: p.headers,
                        body: p.body,
                        keep_alive,
                    }));
                }
            }
        }
    }
}

fn parse_request_line(line: &str) -> Result<Partial, HttpError> {
    let mut parts = line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or_else(|| HttpError::BadRequest("empty request line".into()))?
        .to_string();
    let target = parts
        .next()
        .ok_or_else(|| HttpError::BadRequest("missing request target".into()))?;
    let version = parts
        .next()
        .ok_or_else(|| HttpError::BadRequest("missing HTTP version".into()))?;
    if parts.next().is_some() {
        return Err(HttpError::BadRequest("malformed request line".into()));
    }
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::BadRequest(format!(
            "unsupported version '{version}'"
        )));
    }
    if !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(HttpError::BadRequest(format!("bad method '{method}'")));
    }
    if !target.starts_with('/') {
        return Err(HttpError::BadRequest(format!("bad target '{target}'")));
    }
    let path = target.split('?').next().unwrap_or(target).to_string();
    Ok(Partial {
        method,
        path,
        http11: version == "HTTP/1.1",
        ..Partial::default()
    })
}

fn parse_header_line(line: &str, partial: &mut Partial) -> Result<(), HttpError> {
    let Some((name, value)) = line.split_once(':') else {
        return Err(HttpError::BadRequest(format!("malformed header '{line}'")));
    };
    // A space before the colon would let two parsers disagree about
    // the header name — reject instead of trimming it away.
    if name.ends_with(|c: char| c.is_ascii_whitespace()) {
        return Err(HttpError::BadRequest(format!(
            "whitespace before ':' in header '{line}'"
        )));
    }
    let name = name.trim().to_ascii_lowercase();
    let value = value.trim().to_string();
    if name.is_empty() {
        return Err(HttpError::BadRequest("empty header name".into()));
    }
    match name.as_str() {
        "content-length" => {
            if partial.content_length.is_some() {
                // Duplicates are rejected even when the values agree:
                // an intermediary that drops one copy would change the
                // body framing this server saw.
                return Err(HttpError::BadRequest(
                    "duplicate content-length header".into(),
                ));
            }
            partial.content_length = Some(parse_content_length(&value)?);
        }
        "transfer-encoding" => {
            // Chunked request bodies are not supported; ignoring the
            // header while honouring content-length is exactly the
            // TE/CL smuggling split, so refuse loudly.
            return Err(HttpError::BadRequest(
                "transfer-encoding not supported; send content-length".into(),
            ));
        }
        "connection" => partial.connection = Some(value.clone()),
        _ => {}
    }
    partial.headers.push((name, value));
    Ok(())
}

/// Strict `Content-Length` value parse: ASCII digits only (no sign, no
/// inner whitespace, no comma list), no `u64` overflow.
fn parse_content_length(value: &str) -> Result<u64, HttpError> {
    let bad = || HttpError::BadRequest(format!("bad content-length '{value}'"));
    if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
        return Err(bad());
    }
    let mut n: u64 = 0;
    for b in value.bytes() {
        n = n
            .checked_mul(10)
            .and_then(|n| n.checked_add((b - b'0') as u64))
            .ok_or_else(bad)?;
    }
    Ok(n)
}

/// Reads one request from a blocking stream (test helper and simple
/// clients; the server itself feeds the parser from the reactor).
/// `Err(Closed)` means the peer hung up cleanly between requests.
pub fn read_request(stream: &mut impl BufRead, limits: &Limits) -> Result<Request, HttpError> {
    let mut parser = RequestParser::new(*limits);
    loop {
        if let Some(request) = parser.poll()? {
            return Ok(request);
        }
        let chunk = stream.fill_buf()?;
        if chunk.is_empty() {
            if parser.at_boundary() {
                return Err(HttpError::Closed);
            }
            return Err(HttpError::BadRequest("truncated request".into()));
        }
        let n = chunk.len();
        parser.feed(chunk);
        stream.consume(n);
    }
}

/// An HTTP status line this server emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Encodes a JSON response with exact `Content-Length`. `keep_alive`
/// picks the `Connection` header; the *caller* must actually close
/// when it says `false`, after flushing.
pub fn encode_response(status: u16, body: &str, keep_alive: bool) -> Vec<u8> {
    encode_response_typed(status, "application/json", body, keep_alive)
}

/// [`encode_response`] with an explicit media type — the observability
/// surfaces are not JSON (`/metrics` is Prometheus text exposition,
/// `/v1/trace` drains as NDJSON).
pub fn encode_response_typed(
    status: u16,
    content_type: &str,
    body: &str,
    keep_alive: bool,
) -> Vec<u8> {
    format!(
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {}\r\n\r\n{}",
        status,
        reason(status),
        content_type,
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
        body
    )
    .into_bytes()
}

/// Encodes the header block of a chunked streaming response
/// (newline-delimited JSON body; the connection stays usable after the
/// terminal chunk).
pub fn encode_stream_head(status: u16) -> Vec<u8> {
    format!(
        "HTTP/1.1 {} {}\r\ncontent-type: application/x-ndjson\r\ntransfer-encoding: chunked\r\nconnection: keep-alive\r\n\r\n",
        status,
        reason(status)
    )
    .into_bytes()
}

/// Appends one chunk of a chunked response body, whose payload is
/// `parts` back to back, to `out`: the size in hex, the payload and
/// the framing, with no intermediate buffer.
pub fn push_chunk(out: &mut Vec<u8>, parts: &[&[u8]]) {
    let len: usize = parts.iter().map(|part| part.len()).sum();
    let digits = (usize::BITS - len.leading_zeros()).div_ceil(4).max(1);
    out.reserve(digits as usize + len + 4);
    out.extend((0..digits).rev().map(|k| match (len >> (4 * k)) & 0xf {
        d @ 0..=9 => b'0' + d as u8,
        d => b'a' + (d - 10) as u8,
    }));
    out.extend_from_slice(b"\r\n");
    for part in parts {
        out.extend_from_slice(part);
    }
    out.extend_from_slice(b"\r\n");
}

/// The terminating zero-chunk of a chunked response.
pub fn encode_last_chunk() -> &'static [u8] {
    b"0\r\n\r\n"
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &[u8]) -> Result<Request, HttpError> {
        read_request(&mut BufReader::new(raw), &Limits::default())
    }

    #[test]
    fn parses_request_with_body() {
        let raw = b"POST /v1/jobs?x=1 HTTP/1.1\r\nHost: h\r\nContent-Length: 4\r\n\r\nabcd";
        let req = parse(raw).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/jobs");
        assert_eq!(req.header("host"), Some("h"));
        assert_eq!(req.header("HOST"), Some("h"));
        assert_eq!(req.body, b"abcd");
        assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn bare_lf_lines_accepted() {
        let req = parse(b"GET /healthz HTTP/1.1\nHost: h\n\n").unwrap();
        assert_eq!(req.path, "/healthz");
    }

    #[test]
    fn keep_alive_negotiation() {
        let cases: &[(&[u8], bool)] = &[
            (b"GET / HTTP/1.1\r\n\r\n", true),
            (b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n", false),
            (b"GET / HTTP/1.1\r\nConnection: CLOSE\r\n\r\n", false),
            (b"GET / HTTP/1.0\r\n\r\n", false),
            (b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", true),
        ];
        for (raw, expect) in cases {
            let req = parse(raw).unwrap();
            assert_eq!(
                req.keep_alive,
                *expect,
                "{:?}",
                String::from_utf8_lossy(raw)
            );
        }
    }

    /// The request-smuggling table: every framing ambiguity must be a
    /// hard 400, because with keep-alive the bytes after the body are
    /// the *next request* — a parser difference with any intermediary
    /// would let an attacker prefix it.
    #[test]
    fn smuggling_shaped_framing_is_rejected() {
        let cases: &[(&[u8], &str)] = &[
            (
                b"POST /x HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 4\r\n\r\nabcd",
                "duplicate content-length (equal values)",
            ),
            (
                b"POST /x HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 5\r\n\r\nabcde",
                "conflicting content-length",
            ),
            (
                b"POST /x HTTP/1.1\r\nContent-Length: 4, 4\r\n\r\nabcd",
                "comma-joined content-length",
            ),
            (
                b"POST /x HTTP/1.1\r\nContent-Length: +4\r\n\r\nabcd",
                "signed content-length (usize::from_str would accept it)",
            ),
            (
                b"POST /x HTTP/1.1\r\nContent-Length: 0x10\r\n\r\n",
                "hex content-length",
            ),
            (
                b"POST /x HTTP/1.1\r\nContent-Length: 99999999999999999999999\r\n\r\n",
                "u64-overflowing content-length",
            ),
            (
                b"POST /x HTTP/1.1\r\nContent-Length:\r\n\r\n",
                "empty content-length",
            ),
            (
                b"POST /x HTTP/1.1\r\nContent-Length: -1\r\n\r\n",
                "negative content-length",
            ),
            (
                b"POST /x HTTP/1.1\r\nContent-Length: 4 4\r\n\r\n",
                "space-joined content-length",
            ),
            (
                b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
                "transfer-encoding",
            ),
            (
                b"POST /x HTTP/1.1\r\nTransfer-Encoding: identity\r\n\r\n",
                "any transfer-encoding, not just chunked",
            ),
            (
                b"POST /x HTTP/1.1\r\nContent-Length: 4\r\nTransfer-Encoding: chunked\r\n\r\nabcd",
                "TE alongside CL (the classic TE.CL split)",
            ),
            (
                b"POST /x HTTP/1.1\r\nContent-Length : 4\r\n\r\nabcd",
                "whitespace before the colon",
            ),
        ];
        for (raw, why) in cases {
            assert!(
                matches!(parse(raw), Err(HttpError::BadRequest(_))),
                "must reject: {why}: {:?}",
                String::from_utf8_lossy(raw)
            );
        }
    }

    #[test]
    fn parser_is_poisoned_after_an_error() {
        let mut parser = RequestParser::new(Limits::default());
        parser.feed(
            b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nGET /healthz HTTP/1.1\r\n\r\n",
        );
        assert!(matches!(parser.poll(), Err(HttpError::BadRequest(_))));
        // The pipelined healthz after the poisoned framing must NOT
        // come out — that would be the smuggled request.
        assert!(matches!(parser.poll(), Err(HttpError::BadRequest(_))));
    }

    #[test]
    fn pipelined_requests_come_out_in_order() {
        let mut parser = RequestParser::new(Limits::default());
        parser.feed(b"POST /a HTTP/1.1\r\nContent-Length: 2\r\n\r\nxyGET /b HTTP/1.1\r\n\r\n");
        let a = parser.poll().unwrap().unwrap();
        assert_eq!((a.method.as_str(), a.path.as_str()), ("POST", "/a"));
        assert_eq!(a.body, b"xy");
        let b = parser.poll().unwrap().unwrap();
        assert_eq!((b.method.as_str(), b.path.as_str()), ("GET", "/b"));
        assert!(parser.poll().unwrap().is_none());
        assert!(parser.at_boundary());
    }

    #[test]
    fn incremental_byte_by_byte_parse() {
        let raw = b"POST /v1/jobs HTTP/1.1\r\ncontent-length: 3\r\n\r\nabc";
        let mut parser = RequestParser::new(Limits::default());
        let mut got = None;
        for &b in raw.iter() {
            assert!(got.is_none(), "request completed early");
            parser.feed(&[b]);
            got = parser.poll().unwrap();
        }
        let req = got.expect("request completes on the last byte");
        assert_eq!(req.body, b"abc");
    }

    #[test]
    fn rejects_malformed_requests() {
        for raw in [
            &b"GARBAGE\r\n\r\n"[..],
            b"GET\r\n\r\n",
            b"GET /x HTTP/9.9\r\n\r\n",
            b"GET /x HTTP/1.1 extra\r\n\r\n",
            b"get /x HTTP/1.1\r\n\r\n",
            b"GET x HTTP/1.1\r\n\r\n",
            b"GET /x HTTP/1.1\r\nbroken header\r\n\r\n",
            b"GET /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
            b"GET /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
            b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort",
        ] {
            assert!(
                matches!(parse(raw), Err(HttpError::BadRequest(_))),
                "{:?} should be a bad request",
                String::from_utf8_lossy(raw)
            );
        }
    }

    #[test]
    fn clean_eof_is_closed_not_error() {
        assert!(matches!(parse(b""), Err(HttpError::Closed)));
    }

    #[test]
    fn oversized_body_rejected_without_reading_it() {
        let limits = Limits {
            max_body: 8,
            ..Limits::default()
        };
        // Declared 1 GiB body, only headers sent: must fail fast.
        let raw = b"POST /x HTTP/1.1\r\nContent-Length: 1073741824\r\n\r\n";
        let got = read_request(&mut BufReader::new(&raw[..]), &limits);
        assert!(matches!(got, Err(HttpError::PayloadTooLarge)));
    }

    #[test]
    fn line_length_limit() {
        let limits = Limits {
            max_line: 32,
            ..Limits::default()
        };
        let raw = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(100));
        let got = read_request(&mut BufReader::new(raw.as_bytes()), &limits);
        assert!(matches!(got, Err(HttpError::BadRequest(_))));
        // …and an unterminated line can't buffer unboundedly either.
        let mut parser = RequestParser::new(limits);
        parser.feed("G".repeat(100).as_bytes());
        assert!(matches!(parser.poll(), Err(HttpError::BadRequest(_))));
    }

    #[test]
    fn response_shape() {
        let text = String::from_utf8(encode_response(404, "{\"error\":\"nope\"}", false)).unwrap();
        assert!(text.starts_with("HTTP/1.1 404 Not Found\r\n"));
        assert!(text.contains("content-length: 16\r\n"));
        assert!(text.contains("connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"error\":\"nope\"}"));

        let ka = String::from_utf8(encode_response(200, "{}", true)).unwrap();
        assert!(ka.contains("connection: keep-alive\r\n"));
    }

    #[test]
    fn chunk_encoding_shape() {
        let chunk = |parts: &[&[u8]]| {
            let mut out = b"before".to_vec();
            push_chunk(&mut out, parts);
            out.split_off(6)
        };
        assert_eq!(chunk(&[b"hello"]), b"5\r\nhello\r\n");
        assert_eq!(chunk(&[b"hel", b"lo"]), b"5\r\nhello\r\n");
        assert!(chunk(&[&[0u8; 16]]).starts_with(b"10\r\n"));
        for len in [1usize, 15, 255, 256, 4095, 75_000] {
            let payload = vec![b'x'; len];
            assert_eq!(
                chunk(&[&payload, b"\n"]),
                [format!("{:x}\r\n", len + 1).as_bytes(), &payload, b"\n\r\n"].concat()
            );
        }
        assert_eq!(encode_last_chunk(), b"0\r\n\r\n");
        let head = String::from_utf8(encode_stream_head(200)).unwrap();
        assert!(head.contains("transfer-encoding: chunked\r\n"));
        assert!(head.ends_with("\r\n\r\n"));
    }
}
