//! Shared fixtures for the serve integration tests: a temp store
//! directory and a dependency-free HTTP client (one-shot and
//! keep-alive flavours).

use fs_serve::json::{self, Json};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;

/// Creates a temp directory holding one BA graph store named
/// `ba.fsg`, returning the directory path.
pub fn store_dir(tag: &str, vertices: usize, seed: u64) -> PathBuf {
    use rand::SeedableRng;
    let dir = std::env::temp_dir().join(format!(
        "fs_serve_test_{tag}_{}_{}",
        std::process::id(),
        seed
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
    let g = fs_gen::barabasi_albert(vertices, 3, &mut rng);
    fs_store::write_store(&g, dir.join("ba.fsg")).unwrap();
    dir
}

/// One HTTP request over a fresh connection; returns (status, body).
/// Sends `connection: close` so the exchange stays one-shot now that
/// the server defaults to keep-alive.
pub fn request(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let body = body.unwrap_or("");
    // Write errors are tolerated: the server may respond and close
    // before consuming the whole request.
    let _ = write!(
        stream,
        "{method} {path} HTTP/1.1\r\nhost: test\r\nconnection: close\r\ncontent-length: {}\r\n\r\n{}",
        body.len(),
        body
    );
    read_to_eof(&mut stream)
}

#[allow(dead_code)] // used by the protocol suite only
/// Sends raw bytes and reads whatever comes back (for malformed-input
/// tests; every raw case here draws an error response, which closes
/// the connection).
pub fn raw_request(addr: SocketAddr, raw: &[u8]) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let _ = stream.write_all(raw);
    read_to_eof(&mut stream)
}

fn read_to_eof(stream: &mut TcpStream) -> (u16, String) {
    let mut text = String::new();
    stream.read_to_string(&mut text).expect("read response");
    let status: u16 = text
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.get(..3))
        .and_then(|code| code.parse().ok())
        .unwrap_or_else(|| panic!("malformed response: {text:?}"));
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// A persistent keep-alive connection: many requests, one socket.
/// Responses are framed by `content-length` (or chunked for streams),
/// never by EOF.
#[allow(dead_code)] // not every suite uses every helper
pub struct Session {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

#[allow(dead_code)]
impl Session {
    pub fn connect(addr: SocketAddr) -> Session {
        Session::from_stream(TcpStream::connect(addr).expect("connect"))
    }

    /// Wraps an already-connected socket (lets tests tune socket
    /// options — e.g. a tiny `SO_RCVBUF` — before the session starts).
    pub fn from_stream(writer: TcpStream) -> Session {
        let reader = BufReader::new(writer.try_clone().expect("clone"));
        Session { writer, reader }
    }

    /// Writes one request without reading the response (pipelining).
    pub fn send(&mut self, method: &str, path: &str, body: Option<&str>) {
        let body = body.unwrap_or("");
        write!(
            self.writer,
            "{method} {path} HTTP/1.1\r\nhost: test\r\ncontent-length: {}\r\n\r\n{}",
            body.len(),
            body
        )
        .expect("write request");
    }

    /// Reads one `content-length`-framed response.
    pub fn read_response(&mut self) -> (u16, String) {
        let (status, headers) = self.read_head();
        let length: usize = headers
            .iter()
            .find_map(|h| h.strip_prefix("content-length:"))
            .map(|v| v.trim().parse().expect("content-length"))
            .unwrap_or_else(|| panic!("no content-length in {headers:?}"));
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body).expect("read body");
        (status, String::from_utf8(body).expect("utf-8 body"))
    }

    /// One request-response round trip.
    pub fn roundtrip(&mut self, method: &str, path: &str, body: Option<&str>) -> (u16, String) {
        self.send(method, path, body);
        self.read_response()
    }

    /// Reads a response head, asserting it announces a chunked body.
    pub fn read_stream_head(&mut self) -> u16 {
        let (status, headers) = self.read_head();
        assert!(
            headers
                .iter()
                .any(|h| h.trim() == "transfer-encoding: chunked"),
            "stream head missing chunked transfer-encoding: {headers:?}"
        );
        status
    }

    /// Reads one transfer-encoding chunk; `None` is the terminator.
    pub fn read_chunk(&mut self) -> Option<String> {
        let mut size_line = String::new();
        self.reader.read_line(&mut size_line).expect("chunk size");
        let size = usize::from_str_radix(size_line.trim(), 16)
            .unwrap_or_else(|_| panic!("bad chunk size line {size_line:?}"));
        if size == 0 {
            let mut crlf = String::new();
            self.reader.read_line(&mut crlf).expect("final CRLF");
            assert_eq!(crlf, "\r\n");
            return None;
        }
        let mut payload = vec![0u8; size + 2];
        self.reader.read_exact(&mut payload).expect("chunk payload");
        assert_eq!(&payload[size..], b"\r\n", "chunk not CRLF-terminated");
        payload.truncate(size);
        Some(String::from_utf8(payload).expect("utf-8 chunk"))
    }

    /// Status line + headers (lowercase names as the server sends
    /// them), leaving the reader at the body.
    fn read_head(&mut self) -> (u16, Vec<String>) {
        let mut status_line = String::new();
        self.reader
            .read_line(&mut status_line)
            .expect("status line");
        let status: u16 = status_line
            .strip_prefix("HTTP/1.1 ")
            .and_then(|rest| rest.get(..3))
            .and_then(|code| code.parse().ok())
            .unwrap_or_else(|| panic!("malformed status line: {status_line:?}"));
        let mut headers = Vec::new();
        loop {
            let mut line = String::new();
            self.reader.read_line(&mut line).expect("header line");
            let line = line.trim_end().to_ascii_lowercase();
            if line.is_empty() {
                break;
            }
            headers.push(line);
        }
        (status, headers)
    }
}

/// Parses a response body as JSON.
pub fn parse(body: &str) -> Json {
    json::parse(body).unwrap_or_else(|e| panic!("bad JSON body {body:?}: {e}"))
}

/// Polls `GET /v1/jobs/{id}` until the phase is terminal; returns the
/// final document.
pub fn wait_terminal(addr: SocketAddr, id: u64) -> Json {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    loop {
        let (status, body) = request(addr, "GET", &format!("/v1/jobs/{id}"), None);
        assert_eq!(status, 200, "poll failed: {body}");
        let doc = parse(&body);
        let phase = doc.get("phase").unwrap().as_str().unwrap();
        if ["done", "failed", "cancelled"].contains(&phase) {
            return doc;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "job {id} never finished"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
}

/// Polls `/healthz` until replay finishes and the server answers 200.
#[allow(dead_code)] // used by the journal-backed suites only
pub fn wait_ready(addr: SocketAddr) -> Json {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    loop {
        let (status, body) = request(addr, "GET", "/healthz", None);
        if status == 200 {
            return parse(&body);
        }
        assert_eq!(status, 503, "unexpected health status: {body}");
        assert!(
            std::time::Instant::now() < deadline,
            "server never finished replaying"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
}
