//! A blocking HTTP/1.1 client over one keep-alive connection: plain
//! requests framed by `content-length`, and job streams read chunk by
//! chunk until their terminal line.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// No single reply may take longer; a job that does counts as failed.
pub const READ_TIMEOUT: Duration = Duration::from_secs(60);

pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

/// The end of a job stream.
pub struct StreamEnd {
    /// The terminal line (the job document in a terminal phase).
    pub line: String,
    /// When the terminal line had been read.
    pub at: Instant,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> Result<Client, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        writer.set_nodelay(true).map_err(|e| e.to_string())?;
        writer
            .set_read_timeout(Some(READ_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        Ok(Client { writer, reader })
    }

    fn send(&mut self, method: &str, path: &str, body: &str) -> Result<(), String> {
        let request = format!(
            "{method} {path} HTTP/1.1\r\nhost: perfbench\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        );
        self.writer
            .write_all(request.as_bytes())
            .map_err(|e| format!("write: {e}"))
    }

    fn read_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("connection closed by server".into()),
            Ok(_) => Ok(line),
            Err(e) => Err(format!("read: {e}")),
        }
    }

    /// Status and `content-length` (if any), leaving the reader at the body.
    fn read_head(&mut self) -> Result<(u16, Option<usize>), String> {
        let status_line = self.read_line()?;
        let status = status_line
            .strip_prefix("HTTP/1.1 ")
            .and_then(|r| r.get(..3))
            .and_then(|c| c.parse().ok())
            .ok_or_else(|| format!("malformed status line {status_line:?}"))?;
        let mut length = None;
        loop {
            let line = self.read_line()?;
            let line = line.trim_end().to_ascii_lowercase();
            if line.is_empty() {
                return Ok((status, length));
            }
            if let Some(v) = line.strip_prefix("content-length:") {
                length = Some(
                    v.trim()
                        .parse()
                        .map_err(|_| format!("bad header {line:?}"))?,
                );
            }
        }
    }

    fn read_body(&mut self, length: usize) -> Result<String, String> {
        let mut buf = vec![0u8; length];
        self.reader
            .read_exact(&mut buf)
            .map_err(|e| format!("read body: {e}"))?;
        String::from_utf8(buf).map_err(|e| e.to_string())
    }

    /// One request and its `content-length`-framed reply.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
    ) -> Result<(u16, String), String> {
        self.send(method, path, body)?;
        let (status, length) = self.read_head()?;
        let length = length.ok_or("reply without content-length")?;
        Ok((status, self.read_body(length)?))
    }

    /// Reads one chunk of a chunked body; `None` is the last chunk.
    fn read_chunk(&mut self) -> Result<Option<String>, String> {
        let size_line = self.read_line()?;
        let size = usize::from_str_radix(size_line.trim(), 16)
            .map_err(|_| format!("bad chunk size line {size_line:?}"))?;
        if size == 0 {
            self.read_line()?;
            return Ok(None);
        }
        let mut payload = vec![0u8; size + 2];
        self.reader
            .read_exact(&mut payload)
            .map_err(|e| format!("read chunk: {e}"))?;
        payload.truncate(size);
        String::from_utf8(payload)
            .map(Some)
            .map_err(|e| e.to_string())
    }

    /// `GET /v1/jobs/{id}/stream`, read until the terminal line. The
    /// stream's closing chunk is consumed after the clock is read, so
    /// the connection is ready for the next request.
    pub fn stream_job(&mut self, id: u64) -> Result<StreamEnd, String> {
        self.send("GET", &format!("/v1/jobs/{id}/stream"), "")?;
        let (status, length) = self.read_head()?;
        if status != 200 {
            let body = match length {
                Some(n) => self.read_body(n)?,
                None => String::new(),
            };
            return Err(format!("stream {id}: {status} {body}"));
        }
        loop {
            let Some(line) = self.read_chunk()? else {
                return Err(format!("stream {id} ended without a terminal line"));
            };
            if is_terminal(&line) {
                let at = Instant::now();
                if self.read_chunk()?.is_some() {
                    return Err(format!("stream {id} continued past its terminal line"));
                }
                return Ok(StreamEnd { line, at });
            }
        }
    }
}

/// Whether a stream line reports a terminal phase. Job documents start
/// with `{"id":N,"phase":"…"`; a pruned job's line is an error object.
pub fn is_terminal(line: &str) -> bool {
    let Some(rest) = line.split_once("\"phase\":\"").map(|(_, r)| r) else {
        return line.contains("\"error\"");
    };
    ["done\"", "failed\"", "cancelled\""]
        .iter()
        .any(|p| rest.starts_with(p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminal_lines() {
        assert!(is_terminal(
            "{\"id\":3,\"phase\":\"done\",\"error\":null}\n"
        ));
        assert!(is_terminal(
            "{\"id\":3,\"phase\":\"failed\",\"error\":\"x\"}\n"
        ));
        assert!(!is_terminal(
            "{\"id\":3,\"phase\":\"running\",\"error\":null}\n"
        ));
        assert!(!is_terminal(
            "{\"id\":3,\"phase\":\"queued\",\"error\":null}\n"
        ));
        assert!(is_terminal("{\"error\":\"job 3 no longer exists\"}\n"));
    }
}
