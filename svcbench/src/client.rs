//! A minimal keep-alive HTTP/1.1 client for the generator: one prebuilt
//! write per request and a response reader that only looks at the status
//! line, `Content-Length` and the body. The protocol's own client
//! (`tagging_server::http::HttpClient`) parses every body into a JSON tree,
//! which would make the generator, not the daemon, the bottleneck.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// How long a request may wait for its response before it counts as timed
/// out (and the run fails).
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(20);

/// One persistent connection to the daemon.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed by earlier responses.
    consumed: usize,
}

/// A response: status code and raw body.
#[derive(Debug)]
pub struct Reply {
    /// HTTP status.
    pub status: u16,
    /// Body bytes (JSON for every route the benchmark uses).
    pub body: Vec<u8>,
}

impl Reply {
    /// The body as text (the daemon only sends UTF-8).
    pub fn text(&self) -> &str {
        std::str::from_utf8(&self.body).unwrap_or("")
    }
}

impl Conn {
    /// Connects with Nagle off and a response timeout.
    pub fn connect(addr: &str) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(RESPONSE_TIMEOUT))?;
        Ok(Self {
            stream,
            buf: Vec::with_capacity(64 * 1024),
            consumed: 0,
        })
    }

    /// Sends one prebuilt request and waits for its response.
    pub fn call(&mut self, request: &[u8]) -> io::Result<Reply> {
        self.stream.write_all(request)?;
        self.read_reply()
    }

    /// `GET path`, returning the body as text; any status but 200 is an
    /// error.
    pub fn get_ok(&mut self, path: &str) -> Result<String, String> {
        let reply = self
            .call(&request("GET", path, ""))
            .map_err(|e| format!("GET {path}: {e}"))?;
        if reply.status != 200 {
            return Err(format!("GET {path}: status {}", reply.status));
        }
        Ok(reply.text().to_string())
    }

    /// `POST path` with a JSON body, returning the body as text; any status
    /// but 200 is an error.
    pub fn post_ok(&mut self, path: &str, body: &str) -> Result<String, String> {
        let reply = self
            .call(&request("POST", path, body))
            .map_err(|e| format!("POST {path}: {e}"))?;
        if reply.status != 200 {
            return Err(format!(
                "POST {path}: status {}: {}",
                reply.status,
                reply.text()
            ));
        }
        Ok(reply.text().to_string())
    }

    fn read_reply(&mut self) -> io::Result<Reply> {
        if self.consumed > 0 {
            self.buf.drain(..self.consumed);
            self.consumed = 0;
        }
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if let Some((status, start, len)) = parse_head(&self.buf)? {
                if self.buf.len() >= start + len {
                    let body = self.buf[start..start + len].to_vec();
                    self.consumed = start + len;
                    return Ok(Reply { status, body });
                }
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "daemon closed the connection",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }
}

/// Raw bytes of one keep-alive request.
pub fn request(method: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Parses a response head: `(status, body offset, body length)` once the
/// header section is complete.
fn parse_head(buf: &[u8]) -> io::Result<Option<(u16, usize, usize)>> {
    let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..end]).map_err(|_| bad("non-UTF-8 response head"))?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let mut length = 0;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                length = value
                    .trim()
                    .parse()
                    .map_err(|_| bad("bad Content-Length"))?;
            }
        }
    }
    Ok(Some((status, end + 4, length)))
}

fn bad(message: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

/// Every unsigned integer that follows `"key":` in a JSON text, in order.
/// Lease responses carry one `task_id` per task; scanning for them avoids
/// building a JSON tree on the generator's hot path.
pub fn numbers_after(text: &str, key: &str) -> Vec<u64> {
    let needle = format!("\"{key}\":");
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(at) = rest.find(&needle) {
        rest = &rest[at + needle.len()..];
        let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
        if let Ok(n) = rest[..digits].parse() {
            out.push(n);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_parsing_finds_status_and_body() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}extra";
        assert_eq!(parse_head(raw).unwrap(), Some((200, 38, 2)));
        assert_eq!(parse_head(b"HTTP/1.1 200 OK\r\n").unwrap(), None);
    }

    #[test]
    fn numbers_are_scanned_in_order() {
        let text = r#"{"tasks":[{"task_id":4,"resource":9},{"task_id":15,"resource":1}],"budget_spent":16}"#;
        assert_eq!(numbers_after(text, "task_id"), vec![4, 15]);
        assert_eq!(numbers_after(text, "budget_spent"), vec![16]);
        assert!(numbers_after(text, "missing").is_empty());
    }
}
