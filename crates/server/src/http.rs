//! Minimal std-only HTTP/1.1, just enough for a JSON service on loopback:
//! request parsing with `Content-Length` bodies and keep-alive, response
//! writing, and a tiny persistent-connection client used by the
//! `repro_loadgen` correctness harness and the tests.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;

use serde::Value;

/// Largest accepted request body; protects the server from hostile or buggy
/// `Content-Length` values.
pub const MAX_BODY_BYTES: usize = 16 * 1024 * 1024;

/// Largest accepted header section (request line + headers).
const MAX_HEADER_BYTES: usize = 64 * 1024;

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Upper-cased method ("GET", "POST", …).
    pub method: String,
    /// The path component of the request target (query strings are kept
    /// verbatim; the service does not use them).
    pub path: String,
    /// Raw request body.
    pub body: Vec<u8>,
    /// Whether the connection should stay open after the response.
    pub keep_alive: bool,
}

impl Request {
    /// Parses the body as JSON.
    pub fn json(&self) -> Result<Value, serde_json::Error> {
        let text = std::str::from_utf8(&self.body)
            .map_err(|_| serde_json::Error::Syntax("body is not valid UTF-8".to_string()))?;
        serde_json::from_str(text)
    }
}

/// A response: status code plus a JSON body (or, exceptionally, a plain-text
/// payload — the Prometheus `/metrics` exposition).
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// JSON body (ignored on the wire when a plain-text payload is set).
    pub body: Value,
    /// Plain-text payload; `Some` switches the Content-Type to text/plain.
    text: Option<String>,
}

impl Response {
    /// A 200 response.
    pub fn ok(body: Value) -> Self {
        Self {
            status: 200,
            body,
            text: None,
        }
    }

    /// An error response with the conventional `{"error": message}` body.
    pub fn error(status: u16, message: impl Into<String>) -> Self {
        Self {
            status,
            body: Value::Object(vec![("error".to_string(), Value::String(message.into()))]),
            text: None,
        }
    }

    /// A 200 response carrying `text/plain` instead of JSON (the Prometheus
    /// exposition format of `GET /metrics`).
    pub fn plain(text: impl Into<String>) -> Self {
        Self {
            status: 200,
            body: Value::Null,
            text: Some(text.into()),
        }
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        _ => "Unknown",
    }
}

/// Largest number of buffered bytes one request may occupy: full header
/// section plus full body (the bound the server's per-connection read buffer
/// enforces).
pub const MAX_REQUEST_BYTES: usize = MAX_HEADER_BYTES + MAX_BODY_BYTES;

/// Tries to parse one complete request from the front of `buf`.
///
/// This is the *incremental* entry point behind the server's nonblocking read
/// loop: the caller appends whatever bytes the socket had, then asks whether
/// a full request has arrived.
///
/// * `Ok(Some((request, consumed)))` — a complete request; the caller must
///   drain `consumed` bytes from the buffer (any remainder is the start of a
///   pipelined next request);
/// * `Ok(None)` — the bytes so far are a valid *prefix*; read more;
/// * `Err(InvalidData)` — the bytes can never become a valid request.
///
/// Hostile-input bounds hold *before* anything is allocated for the body: a
/// `Content-Length` that overflows `usize` or exceeds [`MAX_BODY_BYTES`] is
/// rejected while parsing the header line, so the server never sizes a buffer
/// from an unvalidated length.
pub fn parse_request(buf: &[u8]) -> io::Result<Option<(Request, usize)>> {
    let Some((request_line, mut pos)) = next_line(buf, 0)? else {
        return Ok(None);
    };
    let mut parts = request_line.split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v)) => (m.to_ascii_uppercase(), p.to_string(), v.to_string()),
        _ => return Err(bad_input("malformed request line")),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(bad_input("unsupported HTTP version"));
    }

    let mut content_length = 0usize;
    let mut keep_alive = version == "HTTP/1.1";
    let mut header_bytes = request_line.len();
    loop {
        let Some((line, next)) = next_line(buf, pos)? else {
            return Ok(None); // header section not terminated yet
        };
        pos = next;
        if line.is_empty() {
            break;
        }
        header_bytes += line.len();
        if header_bytes > MAX_HEADER_BYTES {
            return Err(bad_input("header section too large"));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(bad_input("malformed header line"));
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            // Parse into u128 so a length that does not even fit usize is
            // still *compared against the cap* instead of wrapping, and
            // reject before any body buffer exists.
            let length = value
                .parse::<u128>()
                .map_err(|_| bad_input("invalid Content-Length"))?;
            if length > MAX_BODY_BYTES as u128 {
                return Err(bad_input("request body too large"));
            }
            content_length = length as usize;
        } else if name.eq_ignore_ascii_case("connection") {
            if value.eq_ignore_ascii_case("close") {
                keep_alive = false;
            } else if value.eq_ignore_ascii_case("keep-alive") {
                keep_alive = true;
            }
        }
    }

    let total = pos + content_length;
    if buf.len() < total {
        return Ok(None); // body not fully arrived yet
    }
    Ok(Some((
        Request {
            method,
            path,
            body: buf[pos..total].to_vec(),
            keep_alive,
        },
        total,
    )))
}

/// Extracts the `\n`-terminated line starting at `start`, stripping the
/// terminator and any trailing `\r`s. Returns the line text and the offset
/// just past the terminator, or `None` when the line is not complete yet.
/// A line exceeding [`MAX_HEADER_BYTES`] is rejected even before its
/// terminator arrives, so a newline-free flood cannot buffer unboundedly.
fn next_line(buf: &[u8], start: usize) -> io::Result<Option<(&str, usize)>> {
    match buf[start..].iter().position(|&b| b == b'\n') {
        None => {
            if buf.len() - start > MAX_HEADER_BYTES {
                return Err(bad_input("header line too long"));
            }
            Ok(None)
        }
        Some(rel) => {
            if rel > MAX_HEADER_BYTES {
                return Err(bad_input("header line too long"));
            }
            let mut slice = &buf[start..start + rel];
            while slice.last() == Some(&b'\r') {
                slice = &slice[..slice.len() - 1];
            }
            let text = std::str::from_utf8(slice)
                .map_err(|_| bad_input("header line is not valid UTF-8"))?;
            Ok(Some((text, start + rel + 1)))
        }
    }
}

/// Reads one request off a blocking connection (the offline engine's replay
/// tooling and the unit tests; the server itself uses [`parse_request`] on a
/// nonblocking buffer).
///
/// Returns `Ok(None)` on a clean EOF between requests — and also when the
/// peer disappears mid-request (truncated headers or a body shorter than its
/// `Content-Length`): a short read is the client going away, which is a
/// connection close, not a server error. Malformed bytes that can never
/// become a request are an `InvalidData` error.
pub fn read_request<R: BufRead>(reader: &mut R) -> io::Result<Option<Request>> {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let chunk_len = {
            let chunk = reader.fill_buf()?;
            if chunk.is_empty() {
                // EOF: between requests (empty buffer) or mid-request (short
                // body / truncated headers) — either way a clean close.
                return Ok(None);
            }
            buf.extend_from_slice(chunk);
            chunk.len()
        };
        match parse_request(&buf) {
            Ok(Some((request, consumed))) => {
                // Only the parsed request's bytes belong to us; anything
                // after it stays in the reader for the next call.
                let previously_consumed = buf.len() - chunk_len;
                reader.consume(consumed - previously_consumed);
                return Ok(Some(request));
            }
            Ok(None) => reader.consume(chunk_len),
            Err(e) => {
                reader.consume(chunk_len);
                return Err(e);
            }
        }
    }
}

/// Reads one CRLF-terminated line, stripping the terminator. Returns the
/// number of raw bytes read (0 at EOF). Bounded: a line longer than
/// [`MAX_HEADER_BYTES`] is rejected *while* reading, so a newline-free stream
/// cannot buffer unboundedly the way `read_line` would.
fn read_header_line<R: BufRead>(reader: &mut R, line: &mut String) -> io::Result<usize> {
    let mut bytes: Vec<u8> = Vec::new();
    let mut raw_read = 0usize;
    loop {
        let (done, used) = {
            let buf = reader.fill_buf()?;
            if buf.is_empty() {
                (true, 0) // EOF (at line start when nothing was read yet)
            } else if let Some(pos) = buf.iter().position(|&b| b == b'\n') {
                bytes.extend_from_slice(&buf[..pos]);
                (true, pos + 1)
            } else {
                bytes.extend_from_slice(buf);
                (false, buf.len())
            }
        };
        reader.consume(used);
        raw_read += used;
        if bytes.len() > MAX_HEADER_BYTES {
            return Err(bad_input("header line too long"));
        }
        if done {
            break;
        }
    }
    while bytes.last() == Some(&b'\r') {
        bytes.pop();
    }
    let text =
        std::str::from_utf8(&bytes).map_err(|_| bad_input("header line is not valid UTF-8"))?;
    line.push_str(text);
    Ok(raw_read)
}

fn bad_input(message: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

/// Serializes a response to raw HTTP/1.1 bytes (status line, headers, JSON
/// body) — the form the server's nonblocking write path needs, since it must
/// hand one finished buffer to a polling writer instead of formatting into a
/// blocking stream.
pub fn response_bytes(response: &Response, keep_alive: bool) -> Vec<u8> {
    let (content_type, body) = match &response.text {
        Some(text) => ("text/plain; version=0.0.4", text.clone().into_bytes()),
        None => (
            "application/json",
            serde_json::to_string(&response.body)
                .expect("Value serialization is total")
                .into_bytes(),
        ),
    };
    let mut out = Vec::with_capacity(body.len() + 128);
    write!(
        out,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
        response.status,
        reason(response.status),
        content_type,
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    )
    .expect("writing to a Vec cannot fail");
    out.extend_from_slice(&body);
    out
}

/// Writes a response, honoring the request's keep-alive decision.
pub fn write_response<W: Write>(
    writer: &mut W,
    response: &Response,
    keep_alive: bool,
) -> io::Result<()> {
    writer.write_all(&response_bytes(response, keep_alive))?;
    writer.flush()
}

/// A blocking HTTP/1.1 client that keeps one connection open across requests.
#[derive(Debug)]
pub struct HttpClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl HttpClient {
    /// Connects to `addr` (e.g. `"127.0.0.1:8080"`).
    pub fn connect(addr: &str) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Sends one request and reads the JSON response. `body: None` sends an
    /// empty body.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&Value>,
    ) -> io::Result<(u16, Value)> {
        let payload = match body {
            Some(value) => serde_json::to_string(value)
                .expect("Value serialization is total")
                .into_bytes(),
            None => Vec::new(),
        };
        write!(
            self.writer,
            "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            payload.len()
        )?;
        self.writer.write_all(&payload)?;
        self.writer.flush()?;
        self.read_response()
    }

    /// Sends a raw (possibly malformed) body — used by the protocol tests.
    pub fn request_raw(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> io::Result<(u16, Value)> {
        write!(
            self.writer,
            "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )?;
        self.writer.write_all(body)?;
        self.writer.flush()?;
        self.read_response()
    }

    /// Sends one request and returns the response body as raw text (for
    /// non-JSON endpoints such as the Prometheus `GET /metrics`).
    pub fn request_text(&mut self, method: &str, path: &str) -> io::Result<(u16, String)> {
        write!(
            self.writer,
            "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: 0\r\n\r\n",
        )?;
        self.writer.flush()?;
        self.read_response_text()
    }

    fn read_response(&mut self) -> io::Result<(u16, Value)> {
        let (status, text) = self.read_response_text()?;
        let value = if text.is_empty() {
            Value::Null
        } else {
            serde_json::from_str(&text)
                .map_err(|e| bad_input(&format!("invalid JSON response: {e}")))?
        };
        Ok((status, value))
    }

    fn read_response_text(&mut self) -> io::Result<(u16, String)> {
        let mut line = String::new();
        if read_header_line(&mut self.reader, &mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad_input("malformed status line"))?;
        let mut content_length = 0usize;
        loop {
            line.clear();
            read_header_line(&mut self.reader, &mut line)?;
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value
                        .trim()
                        .parse()
                        .map_err(|_| bad_input("invalid Content-Length"))?;
                }
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        let text = String::from_utf8(body).map_err(|_| bad_input("non-UTF-8 response body"))?;
        Ok((status, text))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Cursor, Seek};

    #[test]
    fn parses_a_request_with_body() {
        let raw = b"POST /scenarios HTTP/1.1\r\nHost: x\r\nContent-Length: 7\r\n\r\n{\"k\":1}";
        let mut reader = BufReader::new(Cursor::new(raw.to_vec()));
        let req = read_request(&mut reader).unwrap().unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/scenarios");
        assert_eq!(req.body, b"{\"k\":1}");
        assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
        assert_eq!(req.json().unwrap().get("k"), Some(&Value::UInt(1)));
    }

    #[test]
    fn connection_close_and_http10_disable_keep_alive() {
        let raw = b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n";
        let mut reader = BufReader::new(Cursor::new(raw.to_vec()));
        assert!(!read_request(&mut reader).unwrap().unwrap().keep_alive);

        let raw = b"GET /healthz HTTP/1.0\r\n\r\n";
        let mut reader = BufReader::new(Cursor::new(raw.to_vec()));
        assert!(!read_request(&mut reader).unwrap().unwrap().keep_alive);
    }

    #[test]
    fn eof_between_requests_is_clean() {
        let mut reader = BufReader::new(Cursor::new(Vec::<u8>::new()));
        assert!(read_request(&mut reader).unwrap().is_none());
    }

    #[test]
    fn malformed_requests_are_rejected() {
        for raw in [
            &b"NOT-HTTP\r\n\r\n"[..],
            &b"GET /x SPDY/3\r\n\r\n"[..],
            &b"GET /x HTTP/1.1\r\nContent-Length: banana\r\n\r\n"[..],
            &b"GET /x HTTP/1.1\r\nbroken header\r\n\r\n"[..],
        ] {
            let mut reader = BufReader::new(Cursor::new(raw.to_vec()));
            assert!(read_request(&mut reader).is_err(), "accepted {raw:?}");
        }
    }

    #[test]
    fn newline_free_floods_are_cut_off_at_the_header_cap() {
        // A "request" that never sends a newline must be rejected after at
        // most MAX_HEADER_BYTES, not buffered until memory runs out.
        let raw = vec![b'A'; MAX_HEADER_BYTES * 4];
        let mut reader = BufReader::new(Cursor::new(raw));
        assert!(read_request(&mut reader).is_err());
        // The reader stopped within the cap (plus at most one buffer fill).
        assert!(reader.stream_position().unwrap() <= (MAX_HEADER_BYTES + 16 * 1024) as u64);
    }

    #[test]
    fn oversized_bodies_are_rejected_before_reading() {
        let raw = format!(
            "POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        let mut reader = BufReader::new(Cursor::new(raw.into_bytes()));
        assert!(read_request(&mut reader).is_err());
    }

    #[test]
    fn overflowing_content_lengths_are_rejected_before_allocating() {
        // Values that exceed the cap, u64::MAX, and u128::MAX: all must be
        // rejected from the *header bytes alone* — parse_request sees no body
        // byte, so erroring here proves no body buffer was ever sized from
        // the hostile length.
        for huge in [
            (MAX_BODY_BYTES as u128 + 1).to_string(),
            u64::MAX.to_string(),
            format!("{}0", u128::MAX), // does not even fit u128
        ] {
            let raw = format!("POST /x HTTP/1.1\r\nContent-Length: {huge}\r\n\r\n");
            let err = parse_request(raw.as_bytes()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{huge}");
        }
    }

    #[test]
    fn short_body_eof_is_a_clean_close_not_an_error() {
        // The client promised 10 bytes, sent 3, then went away. That is a
        // connection close, not a 500.
        let raw = b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc";
        let mut reader = BufReader::new(Cursor::new(raw.to_vec()));
        assert!(read_request(&mut reader).unwrap().is_none());

        // Same for headers cut off mid-section.
        let raw = b"POST /x HTTP/1.1\r\nContent-Len";
        let mut reader = BufReader::new(Cursor::new(raw.to_vec()));
        assert!(read_request(&mut reader).unwrap().is_none());
    }

    #[test]
    fn parse_request_is_incremental() {
        let raw = b"POST /scenarios HTTP/1.1\r\nContent-Length: 7\r\n\r\n{\"k\":1}";
        // Every strict prefix is incomplete, never an error.
        for cut in 0..raw.len() {
            assert!(
                parse_request(&raw[..cut]).unwrap().is_none(),
                "prefix of {cut} bytes should be incomplete"
            );
        }
        let (request, consumed) = parse_request(raw).unwrap().unwrap();
        assert_eq!(consumed, raw.len());
        assert_eq!(request.method, "POST");
        assert_eq!(request.body, b"{\"k\":1}");
    }

    #[test]
    fn parse_request_leaves_pipelined_bytes_alone() {
        let mut raw = b"GET /healthz HTTP/1.1\r\n\r\n".to_vec();
        let second = b"GET /scenarios/1/metrics HTTP/1.1\r\n\r\n";
        raw.extend_from_slice(second);
        let (first, consumed) = parse_request(&raw).unwrap().unwrap();
        assert_eq!(first.path, "/healthz");
        assert_eq!(&raw[consumed..], second, "second request untouched");
        let (parsed_second, consumed_second) = parse_request(&raw[consumed..]).unwrap().unwrap();
        assert_eq!(parsed_second.path, "/scenarios/1/metrics");
        assert_eq!(consumed + consumed_second, raw.len());
    }

    #[test]
    fn read_request_only_consumes_the_parsed_request() {
        let raw = b"GET /healthz HTTP/1.1\r\n\r\nGET /nope HTTP/1.1\r\n\r\n";
        let mut reader = BufReader::new(Cursor::new(raw.to_vec()));
        let first = read_request(&mut reader).unwrap().unwrap();
        assert_eq!(first.path, "/healthz");
        let second = read_request(&mut reader).unwrap().unwrap();
        assert_eq!(second.path, "/nope");
        assert!(read_request(&mut reader).unwrap().is_none());
    }

    #[test]
    fn responses_serialize_with_content_length() {
        let mut out = Vec::new();
        let response = Response::ok(Value::Object(vec![("ok".to_string(), Value::Bool(true))]));
        write_response(&mut out, &response, true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.contains("Connection: keep-alive"));
        assert!(text.ends_with("{\"ok\":true}"));
    }
}
