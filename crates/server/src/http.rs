//! A minimal, strict HTTP/1.1 request parser and response writer built on
//! `std::io`. JSON bodies are rendered by `serde_json`.
//!
//! The parser is incremental: it owns a byte buffer, reads from any
//! [`Read`] in chunks, and yields one request at a time. Bytes past the end
//! of a request stay buffered, which is exactly what pipelined keep-alive
//! clients need. Limits (header size, body size) are enforced *while*
//! reading, so an oversized request is rejected without buffering it all.

use serde::Serialize;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Hard cap on the request line + headers, in bytes.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Floor for re-armed socket timeouts: `set_read_timeout(Some(ZERO))` is an
/// error (and a zero timeout would mean "block forever" to setsockopt), so
/// an almost-expired deadline still arms a small positive timeout.
const MIN_IO_TIMEOUT: Duration = Duration::from_millis(1);

/// Default cap on a request body, in bytes (overridable per connection).
pub const DEFAULT_MAX_BODY_BYTES: usize = 1024 * 1024;

/// A parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Method verb, uppercased by the client (`GET`, `POST`, ...).
    pub method: String,
    /// Request target (path + optional query), e.g. `/v1/notebook`.
    pub target: String,
    /// Protocol version string, e.g. `HTTP/1.1`.
    pub version: String,
    /// Header `(name, value)` pairs; names lowercased.
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// First header value with the given (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let lname = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == lname)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to keep the connection open. HTTP/1.1
    /// defaults to keep-alive unless `Connection: close` is present.
    pub fn keep_alive(&self) -> bool {
        match self.header("connection").map(str::to_ascii_lowercase) {
            Some(v) if v.contains("close") => false,
            Some(v) if v.contains("keep-alive") => true,
            _ => self.version == "HTTP/1.1",
        }
    }

    /// Path component of the target (query string stripped).
    pub fn path(&self) -> &str {
        self.target.split('?').next().unwrap_or(&self.target)
    }

    /// Query string of the target (empty when absent, `?` stripped).
    pub fn query(&self) -> &str {
        self.target.split_once('?').map(|(_, q)| q).unwrap_or("")
    }

    /// Whether the query string contains the exact `key=value` pair.
    pub fn query_has(&self, key: &str, value: &str) -> bool {
        self.query()
            .split('&')
            .any(|kv| kv.split_once('=') == Some((key, value)))
    }

    /// First value for `key` in the query string (raw, not percent-decoded).
    pub fn query_get(&self, key: &str) -> Option<&str> {
        self.query().split('&').find_map(|kv| {
            kv.split_once('=')
                .filter(|(k, _)| *k == key)
                .map(|(_, v)| v)
        })
    }
}

/// Parse failures, each mapped to the HTTP status the server should answer
/// with before closing the connection.
#[derive(Debug, PartialEq, Eq)]
pub enum ParseError {
    /// Clean EOF before any request bytes — the peer just closed.
    Closed,
    /// Malformed request line or headers → 400.
    BadRequest(String),
    /// Head grew past [`MAX_HEAD_BYTES`] → 431.
    HeadTooLarge,
    /// Declared body exceeds the configured cap → 413.
    BodyTooLarge {
        /// The declared `Content-Length`.
        declared: usize,
    },
    /// Body-bearing method without a `Content-Length` header → 411.
    LengthRequired,
    /// `Transfer-Encoding: chunked` request → 501. The framing is not
    /// implemented, so the connection must close after the response —
    /// the body boundary cannot be found.
    ChunkedUnsupported,
    /// Socket read timed out mid-request → 408.
    Timeout,
    /// EOF mid-request or another transport failure — nothing to send.
    Io(ErrorKind),
}

impl ParseError {
    /// The HTTP status code to answer with, if an answer is possible.
    pub fn status(&self) -> Option<(u16, &'static str)> {
        match self {
            ParseError::Closed | ParseError::Io(_) => None,
            ParseError::BadRequest(_) => Some((400, "Bad Request")),
            ParseError::HeadTooLarge => Some((431, "Request Header Fields Too Large")),
            ParseError::BodyTooLarge { .. } => Some((413, "Payload Too Large")),
            ParseError::LengthRequired => Some((411, "Length Required")),
            ParseError::ChunkedUnsupported => Some((501, "Not Implemented")),
            ParseError::Timeout => Some((408, "Request Timeout")),
        }
    }
}

/// Incremental request reader over any [`Read`] transport.
pub struct RequestReader<R> {
    transport: R,
    buffer: Vec<u8>,
    max_body: usize,
    route_caps: Vec<(String, usize)>,
    /// Total wall-clock budget for reading one request, re-armed at the
    /// start of every [`RequestReader::read_request`] call. `None` leaves
    /// only the transport's own per-call timeout in force — which a
    /// slow-loris client defeats by dribbling one byte per tick, resetting
    /// the socket timer on every read.
    read_budget: Option<Duration>,
    /// Deadline for the request currently being read.
    deadline: Option<Instant>,
    /// Hook that re-arms the transport's per-call timeout to the remaining
    /// budget before each read, so even a fully silent peer cannot block
    /// past the deadline.
    rearm: Option<Box<dyn Fn(Duration) + Send>>,
}

impl<R: Read> RequestReader<R> {
    /// Wrap a transport with the default body cap.
    pub fn new(transport: R) -> Self {
        Self::with_max_body(transport, DEFAULT_MAX_BODY_BYTES)
    }

    /// Wrap a transport with an explicit body cap.
    pub fn with_max_body(transport: R, max_body: usize) -> Self {
        Self {
            transport,
            buffer: Vec::new(),
            max_body,
            route_caps: Vec::new(),
            read_budget: None,
            deadline: None,
            rearm: None,
        }
    }

    /// Bound every [`RequestReader::read_request`] call to `budget` of
    /// total wall-clock, independent of how the peer paces its bytes. The
    /// `rearm` hook is called with the remaining budget before each
    /// transport read and should shrink the transport's per-call timeout
    /// accordingly (for sockets: `set_read_timeout`). Once the deadline
    /// passes, the reader returns [`ParseError::Timeout`] mid-request or
    /// [`ParseError::Closed`] for an idle keep-alive connection.
    pub fn with_read_budget(
        mut self,
        budget: Duration,
        rearm: impl Fn(Duration) + Send + 'static,
    ) -> Self {
        self.read_budget = Some(budget);
        self.rearm = Some(Box::new(rearm));
        self
    }

    /// Give one exact path its own body cap (e.g. a larger allowance for
    /// the dataset-upload route, sized to the registry's per-upload byte
    /// cap). Like the default cap, it is checked against the declared
    /// `Content-Length` *before* any body byte is buffered, so a huge
    /// declared upload is refused without allocation.
    pub fn with_route_cap(mut self, path: &str, max_body: usize) -> Self {
        self.route_caps.push((path.to_string(), max_body));
        self
    }

    fn cap_for(&self, target: &str) -> usize {
        let path = target.split('?').next().unwrap_or(target);
        self.route_caps
            .iter()
            .find(|(p, _)| p == path)
            .map(|(_, cap)| *cap)
            .unwrap_or(self.max_body)
    }

    /// Read one full request. Leftover bytes (pipelined requests) stay
    /// buffered for the next call.
    pub fn read_request(&mut self) -> Result<Request, ParseError> {
        // Each request gets a fresh deadline. The idle keep-alive wait for
        // the next request shares the same budget, which preserves the
        // previous idle-timeout behavior (an idle peer is closed after one
        // budget) while also bounding a dribbled request.
        self.deadline = self.read_budget.map(|b| Instant::now() + b);
        let head_end = self.fill_until_head_end()?;
        let head = self.buffer[..head_end].to_vec();
        let (method, target, version, headers) = parse_head(&head)?;

        if let Some(te) = header_value(&headers, "transfer-encoding") {
            if te.to_ascii_lowercase().contains("chunked") {
                // Chunked framing is not implemented: reject up front and
                // drop the buffer — without parsing the framing there is no
                // way to find the body boundary, so the connection closes.
                self.buffer.clear();
                return Err(ParseError::ChunkedUnsupported);
            }
        }

        let content_length = match header_value(&headers, "content-length") {
            Some(raw) => Some(
                raw.trim()
                    .parse::<usize>()
                    .map_err(|_| ParseError::BadRequest("unparseable Content-Length".into()))?,
            ),
            None => None,
        };
        let body_len = match content_length {
            Some(n) => n,
            // Body-bearing methods must declare their length; we do not
            // implement chunked transfer encoding.
            None if method == "POST" || method == "PUT" || method == "PATCH" => {
                self.buffer.drain(..head_end + 4);
                return Err(ParseError::LengthRequired);
            }
            None => 0,
        };
        if body_len > self.cap_for(&target) {
            // Do not read (or keep) the oversized body.
            self.buffer.clear();
            return Err(ParseError::BodyTooLarge { declared: body_len });
        }

        let body_start = head_end + 4;
        self.fill_until(body_start + body_len)?;
        let body = self.buffer[body_start..body_start + body_len].to_vec();
        self.buffer.drain(..body_start + body_len);
        Ok(Request {
            method,
            target,
            version,
            headers,
            body,
        })
    }

    /// Grow the buffer until it contains the `\r\n\r\n` head terminator;
    /// returns the terminator's offset.
    fn fill_until_head_end(&mut self) -> Result<usize, ParseError> {
        let mut scanned: usize = 0;
        loop {
            if let Some(pos) = find_head_end(&self.buffer[scanned.saturating_sub(3)..])
                .map(|p| p + scanned.saturating_sub(3))
            {
                return Ok(pos);
            }
            scanned = self.buffer.len();
            // A valid head must terminate within the first MAX_HEAD_BYTES;
            // past that, no later read can make this request acceptable.
            if scanned >= MAX_HEAD_BYTES {
                return Err(ParseError::HeadTooLarge);
            }
            let at_start = self.buffer.is_empty();
            self.fill_some(at_start)?;
        }
    }

    /// Grow the buffer to at least `target` bytes.
    fn fill_until(&mut self, target: usize) -> Result<(), ParseError> {
        while self.buffer.len() < target {
            self.fill_some(false)?;
        }
        Ok(())
    }

    /// One transport read. `clean_eof_ok` distinguishes "peer closed between
    /// requests" (fine) from "peer closed mid-request" (an error).
    fn fill_some(&mut self, clean_eof_ok: bool) -> Result<(), ParseError> {
        // Per-request deadline check before every transport read: a peer
        // that dribbles bytes keeps each *read* fast but cannot stretch
        // the *request* past the budget. The rearm hook shrinks the
        // transport timeout to the remainder so a peer that goes silent
        // is also cut off at the same deadline, not a full timeout later.
        if let Some(deadline) = self.deadline {
            let now = Instant::now();
            if now >= deadline {
                return Err(if clean_eof_ok && self.buffer.is_empty() {
                    ParseError::Closed
                } else {
                    ParseError::Timeout
                });
            }
            if let Some(rearm) = &self.rearm {
                rearm((deadline - now).max(MIN_IO_TIMEOUT));
            }
        }
        let mut chunk = [0u8; 4096];
        loop {
            match self.transport.read(&mut chunk) {
                Ok(0) => {
                    return Err(if clean_eof_ok && self.buffer.is_empty() {
                        ParseError::Closed
                    } else {
                        ParseError::Io(ErrorKind::UnexpectedEof)
                    });
                }
                Ok(n) => {
                    self.buffer.extend_from_slice(&chunk[..n]);
                    return Ok(());
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    return Err(if clean_eof_ok && self.buffer.is_empty() {
                        // Idle keep-alive connection timed out waiting for the
                        // next request: treat as a clean close.
                        ParseError::Closed
                    } else {
                        ParseError::Timeout
                    });
                }
                Err(e) => return Err(ParseError::Io(e.kind())),
            }
        }
    }
}

fn find_head_end(bytes: &[u8]) -> Option<usize> {
    bytes.windows(4).position(|w| w == b"\r\n\r\n")
}

fn header_value<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

type Head = (String, String, String, Vec<(String, String)>);

fn parse_head(head: &[u8]) -> Result<Head, ParseError> {
    let text = std::str::from_utf8(head)
        .map_err(|_| ParseError::BadRequest("head is not valid UTF-8".into()))?;
    let mut lines = text.split("\r\n");
    let request_line = lines
        .next()
        .ok_or_else(|| ParseError::BadRequest("empty head".into()))?;
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && t.starts_with('/') => {
            (m.to_string(), t.to_string(), v.to_string())
        }
        _ => {
            return Err(ParseError::BadRequest(format!(
                "malformed request line {request_line:?}"
            )))
        }
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(ParseError::BadRequest(format!(
            "unsupported protocol {version:?}"
        )));
    }
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| ParseError::BadRequest(format!("malformed header line {line:?}")))?;
        if name.is_empty() || name.contains(' ') {
            return Err(ParseError::BadRequest(format!(
                "malformed header name {name:?}"
            )));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }
    Ok((method, target, version, headers))
}

/// A response ready to serialize.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Reason phrase.
    pub reason: &'static str,
    /// Extra headers beyond the auto-added ones.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response with the given status.
    pub fn json(status: u16, reason: &'static str, body: impl Into<Vec<u8>>) -> Self {
        Self {
            status,
            reason,
            headers: vec![("Content-Type".into(), "application/json".into())],
            body: body.into(),
        }
    }

    /// A 200 JSON response.
    pub fn ok_json(body: impl Into<Vec<u8>>) -> Self {
        Self::json(200, "OK", body)
    }

    /// A 200 response with an explicit content type (e.g. the Prometheus
    /// text exposition's `text/plain; version=0.0.4`).
    pub fn ok_text(content_type: &str, body: impl Into<Vec<u8>>) -> Self {
        Self {
            status: 200,
            reason: "OK",
            headers: vec![("Content-Type".into(), content_type.into())],
            body: body.into(),
        }
    }

    /// A JSON response whose body is `value` rendered by `serde_json`. A
    /// value that fails to serialize is answered with a typed 500 instead.
    pub fn json_of(status: u16, reason: &'static str, value: &impl Serialize) -> Self {
        match serde_json::to_string(value) {
            Ok(body) => Self::json(status, reason, body),
            Err(e) => Self::error(
                500,
                "Internal Server Error",
                &format!("response serialization failed: {e}"),
            ),
        }
    }

    /// A JSON error response `{"error": message}`.
    pub fn error(status: u16, reason: &'static str, message: &str) -> Self {
        let body = ErrorBody {
            error: message.to_string(),
        };
        // An object of one string always serializes; the empty fallback
        // only keeps this path free of panics.
        Self::json(
            status,
            reason,
            serde_json::to_string(&body).unwrap_or_default(),
        )
    }

    /// Add a header.
    pub fn with_header(mut self, name: &str, value: &str) -> Self {
        self.headers.push((name.into(), value.into()));
        self
    }

    /// Serialize the response (with `Content-Length` and `Connection`
    /// headers) to a writer.
    pub fn write_to(&self, w: &mut impl Write, keep_alive: bool) -> std::io::Result<()> {
        let mut head = format!("HTTP/1.1 {} {}\r\n", self.status, self.reason);
        for (name, value) in &self.headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str(&format!("Content-Length: {}\r\n", self.body.len()));
        head.push_str(if keep_alive {
            "Connection: keep-alive\r\n\r\n"
        } else {
            "Connection: close\r\n\r\n"
        });
        w.write_all(head.as_bytes())?;
        w.write_all(&self.body)?;
        w.flush()
    }
}

/// A [`Write`] adapter over a [`TcpStream`] that bounds the *total*
/// wall-clock a response write may take. `set_write_timeout` alone is
/// per-call: a byzantine client that drains the response one byte per tick
/// keeps every individual `write` fast while holding the worker
/// indefinitely. Before each write this adapter checks an absolute
/// deadline and shrinks the socket's write timeout to the remainder, so
/// the worker is released at the deadline no matter how the peer paces
/// its reads. A missed deadline surfaces as [`ErrorKind::TimedOut`]; the
/// connection is then closed (partial responses are unambiguous because
/// every response carries `Content-Length`).
pub struct DeadlineWriter<'a> {
    stream: &'a TcpStream,
    deadline: Instant,
}

impl<'a> DeadlineWriter<'a> {
    /// Bound writes on `stream` to complete before `deadline`.
    pub fn new(stream: &'a TcpStream, deadline: Instant) -> Self {
        Self { stream, deadline }
    }

    fn arm(&self) -> std::io::Result<()> {
        let now = Instant::now();
        if now >= self.deadline {
            return Err(std::io::Error::new(
                ErrorKind::TimedOut,
                "response write deadline exceeded",
            ));
        }
        self.stream
            .set_write_timeout(Some((self.deadline - now).max(MIN_IO_TIMEOUT)))
    }
}

impl Write for DeadlineWriter<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        // `write_all` loops through here on every partial write, so the
        // deadline is re-checked even inside one large body.
        self.arm()?;
        (&mut &*self.stream).write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.arm()?;
        (&mut &*self.stream).flush()
    }
}

/// The body of every error response.
#[derive(Serialize)]
struct ErrorBody {
    error: String,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A transport that yields its script in fixed-size chunks, to exercise
    /// partial reads.
    struct Chunked {
        data: Vec<u8>,
        pos: usize,
        chunk: usize,
    }

    impl Chunked {
        fn new(data: impl Into<Vec<u8>>, chunk: usize) -> Self {
            Self {
                data: data.into(),
                pos: 0,
                chunk,
            }
        }
    }

    impl Read for Chunked {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.chunk.min(buf.len()).min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    const POST: &str = "POST /v1/notebook HTTP/1.1\r\nHost: x\r\nContent-Length: 18\r\n\r\n{\"dataset\":\"c1\"}\r\n";

    #[test]
    fn parses_simple_get() {
        let mut r = RequestReader::new(Chunked::new(
            "GET /v1/healthz HTTP/1.1\r\nHost: a\r\n\r\n",
            4096,
        ));
        let req = r.read_request().unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path(), "/v1/healthz");
        assert_eq!(req.header("host"), Some("a"));
        assert_eq!(req.header("HOST"), Some("a"));
        assert!(req.keep_alive());
        assert!(req.body.is_empty());
        assert_eq!(req.query(), "");
    }

    #[test]
    fn query_string_is_split_from_path() {
        let mut r = RequestReader::new(Chunked::new(
            "GET /v1/metrics?format=prometheus&x=1 HTTP/1.1\r\n\r\n",
            4096,
        ));
        let req = r.read_request().unwrap();
        assert_eq!(req.path(), "/v1/metrics");
        assert_eq!(req.query(), "format=prometheus&x=1");
        assert!(req.query_has("format", "prometheus"));
        assert!(req.query_has("x", "1"));
        assert!(!req.query_has("format", "json"));
        assert!(!req.query_has("prometheus", ""));
    }

    #[test]
    fn parses_post_with_body_across_partial_reads() {
        // 1-byte reads: every boundary is exercised.
        for chunk in [1, 2, 3, 7, 4096] {
            let mut r = RequestReader::new(Chunked::new(POST, chunk));
            let req = r.read_request().unwrap();
            assert_eq!(req.method, "POST", "chunk {chunk}");
            assert_eq!(req.body, b"{\"dataset\":\"c1\"}\r\n", "chunk {chunk}");
        }
    }

    #[test]
    fn pipelined_keep_alive_requests() {
        let two = format!("{POST}GET /v1/metrics HTTP/1.1\r\n\r\n");
        for chunk in [1, 5, 4096] {
            let mut r = RequestReader::new(Chunked::new(two.clone(), chunk));
            let first = r.read_request().unwrap();
            assert_eq!(first.path(), "/v1/notebook");
            let second = r.read_request().unwrap();
            assert_eq!(second.path(), "/v1/metrics");
            assert_eq!(r.read_request().unwrap_err(), ParseError::Closed);
        }
    }

    #[test]
    fn missing_content_length_on_post_is_411() {
        let mut r = RequestReader::new(Chunked::new(
            "POST /v1/notebook HTTP/1.1\r\nHost: x\r\n\r\n",
            4096,
        ));
        let err = r.read_request().unwrap_err();
        assert_eq!(err, ParseError::LengthRequired);
        assert_eq!(err.status(), Some((411, "Length Required")));
    }

    #[test]
    fn get_without_content_length_has_empty_body() {
        let mut r = RequestReader::new(Chunked::new("GET / HTTP/1.0\r\n\r\n", 4096));
        let req = r.read_request().unwrap();
        assert!(req.body.is_empty());
        // HTTP/1.0 defaults to close.
        assert!(!req.keep_alive());
    }

    #[test]
    fn oversized_body_is_413_without_buffering() {
        let mut r = RequestReader::with_max_body(
            Chunked::new("POST / HTTP/1.1\r\nContent-Length: 999999\r\n\r\n", 4096),
            1024,
        );
        assert_eq!(
            r.read_request().unwrap_err(),
            ParseError::BodyTooLarge { declared: 999999 }
        );
    }

    #[test]
    fn chunked_transfer_encoding_is_501() {
        // Never hang or misparse: the request is rejected from the head
        // alone, before any chunk framing is read.
        let mut r = RequestReader::new(Chunked::new(
            "POST /v1/datasets HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
            4096,
        ));
        let err = r.read_request().unwrap_err();
        assert_eq!(err, ParseError::ChunkedUnsupported);
        assert_eq!(err.status(), Some((501, "Not Implemented")));
        // Case-insensitive, and also when combined with other codings.
        let mut r = RequestReader::new(Chunked::new(
            "POST /x HTTP/1.1\r\nTransfer-Encoding: gzip, Chunked\r\nContent-Length: 3\r\n\r\nabc",
            4096,
        ));
        assert_eq!(
            r.read_request().unwrap_err(),
            ParseError::ChunkedUnsupported
        );
    }

    #[test]
    fn route_cap_overrides_default_for_exact_path() {
        let upload = "POST /v1/datasets HTTP/1.1\r\nContent-Length: 2048\r\n\r\n";
        let body = "x".repeat(2048);
        // Default cap would refuse this body; the route cap admits it.
        let mut r =
            RequestReader::with_max_body(Chunked::new(format!("{upload}{body}"), 4096), 1024)
                .with_route_cap("/v1/datasets", 4096);
        let req = r.read_request().unwrap();
        assert_eq!(req.body.len(), 2048);
        // The route cap also tightens: a huge declared Content-Length on
        // the capped route is refused without buffering.
        let mut r = RequestReader::with_max_body(
            Chunked::new(
                "POST /v1/datasets?name=big HTTP/1.1\r\nContent-Length: 2147483648\r\n\r\n",
                4096,
            ),
            1 << 30,
        )
        .with_route_cap("/v1/datasets", 4096);
        assert_eq!(
            r.read_request().unwrap_err(),
            ParseError::BodyTooLarge {
                declared: 2147483648
            }
        );
        // Other routes keep the default cap.
        let mut r = RequestReader::with_max_body(
            Chunked::new(
                "POST /v1/notebook HTTP/1.1\r\nContent-Length: 2048\r\n\r\n",
                4096,
            ),
            1024,
        )
        .with_route_cap("/v1/datasets", 4096);
        assert!(matches!(
            r.read_request().unwrap_err(),
            ParseError::BodyTooLarge { .. }
        ));
    }

    #[test]
    fn oversized_head_is_431() {
        let huge = format!(
            "GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
            "a".repeat(MAX_HEAD_BYTES)
        );
        let mut r = RequestReader::new(Chunked::new(huge, 4096));
        assert_eq!(r.read_request().unwrap_err(), ParseError::HeadTooLarge);
    }

    #[test]
    fn malformed_requests_are_400() {
        for bad in [
            "NOPE\r\n\r\n",
            "GET\r\n\r\n",
            "GET /x HTTP/2.0\r\n\r\n",
            "GET x HTTP/1.1\r\n\r\n",
            "GET /x HTTP/1.1 extra\r\n\r\n",
            "GET /x HTTP/1.1\r\nbad header line\r\n\r\n",
            "POST /x HTTP/1.1\r\nContent-Length: twelve\r\n\r\n",
        ] {
            let mut r = RequestReader::new(Chunked::new(bad, 4096));
            let err = r.read_request().unwrap_err();
            assert!(
                matches!(err, ParseError::BadRequest(_)),
                "{bad:?} gave {err:?}"
            );
            assert_eq!(err.status().unwrap().0, 400);
        }
    }

    #[test]
    fn eof_mid_request_is_io_error() {
        let mut r = RequestReader::new(Chunked::new("GET /x HTTP/1.1\r\nHo", 4096));
        assert!(matches!(r.read_request().unwrap_err(), ParseError::Io(_)));
        // EOF mid-body, too.
        let mut r = RequestReader::new(Chunked::new(
            "POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc",
            4096,
        ));
        assert!(matches!(r.read_request().unwrap_err(), ParseError::Io(_)));
    }

    #[test]
    fn clean_eof_before_any_bytes_is_closed() {
        let mut r = RequestReader::new(Chunked::new("", 4096));
        assert_eq!(r.read_request().unwrap_err(), ParseError::Closed);
    }

    #[test]
    fn connection_close_header_overrides_keep_alive() {
        let mut r = RequestReader::new(Chunked::new(
            "GET / HTTP/1.1\r\nConnection: close\r\n\r\n",
            4096,
        ));
        assert!(!r.read_request().unwrap().keep_alive());
        let mut r = RequestReader::new(Chunked::new(
            "GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
            4096,
        ));
        assert!(r.read_request().unwrap().keep_alive());
    }

    /// A transport that yields one byte per read, sleeping `delay` first —
    /// a cooperative slow-loris.
    struct Dribble {
        data: Vec<u8>,
        pos: usize,
        delay: Duration,
    }

    impl Read for Dribble {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            std::thread::sleep(self.delay);
            if self.pos >= self.data.len() || buf.is_empty() {
                return Ok(0);
            }
            buf[0] = self.data[self.pos];
            self.pos += 1;
            Ok(1)
        }
    }

    #[test]
    fn read_budget_cuts_off_dribbled_request() {
        // 300 bytes at 5 ms/byte would take 1.5 s; the 40 ms budget must
        // cut the request off long before the head completes, regardless
        // of the fact that every individual read succeeds quickly.
        let head = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(280));
        let mut r = RequestReader::new(Dribble {
            data: head.into_bytes(),
            pos: 0,
            delay: Duration::from_millis(5),
        })
        .with_read_budget(Duration::from_millis(40), |_| {});
        let start = Instant::now();
        assert_eq!(r.read_request().unwrap_err(), ParseError::Timeout);
        assert!(
            start.elapsed() < Duration::from_millis(500),
            "budget must bound the dribble, took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn read_budget_rearms_transport_with_shrinking_remainder() {
        use std::sync::{Arc, Mutex};
        let seen: Arc<Mutex<Vec<Duration>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let mut r = RequestReader::new(Dribble {
            data: b"GET /v1/healthz HTTP/1.1\r\n\r\n".to_vec(),
            pos: 0,
            delay: Duration::from_millis(2),
        })
        .with_read_budget(Duration::from_secs(5), move |remaining| {
            sink.lock().unwrap().push(remaining);
        });
        r.read_request().unwrap();
        let seen = seen.lock().unwrap();
        assert!(seen.len() >= 2, "hook called before each read");
        assert!(
            seen.windows(2).all(|w| w[1] <= w[0]),
            "remaining budget must shrink monotonically: {seen:?}"
        );
        assert!(seen.iter().all(|d| *d >= MIN_IO_TIMEOUT));
    }

    #[test]
    fn read_budget_does_not_break_fast_requests() {
        let two = format!("{POST}GET /v1/metrics HTTP/1.1\r\n\r\n");
        let mut r = RequestReader::new(Chunked::new(two, 3))
            .with_read_budget(Duration::from_secs(5), |_| {});
        assert_eq!(r.read_request().unwrap().path(), "/v1/notebook");
        assert_eq!(r.read_request().unwrap().path(), "/v1/metrics");
        assert_eq!(r.read_request().unwrap_err(), ParseError::Closed);
    }

    #[test]
    fn response_serializes_with_content_length() {
        let mut out = Vec::new();
        Response::ok_json("{\"ok\":true}")
            .with_header("X-Atena-Cache", "hit")
            .write_to(&mut out, true)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Type: application/json\r\n"));
        assert!(text.contains("X-Atena-Cache: hit\r\n"));
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n\r\n{\"ok\":true}"));
    }

    #[test]
    fn error_response_escapes_message() {
        let r = Response::error(400, "Bad Request", "bad \"json\"\n");
        assert_eq!(
            String::from_utf8(r.body).unwrap(),
            "{\"error\":\"bad \\\"json\\\"\\n\"}"
        );
    }
}
