//! A minimal HTTP/1.1 keep-alive client for the load generator.
//!
//! Each request goes out in one `write` of a prebuilt buffer, and sockets
//! set `TCP_NODELAY`, so any stall between request and response is the
//! server's. Responses are framed by `Content-Length` across however many
//! reads they arrive in.

use crate::now;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A complete response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Headers in arrival order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// First header named `name` (lowercase).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Parse one response from the front of `buf`. Returns the response and
/// the bytes it took once head and body are complete, `Ok(None)` while
/// more bytes are needed.
pub fn parse_response(buf: &[u8]) -> Result<Option<(Response, usize)>, String> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "response head is not UTF-8")?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let mut parts = status_line.splitn(3, ' ');
    if !parts.next().is_some_and(|v| v.starts_with("HTTP/1.")) {
        return Err(format!("bad status line {status_line:?}"));
    }
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    let mut headers = Vec::new();
    for line in lines {
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| format!("bad header line {line:?}"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let length: usize = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .ok_or("response has no Content-Length")?
        .1
        .parse()
        .map_err(|_| "bad Content-Length")?;
    let body_start = head_end + 4;
    let end = body_start + length;
    if buf.len() < end {
        return Ok(None);
    }
    let body = buf[body_start..end].to_vec();
    Ok(Some((
        Response {
            status,
            headers,
            body,
        },
        end,
    )))
}

/// Serialize a request into the single buffer it is written from.
pub fn request_bytes(method: &str, target: &str, headers: &[(&str, &str)], body: &[u8]) -> Vec<u8> {
    let mut head = format!("{method} {target} HTTP/1.1\r\nHost: bench\r\n");
    for (name, value) in headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
    let mut out = head.into_bytes();
    out.extend_from_slice(body);
    out
}

/// One request/response round trip with its client-side timestamps.
#[derive(Debug)]
pub struct Exchange {
    /// The response.
    pub response: Response,
    /// Before the request's write.
    pub sent: Instant,
    /// After the request's write returned.
    pub written: Instant,
    /// When the first response byte was read.
    pub first_byte: Instant,
    /// When the last response byte was read.
    pub last_byte: Instant,
}

impl Exchange {
    /// Request sent to last response byte, milliseconds.
    pub fn latency_ms(&self) -> f64 {
        (self.last_byte - self.sent).as_secs_f64() * 1e3
    }
}

/// A reused keep-alive connection.
pub struct Connection {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Connection {
    /// Connect with `TCP_NODELAY` and a read timeout.
    pub fn open(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Self {
            stream,
            buf: Vec::with_capacity(1 << 16),
        })
    }

    /// Send `request` in one write and read its response.
    pub fn exchange(&mut self, request: &[u8]) -> io::Result<Exchange> {
        let sent = now();
        self.stream.write_all(request)?;
        let written = now();
        let mut first_byte = None;
        let mut chunk = [0u8; 1 << 16];
        loop {
            if let Some((response, used)) = parse_response(&self.buf)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?
            {
                self.buf.drain(..used);
                let last_byte = now();
                return Ok(Exchange {
                    response,
                    sent,
                    written,
                    first_byte: first_byte.unwrap_or(last_byte),
                    last_byte,
                });
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection mid-response",
                ));
            }
            first_byte.get_or_insert_with(now);
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RESPONSE: &[u8] = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
        X-Atena-Cache: hit\r\nContent-Length: 11\r\nConnection: keep-alive\r\n\r\n{\"ok\":true}";

    #[test]
    fn frames_a_response_split_across_reads() {
        for split in 1..RESPONSE.len() {
            let mut buf = RESPONSE[..split].to_vec();
            assert_eq!(parse_response(&buf).unwrap(), None, "complete at {split}");
            buf.extend_from_slice(&RESPONSE[split..]);
            let (response, used) = parse_response(&buf).unwrap().unwrap();
            assert_eq!(used, RESPONSE.len());
            assert_eq!(response.status, 200);
            assert_eq!(response.header("x-atena-cache"), Some("hit"));
            assert_eq!(response.body, b"{\"ok\":true}");
        }
    }

    #[test]
    fn leaves_the_next_response_in_the_buffer() {
        let mut buf = RESPONSE.to_vec();
        buf.extend_from_slice(&RESPONSE[..20]);
        let (_, used) = parse_response(&buf).unwrap().unwrap();
        assert_eq!(used, RESPONSE.len());
        assert_eq!(parse_response(&buf[used..]).unwrap(), None);
    }

    #[test]
    fn rejects_unframed_and_malformed_responses() {
        assert!(parse_response(b"HTTP/1.1 200 OK\r\nX: y\r\n\r\n").is_err());
        assert!(parse_response(b"garbage\r\n\r\n").is_err());
        assert!(parse_response(b"HTTP/1.1 abc OK\r\nContent-Length: 0\r\n\r\n").is_err());
    }

    #[test]
    fn request_is_one_buffer_with_its_length() {
        let bytes = request_bytes("POST", "/v1/notebook", &[("X-A", "b")], b"{}");
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("POST /v1/notebook HTTP/1.1\r\n"));
        assert!(text.contains("X-A: b\r\n"));
        assert!(text.ends_with("Content-Length: 2\r\n\r\n{}"));
    }
}
