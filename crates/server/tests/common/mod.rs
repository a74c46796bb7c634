//! Fixtures and the one blocking HTTP/1.1 client shared by the server's
//! socket test binaries: every response they read goes through
//! [`read_response`] / [`try_parse_response`].

use atena_core::{train_policy_bundle, AtenaConfig, PolicyBundle, Strategy};
use atena_dataframe::{AttrRole, DataFrame};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A parsed response: status, headers (names lower-cased, values
/// trimmed), body.
pub type Response = (u16, Vec<(String, String)>, String);

/// The 60-row, two-column dataset every server test decodes against.
pub fn base() -> DataFrame {
    DataFrame::builder()
        .str(
            "proto",
            AttrRole::Categorical,
            (0..60).map(|i| Some(if i % 5 == 0 { "udp" } else { "tcp" })),
        )
        .int(
            "len",
            AttrRole::Numeric,
            (0..60).map(|i| Some((i * 13 % 31) as i64)),
        )
        .build()
        .unwrap()
}

/// A policy bundle for [`base`], trained for a few hundred steps.
pub fn tiny_bundle() -> PolicyBundle {
    let mut config = AtenaConfig::quick();
    config.train_steps = 300;
    config.probe_steps = 60;
    config.env.episode_len = 4;
    train_policy_bundle("tiny", base(), vec![], config, Strategy::Atena).unwrap()
}

/// Parse a complete `head + Content-Length body` response out of `bytes`.
/// The body is decoded only once all of its bytes are in, so a read that
/// ends inside a multi-byte character means "keep reading".
pub fn try_parse_response(bytes: &[u8]) -> Option<Response> {
    let head_len = bytes.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = String::from_utf8_lossy(&bytes[..head_len]);
    let mut lines = head.split("\r\n");
    let status: u16 = lines.next()?.split(' ').nth(1)?.parse().ok()?;
    let headers: Vec<(String, String)> = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(n, v)| (n.to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    let len: usize = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .and_then(|(_, v)| v.parse().ok())
        .unwrap_or(0);
    let body = bytes.get(head_len + 4..head_len + 4 + len)?;
    Some((status, headers, String::from_utf8_lossy(body).into_owned()))
}

/// Read exactly one response off `stream`. A close, reset or read
/// timeout before it is complete is an `Err` describing what arrived; a
/// reset after it (a server refusing an undrained body) is never seen.
pub fn read_response(stream: &mut TcpStream) -> Result<Response, String> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(parsed) = try_parse_response(&buf) {
            return Ok(parsed);
        }
        let cut = match stream.read(&mut chunk) {
            Ok(0) => "connection closed".to_string(),
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                continue;
            }
            Err(e) => format!("read error {e}"),
        };
        return Err(format!(
            "{cut} before a full response; got {:?}",
            String::from_utf8_lossy(&buf)
        ));
    }
}

/// Connect with a 20 s read timeout.
pub fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    stream
}

/// Write `raw` on a fresh connection and read one response. The server
/// may answer and reset before consuming the whole request (oversized
/// bodies), so a failed tail write is not an error.
pub fn try_request(addr: SocketAddr, raw: &[u8]) -> Result<Response, String> {
    let mut stream = connect(addr);
    let _ = stream.write_all(raw);
    read_response(&mut stream)
}

/// One blocking HTTP exchange on a fresh connection.
pub fn http_request(addr: SocketAddr, raw: &str) -> Response {
    try_request(addr, raw.as_bytes()).unwrap()
}

/// The raw bytes of one `Connection: close` request with arbitrary
/// method, target, extra headers, and body (`Content-Length` added for
/// body-bearing methods).
pub fn raw_request(method: &str, target: &str, headers: &[(&str, &str)], body: &str) -> String {
    let mut raw = format!("{method} {target} HTTP/1.1\r\nHost: t\r\n");
    for (n, v) in headers {
        raw.push_str(&format!("{n}: {v}\r\n"));
    }
    if !body.is_empty() || matches!(method, "POST" | "PUT") {
        raw.push_str(&format!("Content-Length: {}\r\n", body.len()));
    }
    raw.push_str("Connection: close\r\n\r\n");
    raw.push_str(body);
    raw
}

/// [`raw_request`] sent with [`http_request`].
pub fn request_with(
    addr: SocketAddr,
    method: &str,
    target: &str,
    headers: &[(&str, &str)],
    body: &str,
) -> Response {
    http_request(addr, &raw_request(method, target, headers, body))
}

/// The value of header `name` (lower-case).
pub fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

/// Fetch the `/v1/metrics` JSON document.
pub fn metrics(addr: SocketAddr) -> serde_json::Value {
    let (status, _, body) = request_with(addr, "GET", "/v1/metrics", &[], "");
    assert_eq!(status, 200, "{body}");
    serde_json::from_str(&body).unwrap()
}
