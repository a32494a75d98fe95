//! Minimal hand-rolled HTTP/1.1 request/response handling.
//!
//! Supports exactly what the analytics server and its load generator
//! need: `GET`/`POST` with headers, `Content-Length` bodies, query
//! strings with percent-decoding, and keep-alive. No chunked encoding,
//! no TLS, no HTTP/2 — requests that need those get a clean 4xx/5xx
//! instead of undefined behavior.

use std::io::{BufRead, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Maximum accepted size of the request line plus all headers.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// One parsed request.
#[derive(Clone, Debug)]
pub struct Request {
    pub method: String,
    /// Percent-decoded path without the query string, e.g. `/v1/yeast/stats`.
    pub path: String,
    /// Decoded `key=value` pairs from the query string, in order.
    pub query: Vec<(String, String)>,
    /// Raw header `(name, value)` pairs, names lower-cased.
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Request {
    /// First query parameter named `key`.
    pub fn param(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Header value by case-insensitive name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Did the client ask to close the connection after this exchange?
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Why a request could not be parsed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HttpError {
    /// No bytes arrived before the socket read timeout; the connection
    /// is idle between keep-alive requests. Not an error condition —
    /// the server uses it to poll its shutdown flag.
    Idle,
    /// The peer closed the connection cleanly between requests.
    Eof,
    /// Malformed or oversized input; carries the status to answer with.
    Bad { status: u16, message: String },
    /// Underlying transport failure; the connection is unusable.
    Io(String),
}

impl HttpError {
    fn bad(status: u16, message: impl Into<String>) -> Self {
        HttpError::Bad {
            status,
            message: message.into(),
        }
    }
}

/// Decode `%XX` escapes and `+` (as space) in a URL component.
pub fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' if i + 2 < bytes.len() => {
                let hex = |b: u8| -> Option<u8> {
                    match b {
                        b'0'..=b'9' => Some(b - b'0'),
                        b'a'..=b'f' => Some(b - b'a' + 10),
                        b'A'..=b'F' => Some(b - b'A' + 10),
                        _ => None,
                    }
                };
                match (hex(bytes[i + 1]), hex(bytes[i + 2])) {
                    (Some(h), Some(l)) => {
                        out.push(h << 4 | l);
                        i += 3;
                    }
                    _ => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Split a request target into (decoded path, decoded query pairs).
pub fn split_target(target: &str) -> (String, Vec<(String, String)>) {
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let pairs = query
        .split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(kv), String::new()),
        })
        .collect();
    (percent_decode(path), pairs)
}

/// Outcome of parsing one request out of a connection's accumulated
/// read buffer ([`parse_request_bytes`]).
#[derive(Clone, Debug)]
pub enum ParseOutcome {
    /// A complete request, plus the number of buffer bytes it consumed
    /// (head and body); the caller advances its buffer by that much.
    Complete(Request, usize),
    /// Only a prefix has arrived; read more bytes and parse again.
    Partial,
    /// Malformed or oversized input; answer `status` and close.
    Error { status: u16, message: String },
}

/// Parse one request from the front of `buf` without consuming input —
/// the nonblocking twin of [`read_request`], sharing its grammar and
/// status mapping (400 malformed, 431 oversized head, 413 oversized
/// body, 505 bad version). The buffer may hold a partial request
/// ([`ParseOutcome::Partial`]) or several pipelined ones: callers loop,
/// advancing by the consumed count of each [`ParseOutcome::Complete`].
pub fn parse_request_bytes(buf: &[u8], max_body: usize) -> ParseOutcome {
    let bad = |status: u16, message: String| ParseOutcome::Error { status, message };
    let mut pos = 0usize;
    let mut request_line: Option<(String, String)> = None; // (method, target)
    let mut headers: Vec<(String, String)> = Vec::new();
    let mut head_complete = false;
    while let Some(nl) = buf[pos..].iter().position(|&b| b == b'\n') {
        let line_end = pos + nl;
        let mut line = &buf[pos..line_end];
        if line.last() == Some(&b'\r') {
            line = &line[..line.len() - 1];
        }
        pos = line_end + 1;
        let text = String::from_utf8_lossy(line);
        if request_line.is_none() {
            // Validate the request line eagerly, in the same order as
            // the blocking reader (505 beats any later header error).
            let mut parts = text.split_whitespace();
            let Some(method) = parts.next() else {
                return bad(400, "empty request line".to_string());
            };
            let Some(target) = parts.next() else {
                return bad(400, "missing request target".to_string());
            };
            let version = parts.next().unwrap_or("HTTP/1.1");
            if !version.starts_with("HTTP/1.") {
                return bad(505, format!("unsupported {version}"));
            }
            request_line = Some((method.to_string(), target.to_string()));
            continue;
        }
        if line.is_empty() {
            head_complete = true;
            break;
        }
        if pos > MAX_HEAD_BYTES {
            return bad(431, "headers too large".to_string());
        }
        let Some((name, value)) = text.split_once(':') else {
            return bad(400, format!("malformed header `{text}`"));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    if !head_complete {
        // No blank line yet: either keep reading or reject a head that
        // can no longer fit under the cap.
        if buf.len() > MAX_HEAD_BYTES {
            return bad(431, "headers too large".to_string());
        }
        return ParseOutcome::Partial;
    }
    let (method, target) = request_line.expect("head_complete implies a request line");

    let content_length: usize = match headers.iter().find(|(k, _)| k == "content-length") {
        Some((_, v)) => match v.parse() {
            Ok(n) => n,
            Err(_) => return bad(400, format!("bad content-length `{v}`")),
        },
        None => 0,
    };
    if content_length > max_body {
        return bad(
            413,
            format!("body of {content_length} bytes exceeds limit {max_body}"),
        );
    }
    if buf.len() < pos + content_length {
        return ParseOutcome::Partial;
    }
    let body = buf[pos..pos + content_length].to_vec();
    let (path, query) = split_target(&target);
    ParseOutcome::Complete(
        Request {
            method,
            path,
            query,
            headers,
            body,
        },
        pos + content_length,
    )
}

/// Read one request from `reader`.
///
/// Distinguishes a clean close ([`HttpError::Eof`]), an idle timeout
/// with no bytes read ([`HttpError::Idle`]), malformed input
/// ([`HttpError::Bad`]), and transport errors ([`HttpError::Io`]).
///
/// `head_timeout` bounds the wall-clock time between the first byte of
/// the request head and its final blank line (slow-loris protection):
/// a peer that trickles bytes slower than that gets a 408. The clock
/// only starts once at least one byte has arrived — a connection idle
/// *between* requests still surfaces as [`HttpError::Idle`] forever.
pub fn read_request(
    reader: &mut impl BufRead,
    max_body: usize,
    head_timeout: Duration,
) -> Result<Request, HttpError> {
    let mut head_started: Option<Instant> = None;
    let mut line = String::new();
    match read_line_crlf(reader, &mut line, true, &mut head_started, head_timeout) {
        Ok(0) => return Err(HttpError::Eof),
        Ok(_) => {}
        Err(e) => return Err(e),
    }
    head_started.get_or_insert_with(Instant::now);
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpError::bad(400, "empty request line"))?
        .to_string();
    let target = parts
        .next()
        .ok_or_else(|| HttpError::bad(400, "missing request target"))?
        .to_string();
    let version = parts.next().unwrap_or("HTTP/1.1");
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::bad(505, format!("unsupported {version}")));
    }

    let mut headers = Vec::new();
    let mut head_bytes = line.len();
    loop {
        let mut h = String::new();
        match read_line_crlf(reader, &mut h, false, &mut head_started, head_timeout) {
            Ok(0) => return Err(HttpError::bad(400, "truncated headers")),
            Ok(n) => head_bytes += n,
            Err(e) => return Err(e),
        }
        if h.is_empty() {
            break;
        }
        if head_bytes > MAX_HEAD_BYTES {
            return Err(HttpError::bad(431, "headers too large"));
        }
        let (name, value) = h
            .split_once(':')
            .ok_or_else(|| HttpError::bad(400, format!("malformed header `{h}`")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let content_length: usize = match headers.iter().find(|(k, _)| k == "content-length") {
        Some((_, v)) => v
            .parse()
            .map_err(|_| HttpError::bad(400, format!("bad content-length `{v}`")))?,
        None => 0,
    };
    if content_length > max_body {
        return Err(HttpError::bad(
            413,
            format!("body of {content_length} bytes exceeds limit {max_body}"),
        ));
    }
    let mut body = vec![0u8; content_length];
    if content_length > 0 {
        std::io::Read::read_exact(reader, &mut body)
            .map_err(|e| HttpError::Io(format!("reading body: {e}")))?;
    }

    let (path, query) = split_target(&target);
    Ok(Request {
        method,
        path,
        query,
        headers,
        body,
    })
}

/// Read one `\r\n`- (or `\n`-) terminated line into `buf`, stripped.
/// Returns the number of raw bytes consumed; 0 means EOF before any
/// byte. `first_line` maps a timeout with *no head bytes at all* to
/// [`HttpError::Idle`]; once any byte has arrived, `head_started` is
/// stamped and further stalls are judged against `head_timeout`.
fn read_line_crlf(
    reader: &mut impl BufRead,
    buf: &mut String,
    first_line: bool,
    head_started: &mut Option<Instant>,
    head_timeout: Duration,
) -> Result<usize, HttpError> {
    let mut raw = Vec::new();
    loop {
        match reader.read_until(b'\n', &mut raw) {
            Ok(0) => {
                if raw.is_empty() {
                    return Ok(0);
                }
                return Err(HttpError::bad(400, "truncated line"));
            }
            Ok(_) => {
                if raw.last() == Some(&b'\n') {
                    break;
                }
                // Partial line: the head has begun; start its clock.
                head_started.get_or_insert_with(Instant::now);
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if first_line && raw.is_empty() && head_started.is_none() {
                    return Err(HttpError::Idle);
                }
                // Mid-request stall: keep waiting, but only up to the
                // head timeout — a trickling peer must not pin a worker.
                let started = head_started.get_or_insert_with(Instant::now);
                if started.elapsed() >= head_timeout {
                    return Err(HttpError::bad(408, "request header read timed out"));
                }
                continue;
            }
            Err(e) => return Err(HttpError::Io(e.to_string())),
        }
    }
    let n = raw.len();
    while raw.last() == Some(&b'\n') || raw.last() == Some(&b'\r') {
        raw.pop();
    }
    *buf = String::from_utf8_lossy(&raw).into_owned();
    Ok(n)
}

/// Canonical reason phrase for the statuses this server emits.
pub fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

/// One response, written with `Content-Length` framing.
#[derive(Clone, Debug)]
pub struct Response {
    pub status: u16,
    pub content_type: &'static str,
    /// Shared so a cached answer is written out without a copy: a cache
    /// hit's body is the cache's own allocation.
    pub body: Arc<String>,
    /// When set, emitted as a `Retry-After: <seconds>` header — used by
    /// the 503 shed path so well-behaved clients back off.
    pub retry_after: Option<u32>,
    /// Additional response headers, e.g. `X-Trace-Id`. Names must be
    /// valid header tokens; values must not contain CR/LF.
    pub extra_headers: Vec<(&'static str, String)>,
}

impl Response {
    pub fn json(status: u16, body: impl Into<Arc<String>>) -> Self {
        Response {
            status,
            content_type: "application/json",
            body: body.into(),
            retry_after: None,
            extra_headers: Vec::new(),
        }
    }

    pub fn text(status: u16, body: String) -> Self {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: Arc::new(body),
            retry_after: None,
            extra_headers: Vec::new(),
        }
    }

    /// Attach a `Retry-After: <seconds>` header.
    pub fn with_retry_after(mut self, seconds: u32) -> Self {
        self.retry_after = Some(seconds);
        self
    }

    /// Attach an arbitrary response header (e.g. `X-Trace-Id`).
    pub fn with_header(mut self, name: &'static str, value: String) -> Self {
        self.extra_headers.push((name, value));
        self
    }

    /// JSON error envelope: `{"error":"..."}`.
    pub fn error(status: u16, message: &str) -> Self {
        let mut body = String::from("{\"error\":");
        body.push_str(&hgobs::json::quote(message));
        body.push_str("}\n");
        Response::json(status, body)
    }

    /// Render the status line and header block (through the final blank
    /// line). One source of truth for both the blocking [`write_to`]
    /// path and the event loop's [`to_bytes`] chunks.
    ///
    /// [`write_to`]: Response::write_to
    /// [`to_bytes`]: Response::to_bytes
    fn head_string(&self, close: bool) -> String {
        use std::fmt::Write as _;
        let mut head = String::with_capacity(128);
        let _ = write!(
            head,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
            self.status,
            status_reason(self.status),
            self.content_type,
            self.body.len(),
            if close { "close" } else { "keep-alive" },
        );
        if let Some(seconds) = self.retry_after {
            let _ = write!(head, "Retry-After: {seconds}\r\n");
        }
        for (name, value) in &self.extra_headers {
            let _ = write!(head, "{name}: {value}\r\n");
        }
        head.push_str("\r\n");
        head
    }

    /// Serialize onto `w`. `close` controls the `Connection` header.
    pub fn write_to(&self, w: &mut impl Write, close: bool) -> std::io::Result<()> {
        w.write_all(self.head_string(close).as_bytes())?;
        w.write_all(self.body.as_bytes())?;
        w.flush()
    }

    /// Serialize into the event loop's two writeout chunks: the rendered
    /// head and the shared body, which is not copied.
    pub fn to_bytes(&self, close: bool) -> (Vec<u8>, Arc<String>) {
        (self.head_string(close).into_bytes(), Arc::clone(&self.body))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<Request, HttpError> {
        read_request(
            &mut BufReader::new(raw.as_bytes()),
            1024,
            Duration::from_secs(5),
        )
    }

    #[test]
    fn parses_get_with_query() {
        let r = parse("GET /v1/yeast/kcore?k=3&x=a%20b HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/v1/yeast/kcore");
        assert_eq!(r.param("k"), Some("3"));
        assert_eq!(r.param("x"), Some("a b"));
        assert_eq!(r.header("host"), Some("x"));
        assert!(!r.wants_close());
    }

    #[test]
    fn parses_post_body_by_content_length() {
        let r =
            parse("POST /datasets?name=t HTTP/1.1\r\nContent-Length: 7\r\n\r\n2 2\n1 2").unwrap();
        assert_eq!(r.method, "POST");
        assert_eq!(std::str::from_utf8(&r.body).unwrap(), "2 2\n1 2");
    }

    #[test]
    fn connection_close_detected_case_insensitively() {
        let r = parse("GET / HTTP/1.1\r\nConnection: Close\r\n\r\n").unwrap();
        assert!(r.wants_close());
    }

    #[test]
    fn eof_and_errors() {
        assert_eq!(parse("").unwrap_err(), HttpError::Eof);
        assert!(matches!(
            parse("GET\r\n\r\n").unwrap_err(),
            HttpError::Bad { status: 400, .. }
        ));
        assert!(matches!(
            parse("GET / HTTP/2\r\n\r\n").unwrap_err(),
            HttpError::Bad { status: 505, .. }
        ));
        assert!(matches!(
            parse("GET / HTTP/1.1\r\nbogus\r\n\r\n").unwrap_err(),
            HttpError::Bad { status: 400, .. }
        ));
    }

    #[test]
    fn oversized_body_is_413() {
        let err = parse("POST / HTTP/1.1\r\nContent-Length: 9999\r\n\r\n").unwrap_err();
        assert!(matches!(err, HttpError::Bad { status: 413, .. }));
    }

    #[test]
    fn bare_lf_lines_accepted() {
        let r = parse("GET /healthz HTTP/1.1\nHost: y\n\n").unwrap();
        assert_eq!(r.path, "/healthz");
    }

    #[test]
    fn percent_decoding() {
        assert_eq!(percent_decode("a%2Fb+c%zz"), "a/b c%zz");
        let (path, q) = split_target("/x%20y?a=1&b&c=2");
        assert_eq!(path, "/x y");
        assert_eq!(
            q,
            vec![
                ("a".into(), "1".into()),
                ("b".into(), String::new()),
                ("c".into(), "2".into())
            ]
        );
    }

    #[test]
    fn response_serialization() {
        let mut out = Vec::new();
        Response::json(200, "{}".to_string())
            .write_to(&mut out, true)
            .unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(s.contains("Content-Length: 2\r\n"));
        assert!(s.contains("Connection: close\r\n"));
        assert!(!s.contains("Retry-After"));
        assert!(s.ends_with("\r\n\r\n{}"));
    }

    #[test]
    fn retry_after_header_emitted_before_body() {
        let mut out = Vec::new();
        Response::error(503, "overloaded")
            .with_retry_after(2)
            .write_to(&mut out, true)
            .unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.starts_with("HTTP/1.1 503 Service Unavailable\r\n"), "{s}");
        let (head, body) = s.split_once("\r\n\r\n").unwrap();
        assert!(head.contains("\r\nRetry-After: 2"), "{head}");
        assert!(body.contains("overloaded"), "{body}");
    }

    #[test]
    fn extra_headers_emitted_before_body() {
        let mut out = Vec::new();
        Response::json(200, "{}".to_string())
            .with_header("X-Trace-Id", "00000000deadbeef".into())
            .write_to(&mut out, false)
            .unwrap();
        let s = String::from_utf8(out).unwrap();
        let (head, _) = s.split_once("\r\n\r\n").unwrap();
        assert!(head.contains("\r\nX-Trace-Id: 00000000deadbeef"), "{head}");
    }

    #[test]
    fn new_status_reasons() {
        assert_eq!(status_reason(408), "Request Timeout");
        assert_eq!(status_reason(504), "Gateway Timeout");
    }

    /// Oracle check: the incremental parser must classify `raw` exactly
    /// like the blocking whole-stream reader does.
    fn assert_matches_oracle(raw: &str) {
        let oracle = parse(raw);
        match parse_request_bytes(raw.as_bytes(), 1024) {
            ParseOutcome::Complete(req, consumed) => {
                let expect = oracle.expect("oracle parsed");
                assert_eq!(req.method, expect.method, "{raw:?}");
                assert_eq!(req.path, expect.path, "{raw:?}");
                assert_eq!(req.query, expect.query, "{raw:?}");
                assert_eq!(req.headers, expect.headers, "{raw:?}");
                assert_eq!(req.body, expect.body, "{raw:?}");
                assert!(consumed <= raw.len(), "{raw:?}");
            }
            ParseOutcome::Error { status, .. } => {
                let err = oracle.expect_err("oracle rejected");
                match err {
                    HttpError::Bad { status: s, .. } => assert_eq!(status, s, "{raw:?}"),
                    other => panic!("oracle gave {other:?} for {raw:?}"),
                }
            }
            ParseOutcome::Partial => panic!("complete input parsed as partial: {raw:?}"),
        }
    }

    #[test]
    fn incremental_parser_agrees_with_blocking_reader() {
        for raw in [
            "GET /v1/yeast/kcore?k=3&x=a%20b HTTP/1.1\r\nHost: x\r\n\r\n",
            "POST /datasets?name=t HTTP/1.1\r\nContent-Length: 7\r\n\r\n2 2\n1 2",
            "GET / HTTP/1.1\r\nConnection: Close\r\n\r\n",
            "GET /healthz HTTP/1.1\nHost: y\n\n",
            "GET\r\n\r\n",
            "GET / HTTP/2\r\n\r\n",
            "GET / HTTP/2\r\nbogus\r\n\r\n",
            "GET / HTTP/1.1\r\nbogus\r\n\r\n",
            "POST / HTTP/1.1\r\nContent-Length: 9999\r\n\r\n",
            "POST / HTTP/1.1\r\nContent-Length: frogs\r\n\r\n",
        ] {
            assert_matches_oracle(raw);
        }
    }

    #[test]
    fn incremental_parser_every_byte_prefix_is_partial() {
        // Byte-at-a-time delivery: every strict prefix must come back
        // Partial (never a premature Complete or spurious Error), and
        // the full buffer must parse to the same request as the oracle.
        let raw = "POST /datasets?name=t HTTP/1.1\r\nContent-Length: 7\r\n\r\n2 2\n1 2";
        for cut in 0..raw.len() {
            match parse_request_bytes(&raw.as_bytes()[..cut], 1024) {
                ParseOutcome::Partial => {}
                other => panic!("prefix of {cut} bytes gave {other:?}"),
            }
        }
        assert_matches_oracle(raw);
    }

    #[test]
    fn incremental_parser_consumes_pipelined_requests_in_order() {
        let raw = "GET /healthz HTTP/1.1\r\n\r\nGET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n";
        let ParseOutcome::Complete(first, used) = parse_request_bytes(raw.as_bytes(), 1024) else {
            panic!("first request did not parse");
        };
        assert_eq!(first.path, "/healthz");
        let ParseOutcome::Complete(second, used2) =
            parse_request_bytes(&raw.as_bytes()[used..], 1024)
        else {
            panic!("second request did not parse");
        };
        assert_eq!(second.path, "/metrics");
        assert!(second.wants_close());
        assert_eq!(used + used2, raw.len());
    }

    #[test]
    fn incremental_parser_rejects_oversized_head_with_431() {
        // A header block that can no longer fit under MAX_HEAD_BYTES is
        // rejected even before the terminating blank line arrives, so a
        // slow-loris peer cannot grow the buffer without bound.
        let mut raw = String::from("GET / HTTP/1.1\r\n");
        while raw.len() <= MAX_HEAD_BYTES {
            raw.push_str("X-Pad: yyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyy\r\n");
        }
        match parse_request_bytes(raw.as_bytes(), 1024) {
            ParseOutcome::Error { status: 431, .. } => {}
            other => panic!("unterminated oversized head gave {other:?}"),
        }
        raw.push_str("\r\n");
        match parse_request_bytes(raw.as_bytes(), 1024) {
            ParseOutcome::Error { status: 431, .. } => {}
            other => panic!("terminated oversized head gave {other:?}"),
        }
        // The blocking reader agrees on the status.
        assert!(matches!(
            parse(&raw).unwrap_err(),
            HttpError::Bad { status: 431, .. }
        ));
    }

    #[test]
    fn response_to_bytes_matches_write_to() {
        for close in [true, false] {
            let resp = Response::json(200, "{\"ok\":true}\n".to_string())
                .with_retry_after(1)
                .with_header("X-Trace-Id", "0011223344556677".into());
            let mut blocking = Vec::new();
            resp.write_to(&mut blocking, close).unwrap();
            let (head, body) = resp.to_bytes(close);
            let mut chunked = head;
            chunked.extend_from_slice(body.as_bytes());
            assert_eq!(chunked, blocking);
        }
    }
}
