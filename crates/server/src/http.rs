//! HTTP/1.1 wire handling: just enough of RFC 9112 for the service —
//! request line + headers + `Content-Length` bodies in; fixed-length or
//! chunked responses out, with HTTP/1.1 keep-alive semantics.
//!
//! Requests are parsed **incrementally from a byte buffer**
//! ([`try_parse`]): the event loop appends whatever the socket had and
//! asks whether a complete request is buffered yet, so headers and bodies
//! split across TCP segments are handled without a worker ever blocking
//! on a slow sender, and several pipelined requests can sit in one buffer
//! back to back. Chunked *request* bodies remain unsupported (413-free
//! bounded parsing is the point of the `Content-Length` subset).

use std::fmt;
use std::io::{self, IoSlice, Write};
use std::sync::Arc;

use crate::json::Json;

/// Cap on one header line (request line included).
const MAX_HEADER_LINE: usize = 8 * 1024;
/// Cap on the number of headers.
const MAX_HEADERS: usize = 64;
/// Cap on a request body.
const MAX_BODY: usize = 16 * 1024 * 1024;

/// A parsed request.
#[derive(Clone, Debug)]
pub struct Request {
    /// Upper-case method (`GET`, `POST`, ...).
    pub method: String,
    /// The path component of the request target (query string stripped).
    pub path: String,
    /// HTTP minor version (`1` for `HTTP/1.1`); decides the keep-alive
    /// default.
    pub minor_version: u8,
    /// Header `(name, value)` pairs; names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The body, possibly empty.
    pub body: Vec<u8>,
}

impl Request {
    /// The first header with this (lower-case) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8, or `None` if it isn't valid UTF-8.
    pub fn body_utf8(&self) -> Option<&str> {
        std::str::from_utf8(&self.body).ok()
    }

    /// Whether the client asked for a plain-text rendering
    /// (`Accept: text/plain`).
    pub fn wants_text(&self) -> bool {
        self.header("accept")
            .is_some_and(|a| a.contains("text/plain"))
    }

    /// Whether the connection should stay open after this request:
    /// HTTP/1.1 defaults to keep-alive unless the client sent
    /// `Connection: close`; HTTP/1.0 defaults to close unless it sent
    /// `Connection: keep-alive`.
    pub fn wants_keep_alive(&self) -> bool {
        match self.header("connection") {
            Some(v) if v.to_ascii_lowercase().contains("close") => false,
            Some(v) if v.to_ascii_lowercase().contains("keep-alive") => true,
            _ => self.minor_version >= 1,
        }
    }
}

/// Errors while reading a request, split by the response they warrant.
#[derive(Debug)]
pub enum HttpError {
    /// Transport failure (timeout, reset) — no response possible/useful.
    Io(io::Error),
    /// Syntactically invalid request — respond 400.
    Malformed(String),
    /// A size cap was exceeded — respond 413.
    TooLarge(String),
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "i/o: {e}"),
            HttpError::Malformed(m) => write!(f, "malformed request: {m}"),
            HttpError::TooLarge(m) => write!(f, "request too large: {m}"),
        }
    }
}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// The outcome of `try_parse` on the bytes buffered so far.
#[derive(Debug)]
pub enum ParseStatus {
    /// A complete request, plus how many buffered bytes it consumed
    /// (the caller drains them; pipelined followers start right after).
    Complete(Request, usize),
    /// Not enough bytes yet — keep the buffer, wait for more.
    Partial,
}

/// Splits one header line out of `buf` starting at `pos`: returns the
/// line (CR stripped) and the offset just past its LF, or `None` if no
/// full line is buffered yet.
fn take_line(buf: &[u8], pos: usize) -> Result<Option<(&str, usize)>, HttpError> {
    let Some(nl) = buf[pos..].iter().position(|&b| b == b'\n') else {
        if buf.len() - pos > MAX_HEADER_LINE {
            return Err(HttpError::TooLarge("header line over 8 KiB".to_owned()));
        }
        return Ok(None);
    };
    let mut line = &buf[pos..pos + nl];
    if line.last() == Some(&b'\r') {
        line = &line[..line.len() - 1];
    }
    if line.len() > MAX_HEADER_LINE {
        return Err(HttpError::TooLarge("header line over 8 KiB".to_owned()));
    }
    let text = std::str::from_utf8(line)
        .map_err(|_| HttpError::Malformed("non-utf8 header".to_owned()))?;
    Ok(Some((text, pos + nl + 1)))
}

/// Attempts to parse one complete request from the front of `buf`.
///
/// `Partial` means the prefix seen so far is a valid *incomplete*
/// request; errors mean the prefix can never become valid (or blew a
/// cap) and the connection should answer 400/413 and close.
pub fn try_parse(buf: &[u8]) -> Result<ParseStatus, HttpError> {
    let Some((request_line, mut pos)) = take_line(buf, 0)? else {
        return Ok(ParseStatus::Partial);
    };
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => {
            return Err(HttpError::Malformed(format!(
                "bad request line: {request_line:?}"
            )))
        }
    };
    let minor_version = match version.strip_prefix("HTTP/1.") {
        Some(minor) => minor
            .parse::<u8>()
            .map_err(|_| HttpError::Malformed(format!("unsupported {version}")))?,
        None => return Err(HttpError::Malformed(format!("unsupported {version}"))),
    };
    let path = target.split('?').next().unwrap_or(target).to_owned();

    let mut headers = Vec::new();
    loop {
        let Some((line, next)) = take_line(buf, pos)? else {
            if buf.len() > MAX_HEADERS * MAX_HEADER_LINE {
                return Err(HttpError::TooLarge("header block too large".to_owned()));
            }
            return Ok(ParseStatus::Partial);
        };
        pos = next;
        if line.is_empty() {
            break;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::Malformed(format!("bad header: {line:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
        if headers.len() > MAX_HEADERS {
            return Err(HttpError::TooLarge("too many headers".to_owned()));
        }
    }

    let mut request = Request {
        method: method.to_owned(),
        path,
        minor_version,
        headers,
        body: Vec::new(),
    };
    if request
        .header("transfer-encoding")
        .is_some_and(|v| !v.eq_ignore_ascii_case("identity"))
    {
        return Err(HttpError::Malformed(
            "chunked transfer encoding not supported".to_owned(),
        ));
    }
    if let Some(len) = request.header("content-length") {
        let len: usize = len
            .parse()
            .map_err(|_| HttpError::Malformed(format!("bad content-length: {len:?}")))?;
        if len > MAX_BODY {
            return Err(HttpError::TooLarge(format!("body of {len} bytes")));
        }
        if buf.len() < pos + len {
            return Ok(ParseStatus::Partial);
        }
        request.body = buf[pos..pos + len].to_vec();
        pos += len;
    }
    Ok(ParseStatus::Complete(request, pos))
}

/// How large a buffered body-less response may grow before the handler
/// should have streamed it; also the per-segment target for streamed
/// bodies. Bounds per-connection memory on large answer sets.
pub const STREAM_SEGMENT_BYTES: usize = 64 * 1024;

/// A response body: fully materialized bytes, or a pull-based stream of
/// bounded segments written with chunked transfer-encoding.
pub enum Body {
    /// A fixed-length body (`Content-Length`).
    Bytes(Vec<u8>),
    /// A fixed-length body spliced from two parts, `prefix ++ shared`,
    /// so bytes shared with other responses (a cached rendering) go to
    /// the socket without being copied into a per-response buffer.
    Shared {
        /// Bytes built for this response.
        prefix: Vec<u8>,
        /// Bytes shared with other responses.
        shared: Arc<[u8]>,
    },
    /// A streamed body: each call yields the next segment (roughly
    /// `STREAM_SEGMENT_BYTES` each), `None` when exhausted. Written as
    /// chunked transfer-encoding, so the peer needs no length up front
    /// and the server never holds the full serialization in memory.
    Chunks(Box<dyn FnMut() -> Option<Vec<u8>> + Send>),
}

impl fmt::Debug for Body {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Body::Bytes(b) => f.debug_tuple("Bytes").field(&b.len()).finish(),
            Body::Shared { prefix, shared } => f
                .debug_tuple("Shared")
                .field(&(prefix.len() + shared.len()))
                .finish(),
            Body::Chunks(_) => f.write_str("Chunks(..)"),
        }
    }
}

/// A response about to be written.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// The body.
    pub body: Body,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: &Json) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: Body::Bytes(body.to_string().into_bytes()),
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: Body::Bytes(body.into_bytes()),
        }
    }

    /// A fixed-length response whose body is `prefix ++ shared`; see
    /// [`Body::Shared`].
    pub fn shared(
        status: u16,
        content_type: &'static str,
        prefix: Vec<u8>,
        shared: Arc<[u8]>,
    ) -> Response {
        Response {
            status,
            content_type,
            body: Body::Shared { prefix, shared },
        }
    }

    /// A streamed response (chunked transfer-encoding); see
    /// [`Body::Chunks`].
    pub fn streamed(
        status: u16,
        content_type: &'static str,
        next: Box<dyn FnMut() -> Option<Vec<u8>> + Send>,
    ) -> Response {
        Response {
            status,
            content_type,
            body: Body::Chunks(next),
        }
    }

    /// The standard `{"error": message}` body.
    pub fn error(status: u16, message: impl Into<String>) -> Response {
        Response::json(
            status,
            &Json::Obj(vec![("error".to_owned(), Json::Str(message.into()))]),
        )
    }

    /// Materializes the body (draining a stream), for tests and clients
    /// that want the bytes regardless of framing.
    pub fn into_body_bytes(self) -> Vec<u8> {
        match self.body {
            Body::Bytes(b) => b,
            Body::Shared { mut prefix, shared } => {
                prefix.extend_from_slice(&shared);
                prefix
            }
            Body::Chunks(mut next) => {
                let mut out = Vec::new();
                while let Some(seg) = next() {
                    out.extend_from_slice(&seg);
                }
                out
            }
        }
    }

    /// Serializes the response. `close` controls the `Connection` header
    /// (the caller owns the keep-alive decision). Returns the number of
    /// **body** bytes written (headers and chunk framing excluded), for
    /// the bytes-streamed counter.
    ///
    /// A fixed-length response is one vectored write of header and body.
    /// A streamed one is one vectored write per segment — chunk-size
    /// line, segment, CRLF — with the header riding on the first and the
    /// terminating zero-length chunk on the last, which takes one segment
    /// of look-ahead; nothing else is buffered.
    pub fn write_to(self, writer: &mut impl Write, close: bool) -> io::Result<u64> {
        let mut head = Vec::with_capacity(128);
        write!(
            head,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\n",
            self.status,
            reason(self.status),
            self.content_type,
        )?;
        let connection = if close { "close" } else { "keep-alive" };
        match self.body {
            Body::Bytes(body) => write_fixed(writer, head, connection, [&body, &[]]),
            Body::Shared { prefix, shared } => {
                write_fixed(writer, head, connection, [&prefix, &shared])
            }
            Body::Chunks(next) => {
                write!(
                    head,
                    "Transfer-Encoding: chunked\r\nConnection: {connection}\r\n\r\n"
                )?;
                write_chunked(writer, head, next)
            }
        }
    }
}

/// Writes a fixed-length body, the concatenation of `parts`, in one
/// vectored write with the header.
fn write_fixed(
    writer: &mut impl Write,
    mut head: Vec<u8>,
    connection: &str,
    parts: [&[u8]; 2],
) -> io::Result<u64> {
    let len: usize = parts.iter().map(|p| p.len()).sum();
    write!(
        head,
        "Content-Length: {len}\r\nConnection: {connection}\r\n\r\n"
    )?;
    let [prefix, shared] = parts.map(IoSlice::new);
    write_all_vectored(writer, &mut [IoSlice::new(&head), prefix, shared])?;
    writer.flush()?;
    Ok(len as u64)
}

/// Writes a chunked body, one vectored write per non-empty segment (an
/// empty chunk would terminate the body). `head` goes out with the first
/// write and `0\r\n\r\n` with the last.
fn write_chunked(
    writer: &mut impl Write,
    mut head: Vec<u8>,
    mut next: Box<dyn FnMut() -> Option<Vec<u8>> + Send>,
) -> io::Result<u64> {
    const TERMINATOR: &[u8] = b"0\r\n\r\n";
    let mut next_segment = || loop {
        match next() {
            Some(seg) if seg.is_empty() => continue,
            other => break other,
        }
    };
    let mut body_bytes = 0u64;
    let mut pending = next_segment();
    if pending.is_none() {
        write_all_vectored(writer, &mut [IoSlice::new(&head), IoSlice::new(TERMINATOR)])?;
    }
    while let Some(seg) = pending {
        pending = next_segment();
        let size_line = format!("{:x}\r\n", seg.len());
        let end: &[u8] = if pending.is_some() {
            b"\r\n"
        } else {
            b"\r\n0\r\n\r\n"
        };
        write_all_vectored(
            writer,
            &mut [
                IoSlice::new(&head),
                IoSlice::new(size_line.as_bytes()),
                IoSlice::new(&seg),
                IoSlice::new(end),
            ],
        )?;
        head.clear();
        body_bytes += seg.len() as u64;
    }
    writer.flush()?;
    Ok(body_bytes)
}

/// `write_all` over several buffers: repeated `write_vectored` calls,
/// advancing past whatever a partial write consumed.
fn write_all_vectored(writer: &mut impl Write, mut bufs: &mut [IoSlice<'_>]) -> io::Result<()> {
    IoSlice::advance_slices(&mut bufs, 0);
    while !bufs.is_empty() {
        match writer.write_vectored(bufs) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "failed to write whole response",
                ))
            }
            Ok(n) => IoSlice::advance_slices(&mut bufs, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// The reason phrase for the status codes this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(raw: &str) -> Result<ParseStatus, HttpError> {
        try_parse(raw.as_bytes())
    }

    fn complete(raw: &str) -> (Request, usize) {
        match parse(raw).expect("parses") {
            ParseStatus::Complete(req, used) => (req, used),
            ParseStatus::Partial => panic!("unexpectedly partial: {raw:?}"),
        }
    }

    #[test]
    fn parses_post_with_body() {
        let (req, used) =
            complete("POST /eval?verbose=1 HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nbody");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/eval");
        assert_eq!(req.minor_version, 1);
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"body");
        assert_eq!(
            used,
            "POST /eval?verbose=1 HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nbody".len()
        );
    }

    #[test]
    fn parses_get_without_body_and_bare_lf() {
        let (req, _) = complete("GET /stats HTTP/1.1\nAccept: text/plain\n\n");
        assert_eq!(req.method, "GET");
        assert!(req.wants_text());
        assert!(req.body.is_empty());
    }

    #[test]
    fn incremental_prefixes_are_partial() {
        // Every proper prefix of a valid request parses as Partial —
        // headers and bodies split across TCP segments are never errors.
        let full = "POST /eval HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody";
        for cut in 0..full.len() {
            assert!(
                matches!(parse(&full[..cut]), Ok(ParseStatus::Partial)),
                "prefix of {cut} bytes must be partial"
            );
        }
        let (req, used) = complete(full);
        assert_eq!(used, full.len());
        assert_eq!(req.body, b"body");
    }

    #[test]
    fn pipelined_requests_consume_exactly_one() {
        let two = "GET /stats HTTP/1.1\r\n\r\nGET /other HTTP/1.1\r\n\r\n";
        let (first, used) = complete(two);
        assert_eq!(first.path, "/stats");
        let (second, used2) = complete(&two[used..]);
        assert_eq!(second.path, "/other");
        assert_eq!(used + used2, two.len());
    }

    #[test]
    fn keep_alive_defaults_follow_version() {
        let (req, _) = complete("GET / HTTP/1.1\r\n\r\n");
        assert!(req.wants_keep_alive(), "1.1 defaults to keep-alive");
        let (req, _) = complete("GET / HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(!req.wants_keep_alive());
        let (req, _) = complete("GET / HTTP/1.0\r\n\r\n");
        assert!(!req.wants_keep_alive(), "1.0 defaults to close");
        let (req, _) = complete("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
        assert!(req.wants_keep_alive());
    }

    #[test]
    fn rejects_malformed() {
        assert!(matches!(
            parse("NOT-HTTP\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse("GET / HTTP/2.0\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nContent-Length: nan\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n"),
            Err(HttpError::TooLarge(_))
        ));
    }

    #[test]
    fn oversized_lines_and_header_blocks_are_413() {
        let long = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(MAX_HEADER_LINE + 1));
        assert!(matches!(parse(&long), Err(HttpError::TooLarge(_))));
        // A line over the cap with no newline yet must fail early, not
        // buffer forever.
        let unterminated = "G".repeat(MAX_HEADER_LINE + 2);
        assert!(matches!(parse(&unterminated), Err(HttpError::TooLarge(_))));
        let many = format!(
            "GET / HTTP/1.1\r\n{}\r\n",
            "H: v\r\n".repeat(MAX_HEADERS + 1)
        );
        assert!(matches!(parse(&many), Err(HttpError::TooLarge(_))));
    }

    #[test]
    fn truncated_body_is_partial_not_error() {
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort"),
            Ok(ParseStatus::Partial)
        ));
    }

    /// A `Write` that counts its write calls and accepts at most
    /// `max_per_call` bytes per call (partial writes).
    struct CountingWriter {
        out: Vec<u8>,
        writes: usize,
        max_per_call: usize,
    }

    impl CountingWriter {
        fn new(max_per_call: usize) -> CountingWriter {
            CountingWriter {
                out: Vec::new(),
                writes: 0,
                max_per_call,
            }
        }
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.writes += 1;
            let mut budget = self.max_per_call;
            for buf in bufs {
                let take = buf.len().min(budget);
                self.out.extend_from_slice(&buf[..take]);
                budget -= take;
            }
            Ok(self.max_per_call - budget)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Writes `make()` whole and in 7-byte partial writes: both must put
    /// `expected` on the wire, the whole one in `writes` calls. Returns
    /// the body byte count `write_to` reported.
    fn assert_wire(make: impl Fn() -> Response, close: bool, expected: &str, writes: usize) -> u64 {
        let mut whole = CountingWriter::new(usize::MAX);
        let body_bytes = make().write_to(&mut whole, close).expect("writes");
        assert_eq!(String::from_utf8(whole.out).expect("utf8"), expected);
        assert_eq!(whole.writes, writes, "write calls for {expected:?}");
        let mut partial = CountingWriter::new(7);
        make().write_to(&mut partial, close).expect("writes");
        assert_eq!(String::from_utf8(partial.out).expect("utf8"), expected);
        body_bytes
    }

    #[test]
    fn response_serializes_with_length_and_connection() {
        // Each buffered response is one write call, in this framing.
        let n = assert_wire(
            || Response::text(200, "hi\n".to_owned()),
            true,
            "HTTP/1.1 200 OK\r\nContent-Type: text/plain; charset=utf-8\r\n\
             Content-Length: 3\r\nConnection: close\r\n\r\nhi\n",
            1,
        );
        assert_eq!(n, 3);
        assert_wire(
            || Response::text(200, "hi\n".to_owned()),
            false,
            "HTTP/1.1 200 OK\r\nContent-Type: text/plain; charset=utf-8\r\n\
             Content-Length: 3\r\nConnection: keep-alive\r\n\r\nhi\n",
            1,
        );
        assert_wire(
            || Response::error(404, "no route /x"),
            true,
            "HTTP/1.1 404 Not Found\r\nContent-Type: application/json\r\n\
             Content-Length: 23\r\nConnection: close\r\n\r\n{\"error\":\"no route /x\"}",
            1,
        );
        assert_wire(
            || Response::text(200, String::new()),
            false,
            "HTTP/1.1 200 OK\r\nContent-Type: text/plain; charset=utf-8\r\n\
             Content-Length: 0\r\nConnection: keep-alive\r\n\r\n",
            1,
        );
        // A spliced body (a cached empty /eval result) frames exactly
        // like the same bytes in one buffer.
        let rows: Arc<[u8]> = Arc::from(&b"\"results\":[\"(empty result)\"]}"[..]);
        let n = assert_wire(
            || {
                Response::shared(
                    200,
                    "application/json",
                    b"{\"rows\":0,".to_vec(),
                    Arc::clone(&rows),
                )
            },
            false,
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
             Content-Length: 39\r\nConnection: keep-alive\r\n\r\n\
             {\"rows\":0,\"results\":[\"(empty result)\"]}",
            1,
        );
        assert_eq!(n, 39);
    }

    #[test]
    fn chunked_body_frames_segments() {
        let stream = |segments: &[&'static [u8]]| {
            let mut segments: Vec<Vec<u8>> = segments.iter().rev().map(|s| s.to_vec()).collect();
            Response::streamed(
                200,
                "text/plain; charset=utf-8",
                Box::new(move || segments.pop()),
            )
        };
        let head = "HTTP/1.1 200 OK\r\nContent-Type: text/plain; charset=utf-8\r\n\
                    Transfer-Encoding: chunked\r\nConnection: keep-alive\r\n\r\n";
        // One write call per non-empty segment (an empty one is skipped),
        // the header on the first and the terminator on the last.
        let n = assert_wire(
            || stream(&[b"hello ", b"", b"world"]),
            false,
            &format!("{head}6\r\nhello \r\n5\r\nworld\r\n0\r\n\r\n"),
            2,
        );
        assert_eq!(n, 11);
        assert_wire(
            || stream(&[b"one"]),
            false,
            &format!("{head}3\r\none\r\n0\r\n\r\n"),
            1,
        );
        // An empty stream is the header plus the terminator.
        assert_wire(|| stream(&[]), false, &format!("{head}0\r\n\r\n"), 1);
    }

    #[test]
    fn into_body_bytes_drains_streams() {
        let mut segments = vec![b"b".to_vec(), b"a".to_vec()];
        let resp = Response::streamed(200, "text/plain", Box::new(move || segments.pop()));
        assert_eq!(resp.into_body_bytes(), b"ab");
    }

    #[test]
    fn error_body_is_json() {
        let resp = Response::error(400, "nope");
        assert_eq!(resp.status, 400);
        let body = String::from_utf8(resp.into_body_bytes()).expect("utf8");
        let j = Json::parse(&body).expect("json");
        assert_eq!(j.get("error").and_then(Json::as_str), Some("nope"));
    }
}
