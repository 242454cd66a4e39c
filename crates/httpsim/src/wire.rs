//! HTTP/1.1 wire serialization.
//!
//! Write-only. The MITM proxy charges each exchange its exact wire size
//! ([`request_wire_len`], [`response_wire_len`], computed without
//! serializing) in its `bytes=` journal events; the serializers produce
//! those bytes for inspection and as the oracle the lengths must equal.
//! Nothing parses wire bytes back. The proxy records structured
//! [`Request`]s, and detection builds its text from them
//! (`analysis::leaks::scan_text_of`), as mitmproxy hands its addons
//! parsed flows. The one decoder kept is [`dechunk_body`]: the
//! fault-injection layer ([`crate::degrade`]) uses it to judge whether a
//! damaged chunked body still frames.

use crate::headers::HeaderMap;
use crate::message::{Request, Response};

/// Error from [`dechunk_body`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// A chunk was shorter than its declared size.
    Truncated,
    /// A chunk size line or chunk terminator failed to parse.
    BadChunk,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => f.write_str("truncated body"),
            WireError::BadChunk => f.write_str("bad chunk framing"),
        }
    }
}

impl std::error::Error for WireError {}

/// Chunk size used when a response declares `Transfer-Encoding: chunked`.
pub const CHUNK_SIZE: usize = 1024;

/// Serialize a request to HTTP/1.1 wire bytes (origin-form target).
pub fn serialize_request(req: &Request) -> Vec<u8> {
    let mut buf = Vec::with_capacity(request_wire_len(req));
    serialize_request_into(req, &mut buf);
    buf
}

/// Append a request's wire bytes to `buf` (pooled-buffer entry point;
/// the caller owns clearing). Appends exactly [`request_wire_len`] bytes.
pub fn serialize_request_into(req: &Request, buf: &mut Vec<u8>) {
    buf.extend_from_slice(req.method.as_str().as_bytes());
    buf.push(b' ');
    buf.extend_from_slice(req.url.request_target().as_bytes());
    buf.push(b' ');
    buf.extend_from_slice(req.version.as_str().as_bytes());
    buf.extend_from_slice(b"\r\n");
    put_headers(buf, &req.headers);
    buf.extend_from_slice(b"\r\n");
    buf.extend_from_slice(&req.body.bytes);
}

/// Serialize a response to HTTP/1.1 wire bytes.
pub fn serialize_response(resp: &Response) -> Vec<u8> {
    let mut buf = Vec::with_capacity(response_wire_len(resp));
    serialize_response_into(resp, &mut buf);
    buf
}

/// Append a response's wire bytes to `buf`. Appends exactly
/// [`response_wire_len`] bytes; chunked framing is written in place
/// (no intermediate chunk buffer).
pub fn serialize_response_into(resp: &Response, buf: &mut Vec<u8>) {
    buf.extend_from_slice(resp.version.as_str().as_bytes());
    buf.push(b' ');
    buf.extend_from_slice(resp.status.0.to_string().as_bytes());
    buf.push(b' ');
    buf.extend_from_slice(resp.status.reason().as_bytes());
    buf.extend_from_slice(b"\r\n");
    put_headers(buf, &resp.headers);
    buf.extend_from_slice(b"\r\n");
    if is_chunked(&resp.headers) {
        chunk_body_into(&resp.body.bytes, CHUNK_SIZE, buf);
    } else {
        buf.extend_from_slice(&resp.body.bytes);
    }
}

/// Exact length of [`serialize_request`]'s output, computed without
/// serializing. The MITM proxy logs per-exchange `bytes=` figures that
/// are pinned by trace goldens; this must equal the serialized length
/// to the byte (the differential suite proves it).
pub fn request_wire_len(req: &Request) -> usize {
    req.method.as_str().len()
        + 1
        + req.url.request_target().len()
        + 1
        + req.version.as_str().len()
        + 2
        + headers_wire_len(&req.headers)
        + 2
        + req.body.len()
}

/// Exact length of [`serialize_response`]'s output, computed without
/// serializing (chunked framing included).
pub fn response_wire_len(resp: &Response) -> usize {
    let body = if is_chunked(&resp.headers) {
        chunked_wire_len(resp.body.len(), CHUNK_SIZE)
    } else {
        resp.body.len()
    };
    resp.version.as_str().len()
        + 1
        + decimal_digits(resp.status.0 as usize)
        + 1
        + resp.status.reason().len()
        + 2
        + headers_wire_len(&resp.headers)
        + 2
        + body
}

fn is_chunked(headers: &HeaderMap) -> bool {
    headers
        .get("Transfer-Encoding")
        .is_some_and(|te| te.eq_ignore_ascii_case("chunked"))
}

fn headers_wire_len(headers: &HeaderMap) -> usize {
    headers.iter().map(|(n, v)| n.len() + 2 + v.len() + 2).sum()
}

/// Exact length of [`chunk_body`]'s framing for a body of `body_len`
/// bytes: per chunk `hex_digits(len) + 2 + len + 2`, plus the 5-byte
/// `0\r\n\r\n` terminator.
pub fn chunked_wire_len(body_len: usize, chunk_size: usize) -> usize {
    let chunk_size = chunk_size.max(1);
    let full = body_len / chunk_size;
    let rem = body_len % chunk_size;
    let mut n = full * (hex_digits(chunk_size) + 4 + chunk_size);
    if rem > 0 {
        n += hex_digits(rem) + 4 + rem;
    }
    n + 5
}

fn hex_digits(n: usize) -> usize {
    if n == 0 {
        1
    } else {
        ((usize::BITS - n.leading_zeros()).div_ceil(4)) as usize
    }
}

fn decimal_digits(mut n: usize) -> usize {
    let mut d = 1;
    while n >= 10 {
        n /= 10;
        d += 1;
    }
    d
}

fn put_headers(buf: &mut Vec<u8>, headers: &HeaderMap) {
    for (n, v) in headers.iter() {
        buf.extend_from_slice(n.as_bytes());
        buf.extend_from_slice(b": ");
        buf.extend_from_slice(v.as_bytes());
        buf.extend_from_slice(b"\r\n");
    }
}

/// Frame `body` as chunked transfer encoding with the given chunk size.
pub fn chunk_body(body: &[u8], chunk_size: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(chunked_wire_len(body.len(), chunk_size));
    chunk_body_into(body, chunk_size, &mut out);
    out
}

/// Append chunked framing for `body` to `out`, with no intermediate
/// allocation per chunk.
pub fn chunk_body_into(body: &[u8], chunk_size: usize, out: &mut Vec<u8>) {
    let chunk_size = chunk_size.max(1);
    for chunk in body.chunks(chunk_size) {
        push_hex(chunk.len(), out);
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(chunk);
        out.extend_from_slice(b"\r\n");
    }
    out.extend_from_slice(b"0\r\n\r\n");
}

/// Append `n` as lowercase hex (a chunk-size line), bypassing `fmt` —
/// this runs once per chunk on the origin's serialization path.
fn push_hex(mut n: usize, out: &mut Vec<u8>) {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut buf = [0u8; 2 * std::mem::size_of::<usize>()];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = DIGITS[n & 0xf];
        n >>= 4;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&buf[i..]);
}

/// Decode a chunked-encoded body back to its plain bytes.
pub fn dechunk_body(mut data: &[u8]) -> Result<Vec<u8>, WireError> {
    let mut out = Vec::with_capacity(data.len());
    loop {
        let Some(line_end) = find_crlf(data) else {
            appvsweb_cover::cover!();
            return Err(WireError::BadChunk);
        };
        let size = std::str::from_utf8(&data[..line_end])
            .ok()
            .and_then(|line| {
                let size_str = line.split(';').next().unwrap_or("").trim();
                usize::from_str_radix(size_str, 16).ok()
            });
        let Some(size) = size else {
            appvsweb_cover::cover!();
            return Err(WireError::BadChunk);
        };
        data = &data[line_end + 2..];
        if size == 0 {
            appvsweb_cover::cover!();
            return Ok(out);
        }
        if data.len() < size.saturating_add(2) {
            appvsweb_cover::cover!();
            return Err(WireError::Truncated);
        }
        out.extend_from_slice(&data[..size]);
        if &data[size..size + 2] != b"\r\n" {
            appvsweb_cover::cover!();
            return Err(WireError::BadChunk);
        }
        appvsweb_cover::cover!();
        data = &data[size + 2..];
    }
}

fn find_crlf(data: &[u8]) -> Option<usize> {
    data.windows(2).position(|w| w == b"\r\n")
}

/// Pre-optimization serializer, retained as the differential oracle for
/// the in-place chunk framing (`tests/fastpath_differential.rs`).
#[cfg(any(test, feature = "reference"))]
pub mod reference {
    use super::*;

    /// Reference twin of [`serialize_response`]: builds the chunk
    /// framing through an intermediate buffer exactly as the
    /// pre-optimization serializer did.
    pub fn serialize_response_reference(resp: &Response) -> Vec<u8> {
        let mut buf = Vec::with_capacity(256 + resp.body.len());
        buf.extend_from_slice(resp.version.as_str().as_bytes());
        buf.push(b' ');
        buf.extend_from_slice(resp.status.0.to_string().as_bytes());
        buf.push(b' ');
        buf.extend_from_slice(resp.status.reason().as_bytes());
        buf.extend_from_slice(b"\r\n");
        put_headers(&mut buf, &resp.headers);
        buf.extend_from_slice(b"\r\n");
        if resp
            .headers
            .get("Transfer-Encoding")
            .is_some_and(|te| te.eq_ignore_ascii_case("chunked"))
        {
            let mut chunked = Vec::new();
            for chunk in resp.body.bytes.chunks(CHUNK_SIZE) {
                chunked.extend_from_slice(format!("{:x}\r\n", chunk.len()).as_bytes());
                chunked.extend_from_slice(chunk);
                chunked.extend_from_slice(b"\r\n");
            }
            chunked.extend_from_slice(b"0\r\n\r\n");
            buf.extend_from_slice(&chunked);
        } else {
            buf.extend_from_slice(&resp.body.bytes);
        }
        buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{Body, Request, Response, StatusCode};
    use crate::url::Url;

    fn url(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    /// Split serialized bytes at the blank line ending the head.
    fn split_head(bytes: &[u8]) -> (&str, &[u8]) {
        let end = bytes
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .expect("head terminator");
        (
            std::str::from_utf8(&bytes[..end]).unwrap(),
            &bytes[end + 4..],
        )
    }

    #[test]
    fn request_serializes_origin_form() {
        let req = Request::post(
            url("https://api.example.com/v1/login?src=app"),
            Body::form(&[("user", "jane"), ("password", "s3cret!")]),
        )
        .with_user_agent("ExampleApp/3.2 (Android 4.4)");
        let bytes = serialize_request(&req);
        let (head, body) = split_head(&bytes);
        let mut lines = head.split("\r\n");
        assert_eq!(lines.next(), Some("POST /v1/login?src=app HTTP/1.1"));
        let lines: Vec<&str> = lines.collect();
        assert!(lines.contains(&"Host: api.example.com"));
        assert!(lines.contains(&"User-Agent: ExampleApp/3.2 (Android 4.4)"));
        assert_eq!(body, &req.body.bytes[..]);
    }

    #[test]
    fn response_serializes_plain_body_verbatim() {
        let mut resp = Response::ok(Body::json(r#"{"ok":true}"#));
        resp.headers.set("Server", "nginx");
        let bytes = serialize_response(&resp);
        let (head, body) = split_head(&bytes);
        assert!(head.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(head.contains("\r\nServer: nginx"));
        assert_eq!(body, &resp.body.bytes[..]);
    }

    #[test]
    fn response_serializes_chunked_body_framed() {
        let payload = vec![b'x'; 5000];
        let mut resp = Response::new(StatusCode::OK);
        resp.body = Body::binary(payload.clone(), "application/octet-stream");
        resp.headers.set("Content-Type", "application/octet-stream");
        resp.headers.set("Transfer-Encoding", "chunked");
        let bytes = serialize_response(&resp);
        let (_, body) = split_head(&bytes);
        assert_eq!(body, &chunk_body(&payload, CHUNK_SIZE)[..]);
        assert_eq!(dechunk_body(body).unwrap(), payload);
    }

    #[test]
    fn chunk_dechunk_roundtrip_edge_sizes() {
        for size in [1usize, 2, 3, 1024] {
            let body: Vec<u8> = (0..=255u8).cycle().take(2500).collect();
            let chunked = chunk_body(&body, size);
            assert_eq!(dechunk_body(&chunked).unwrap(), body);
        }
        assert_eq!(dechunk_body(&chunk_body(b"", 16)).unwrap(), b"");
    }

    #[test]
    fn dechunk_rejects_bad_framing() {
        assert_eq!(
            dechunk_body(b"zz\r\nxx\r\n0\r\n\r\n"),
            Err(WireError::BadChunk)
        );
        assert_eq!(dechunk_body(b"5\r\nab"), Err(WireError::Truncated));
        assert_eq!(dechunk_body(b"nothing here"), Err(WireError::BadChunk));
        assert_eq!(
            dechunk_body(b"3\r\nabcXY0\r\n\r\n"),
            Err(WireError::BadChunk),
            "chunk data must end in CRLF"
        );
    }

    #[test]
    fn dechunk_accepts_extensions_and_stops_at_terminator() {
        assert_eq!(
            dechunk_body(b"3;name=v\r\nabc\r\n0\r\n\r\ntrailing junk").unwrap(),
            b"abc"
        );
    }

    #[test]
    fn dechunk_rejects_sizes_near_usize_max() {
        // `size + 2` must not overflow on a hostile size line.
        assert_eq!(
            dechunk_body(b"ffffffffffffffff\r\nab\r\n"),
            Err(WireError::Truncated)
        );
        assert_eq!(
            dechunk_body(b"fffffffffffffffe\r\nab\r\n"),
            Err(WireError::Truncated)
        );
    }

    #[test]
    fn request_wire_len_is_exact() {
        let cases = [
            Request::get(url("https://example.com/")),
            Request::get(url("http://a.b.c/path/deep?q=1&r=2")).with_user_agent("UA/1.0"),
            Request::post(
                url("https://api.example.com/v1/login"),
                Body::form(&[("user", "jane"), ("password", "s3cret!")]),
            ),
        ];
        for req in &cases {
            assert_eq!(
                request_wire_len(req),
                serialize_request(req).len(),
                "wire_len diverged for {}",
                req.url.request_target()
            );
        }
    }

    #[test]
    fn response_wire_len_is_exact_plain_and_chunked() {
        for body_len in [0usize, 1, 1023, 1024, 1025, 5000] {
            let mut resp = Response::new(StatusCode::OK);
            resp.body = Body::binary(vec![b'x'; body_len], "application/octet-stream");
            resp.headers.set("Content-Type", "application/octet-stream");
            assert_eq!(response_wire_len(&resp), serialize_response(&resp).len());
            resp.headers.set("Transfer-Encoding", "chunked");
            assert_eq!(
                response_wire_len(&resp),
                serialize_response(&resp).len(),
                "chunked wire_len diverged at body_len={body_len}"
            );
        }
    }

    #[test]
    fn chunked_wire_len_matches_chunk_body() {
        for (body_len, size) in [(0usize, 16usize), (1, 1), (15, 16), (16, 16), (2500, 1024)] {
            let body = vec![0u8; body_len];
            assert_eq!(
                chunked_wire_len(body_len, size),
                chunk_body(&body, size).len()
            );
        }
    }

    #[test]
    fn serialize_response_matches_reference() {
        let mut resp = Response::ok(Body::json(r#"{"ok":true}"#));
        resp.headers.set("Server", "nginx");
        assert_eq!(
            serialize_response(&resp),
            reference::serialize_response_reference(&resp)
        );
        let mut chunked = Response::new(StatusCode::OK);
        chunked.body = Body::binary(vec![b'y'; 3000], "application/octet-stream");
        chunked.headers.set("Transfer-Encoding", "chunked");
        assert_eq!(
            serialize_response(&chunked),
            reference::serialize_response_reference(&chunked)
        );
    }

    #[test]
    fn serialize_into_appends_without_clearing() {
        let req = Request::get(url("https://example.com/a"));
        let mut buf = b"prefix".to_vec();
        serialize_request_into(&req, &mut buf);
        assert!(buf.starts_with(b"prefix"));
        assert_eq!(buf.len(), 6 + request_wire_len(&req));
    }
}
