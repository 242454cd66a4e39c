//! Minimal std-only HTTP/1.1: a hardened request parser, a response
//! renderer, and the service's route table.
//!
//! The parser is the fuzz-hardened surface (target `serve`): total on
//! arbitrary bytes, with explicit limits — request line ≤ 4096 bytes,
//! ≤ 64 headers of ≤ 1024 bytes each, body ≤ 64 KiB via
//! `Content-Length`. No chunked encoding, no keep-alive negotiation:
//! one request, one response, exactly what a monitoring endpoint needs.

use crate::job::JobSpec;
use crate::service::{Server, WalSink};
use crate::state::JobStatus;
use appvsweb_json::{FromJson, Json, ToJson};
use std::fmt;

/// Request-line byte cap.
pub const MAX_REQUEST_LINE: usize = 4096;
/// Header-count cap.
pub const MAX_HEADERS: usize = 64;
/// Single-header byte cap.
pub const MAX_HEADER_LINE: usize = 1024;
/// Body byte cap.
pub const MAX_BODY: usize = 64 * 1024;

/// A parsed request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// `GET`, `POST`, …
    pub method: String,
    /// Absolute path, query string stripped.
    pub path: String,
    /// Raw body bytes (exactly `Content-Length` of them).
    pub body: Vec<u8>,
}

/// Why a byte stream is not an acceptable request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HttpError {
    /// Head incomplete: no terminating blank line yet.
    Incomplete,
    /// Malformed or over-long request line.
    BadRequestLine,
    /// Header section violates a limit or is malformed.
    BadHeader,
    /// `Content-Length` unparseable or over the body cap.
    BadLength,
    /// Fewer body bytes than `Content-Length` promised.
    ShortBody,
}

impl HttpError {
    /// The status code this parse failure maps to.
    pub fn status(&self) -> u16 {
        match self {
            HttpError::Incomplete | HttpError::ShortBody => 400,
            HttpError::BadRequestLine => 400,
            HttpError::BadHeader => 431,
            HttpError::BadLength => 413,
        }
    }
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::Incomplete => write!(f, "incomplete request head"),
            HttpError::BadRequestLine => write!(f, "malformed request line"),
            HttpError::BadHeader => write!(f, "malformed or over-long headers"),
            HttpError::BadLength => write!(f, "bad or excessive content-length"),
            HttpError::ShortBody => write!(f, "body shorter than content-length"),
        }
    }
}

fn find_head_end(bytes: &[u8]) -> Option<(usize, usize)> {
    // Accept CRLF-CRLF (standard) and bare LF-LF (lenient clients).
    if let Some(pos) = bytes.windows(4).position(|w| w == b"\r\n\r\n") {
        return Some((pos, pos + 4));
    }
    bytes
        .windows(2)
        .position(|w| w == b"\n\n")
        .map(|pos| (pos, pos + 2))
}

/// Parse one request from raw bytes.
pub fn parse_request(bytes: &[u8]) -> Result<Request, HttpError> {
    appvsweb_cover::cover!();
    let (head_end, body_start) = find_head_end(bytes).ok_or(HttpError::Incomplete)?;
    let head = std::str::from_utf8(bytes.get(..head_end).unwrap_or_default())
        .map_err(|_| HttpError::BadRequestLine)?;
    let mut lines = head.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));

    let request_line = lines.next().ok_or(HttpError::BadRequestLine)?;
    if request_line.len() > MAX_REQUEST_LINE {
        return Err(HttpError::BadRequestLine);
    }
    let mut parts = request_line.split(' ');
    let method = parts.next().unwrap_or_default();
    let target = parts.next().unwrap_or_default();
    let version = parts.next().unwrap_or_default();
    if method.is_empty()
        || !method.bytes().all(|b| b.is_ascii_uppercase())
        || !target.starts_with('/')
        || !version.starts_with("HTTP/1.")
        || parts.next().is_some()
    {
        return Err(HttpError::BadRequestLine);
    }

    let mut content_length = 0usize;
    let mut header_count = 0usize;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        header_count += 1;
        if header_count > MAX_HEADERS || line.len() > MAX_HEADER_LINE {
            return Err(HttpError::BadHeader);
        }
        let (name, value) = line.split_once(':').ok_or(HttpError::BadHeader)?;
        if name.is_empty() || name.contains(' ') {
            return Err(HttpError::BadHeader);
        }
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .trim()
                .parse::<usize>()
                .map_err(|_| HttpError::BadLength)?;
            if content_length > MAX_BODY {
                return Err(HttpError::BadLength);
            }
        }
    }

    let body_bytes = bytes.get(body_start..).unwrap_or_default();
    if body_bytes.len() < content_length {
        return Err(HttpError::ShortBody);
    }
    let body = body_bytes
        .get(..content_length)
        .unwrap_or_default()
        .to_vec();
    let path = target.split('?').next().unwrap_or(target).to_string();
    Ok(Request {
        method: method.to_string(),
        path,
        body,
    })
}

/// Render a full HTTP/1.1 response with a JSON body.
pub fn render_response(status: u16, body: &str) -> String {
    let reason = match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    };
    format!(
        "HTTP/1.1 {status} {reason}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    )
}

fn err_body(message: &str) -> String {
    Json::Obj(vec![("error".to_string(), Json::Str(message.to_string()))]).to_compact()
}

fn job_brief<S: WalSink>(server: &Server<S>, id: u64) -> Option<Json> {
    server.state.job(id).map(|j| j.to_json())
}

/// Route one parsed request against the server. Returns
/// `(status, json_body)`; execution of admitted jobs is the serve
/// loop's business (it drains the queue between requests), so handlers
/// stay fast and the endpoint surface stays deterministic.
pub fn route<S: WalSink>(server: &mut Server<S>, req: &Request) -> (u16, String) {
    appvsweb_obs::counter!("serve.http_requests");
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/submit") => {
            let text = match std::str::from_utf8(&req.body) {
                Ok(t) => t,
                Err(_) => return (400, err_body("body is not utf-8")),
            };
            let spec = match appvsweb_json::parse(text).and_then(|v| JobSpec::from_json(&v)) {
                Ok(spec) => spec,
                Err(e) => return (400, err_body(&e.to_string())),
            };
            match server.submit(spec) {
                Ok((job, admission)) => {
                    let verdict = match admission {
                        crate::queue::Admission::Admit => "admit",
                        crate::queue::Admission::Shed(_) => "shed",
                        crate::queue::Admission::Reject => "reject",
                    };
                    let body = Json::Obj(vec![
                        ("job".to_string(), Json::Uint(job)),
                        ("admission".to_string(), Json::Str(verdict.to_string())),
                    ])
                    .to_compact();
                    if admission == crate::queue::Admission::Reject {
                        (503, body)
                    } else {
                        (202, body)
                    }
                }
                Err(e) => (422, err_body(&e.to_string())),
            }
        }
        ("POST", _) => (404, err_body("no such endpoint")),
        ("GET", "/health") => {
            let s = &server.state;
            let done = s
                .jobs
                .iter()
                .filter(|j| j.status == JobStatus::Done)
                .count();
            let body = Json::Obj(vec![
                ("clock_ms".to_string(), Json::Uint(s.clock_ms)),
                ("queued".to_string(), Json::Uint(s.queued.len() as u64)),
                ("jobs".to_string(), Json::Uint(s.jobs.len() as u64)),
                ("done".to_string(), Json::Uint(done as u64)),
                (
                    "revisions".to_string(),
                    Json::Uint(s.revisions.len() as u64),
                ),
                ("alarms".to_string(), Json::Uint(s.alarms.len() as u64)),
            ])
            .to_compact();
            (200, body)
        }
        ("GET", "/status") => {
            let jobs: Vec<Json> = server.state.jobs.iter().map(|j| j.to_json()).collect();
            (200, Json::Arr(jobs).to_compact())
        }
        ("GET", "/drift") => (200, server.state.alarms.to_json().to_compact()),
        ("GET", path) => {
            if let Some(rest) = path.strip_prefix("/status/") {
                return match rest
                    .parse::<u64>()
                    .ok()
                    .and_then(|id| job_brief(server, id))
                {
                    Some(body) => (200, body.to_compact()),
                    None => (404, err_body("no such job")),
                };
            }
            if let Some(rest) = path.strip_prefix("/report/") {
                let rev = if rest == "latest" {
                    server.state.revisions.last()
                } else {
                    rest.parse::<u64>()
                        .ok()
                        .and_then(|id| server.state.revisions.iter().find(|r| r.id == id))
                };
                return match rev {
                    Some(rev) => (200, rev.to_json().to_compact()),
                    None => (404, err_body("no such revision")),
                };
            }
            (404, err_body("no such endpoint"))
        }
        _ => (405, err_body("method not allowed")),
    }
}

/// Whether `bytes` may still grow into a complete request: the head is
/// unterminated or the body is short of its `Content-Length`. A socket
/// reader keeps reading while this holds.
pub fn needs_more(bytes: &[u8]) -> bool {
    matches!(
        parse_request(bytes),
        Err(HttpError::Incomplete | HttpError::ShortBody)
    )
}

/// Handle one raw request buffer end-to-end: parse, route, render.
pub fn handle<S: WalSink>(server: &mut Server<S>, bytes: &[u8]) -> String {
    match parse_request(bytes) {
        Ok(req) => {
            let (status, body) = route(server, &req);
            render_response(status, &body)
        }
        Err(e) => render_response(e.status(), &err_body(&e.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn needs_more_until_head_and_body_arrive() {
        assert!(needs_more(b"POST /submit HTTP/1.1\r\ncontent-le"));
        assert!(needs_more(
            b"POST /submit HTTP/1.1\r\ncontent-length: 2\r\n\r\n{"
        ));
        assert!(!needs_more(
            b"POST /submit HTTP/1.1\r\ncontent-length: 2\r\n\r\n{}"
        ));
        assert!(!needs_more(b"BROKEN\r\n\r\n"), "a bad head is final");
    }

    #[test]
    fn parses_a_simple_post() {
        let raw = b"POST /submit HTTP/1.1\r\ncontent-length: 2\r\n\r\n{}";
        let req = parse_request(raw).expect("parse");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/submit");
        assert_eq!(req.body, b"{}");
    }

    #[test]
    fn strips_query_strings_and_tolerates_bare_lf() {
        let raw = b"GET /health?verbose=1 HTTP/1.1\n\n";
        let req = parse_request(raw).expect("parse");
        assert_eq!(req.path, "/health");
    }

    #[test]
    fn limits_are_enforced() {
        let long_line = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_REQUEST_LINE));
        assert_eq!(
            parse_request(long_line.as_bytes()),
            Err(HttpError::BadRequestLine)
        );

        let big_body = b"POST /submit HTTP/1.1\r\ncontent-length: 9999999\r\n\r\n";
        assert_eq!(parse_request(big_body), Err(HttpError::BadLength));

        let mut many_headers = String::from("GET / HTTP/1.1\r\n");
        for i in 0..(MAX_HEADERS + 1) {
            many_headers.push_str(&format!("x-h{i}: v\r\n"));
        }
        many_headers.push_str("\r\n");
        assert_eq!(
            parse_request(many_headers.as_bytes()),
            Err(HttpError::BadHeader)
        );

        let short = b"POST / HTTP/1.1\r\ncontent-length: 5\r\n\r\nab";
        assert_eq!(parse_request(short), Err(HttpError::ShortBody));
    }

    #[test]
    fn responses_carry_correct_content_length() {
        let resp = render_response(200, "{\"ok\":true}");
        assert!(resp.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(resp.contains("content-length: 11\r\n"));
        assert!(resp.ends_with("{\"ok\":true}"));
    }
}
