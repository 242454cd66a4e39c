//! HTTP request/response message types.

use crate::codec::form_urldecode;
use crate::cookie::{parse_cookie_header, Cookie, SetCookie};
use crate::headers::HeaderMap;
use crate::url::Url;
use std::fmt;

/// HTTP request method. Only the methods observed in the study's traffic
/// are modelled.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Method {
    /// GET — page loads, beacons, pixel fires.
    Get,
    /// POST — logins, form submissions, SDK batch uploads.
    Post,
    /// PUT — occasional REST API writes.
    Put,
    /// HEAD — cache validation.
    Head,
    /// DELETE — rare REST API deletes.
    Delete,
}

impl Method {
    /// Method token as it appears on the request line.
    pub fn as_str(self) -> &'static str {
        match self {
            Method::Get => "GET",
            Method::Post => "POST",
            Method::Put => "PUT",
            Method::Head => "HEAD",
            Method::Delete => "DELETE",
        }
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// HTTP protocol version (the study's 2016 traffic is HTTP/1.1).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Version {
    /// HTTP/1.0 — still seen from some legacy trackers.
    Http10,
    /// HTTP/1.1 — the default.
    #[default]
    Http11,
}

impl Version {
    /// Version token as it appears on the request line.
    pub fn as_str(self) -> &'static str {
        match self {
            Version::Http10 => "HTTP/1.0",
            Version::Http11 => "HTTP/1.1",
        }
    }
}

/// HTTP status code.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct StatusCode(pub u16);

impl StatusCode {
    /// 200 OK.
    pub const OK: StatusCode = StatusCode(200);
    /// 204 No Content (typical for tracking beacons).
    pub const NO_CONTENT: StatusCode = StatusCode(204);
    /// 302 Found — the workhorse of RTB redirect chains.
    pub const FOUND: StatusCode = StatusCode(302);
    /// 400 Bad Request.
    pub const BAD_REQUEST: StatusCode = StatusCode(400);
    /// 401 Unauthorized.
    pub const UNAUTHORIZED: StatusCode = StatusCode(401);
    /// 404 Not Found.
    pub const NOT_FOUND: StatusCode = StatusCode(404);

    /// Whether this is a 3xx redirect.
    pub fn is_redirect(self) -> bool {
        (300..400).contains(&self.0)
    }

    /// Whether this is a 2xx success.
    pub fn is_success(self) -> bool {
        (200..300).contains(&self.0)
    }

    /// Canonical reason phrase for the codes the simulation emits.
    pub fn reason(self) -> &'static str {
        match self.0 {
            200 => "OK",
            204 => "No Content",
            301 => "Moved Permanently",
            302 => "Found",
            304 => "Not Modified",
            400 => "Bad Request",
            401 => "Unauthorized",
            403 => "Forbidden",
            404 => "Not Found",
            500 => "Internal Server Error",
            _ => "Unknown",
        }
    }
}

/// A message body plus its declared content type.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Body {
    /// Raw body bytes.
    pub bytes: Vec<u8>,
    /// `Content-Type` value, if declared.
    pub content_type: Option<String>,
}

impl Body {
    /// Empty body.
    pub fn empty() -> Self {
        Body::default()
    }

    /// A `application/x-www-form-urlencoded` body from pairs.
    pub fn form(pairs: &[(&str, &str)]) -> Self {
        Body {
            bytes: crate::codec::form_urlencode(pairs).into_bytes(),
            content_type: Some("application/x-www-form-urlencoded".into()),
        }
    }

    /// A JSON body from a pre-rendered string.
    pub fn json(text: impl Into<String>) -> Self {
        Body {
            bytes: text.into().into_bytes(),
            content_type: Some("application/json".into()),
        }
    }

    /// A plain-text body.
    pub fn text(text: impl Into<String>) -> Self {
        Body {
            bytes: text.into().into_bytes(),
            content_type: Some("text/plain".into()),
        }
    }

    /// An opaque binary body (images, protobuf-ish SDK payloads).
    pub fn binary(bytes: Vec<u8>, content_type: &str) -> Self {
        Body {
            bytes,
            content_type: Some(content_type.into()),
        }
    }

    /// Body length in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the body is empty.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Body as UTF-8 text (lossy).
    pub fn as_text(&self) -> String {
        String::from_utf8_lossy(&self.bytes).into_owned()
    }

    /// If the body is form-encoded, decode its pairs.
    pub fn form_pairs(&self) -> Option<Vec<(String, String)>> {
        match self.content_type.as_deref() {
            Some(ct) if ct.starts_with("application/x-www-form-urlencoded") => {
                Some(form_urldecode(&self.as_text()))
            }
            _ => None,
        }
    }
}

/// An HTTP request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// Request method.
    pub method: Method,
    /// Absolute target URL.
    pub url: Url,
    /// Protocol version.
    pub version: Version,
    /// Request headers.
    pub headers: HeaderMap,
    /// Request body.
    pub body: Body,
}

impl Request {
    /// A GET request for `url` with standard headers.
    pub fn get(url: Url) -> Self {
        Request::new(Method::Get, url)
    }

    /// A POST request with the given body.
    pub fn post(url: Url, body: Body) -> Self {
        let mut r = Request::new(Method::Post, url);
        r.set_body(body);
        r
    }

    /// A request with an empty body.
    pub fn new(method: Method, url: Url) -> Self {
        let mut headers = HeaderMap::new();
        headers.set("Host", url.host.as_str());
        Request {
            method,
            url,
            version: Version::Http11,
            headers,
            body: Body::empty(),
        }
    }

    /// Attach a body, updating `Content-Type` and `Content-Length`.
    pub fn set_body(&mut self, body: Body) {
        if let Some(ct) = &body.content_type {
            self.headers.set("Content-Type", ct.clone());
        }
        self.headers.set("Content-Length", body.len().to_string());
        self.body = body;
    }

    /// Set the `User-Agent` header (builder style).
    pub fn with_user_agent(mut self, ua: impl Into<String>) -> Self {
        self.headers.set("User-Agent", ua.into());
        self
    }

    /// Set the `Referer` header (builder style).
    pub fn with_referer(mut self, referer: impl Into<String>) -> Self {
        self.headers.set("Referer", referer.into());
        self
    }

    /// Cookies attached to this request.
    pub fn cookies(&self) -> Vec<Cookie> {
        self.headers
            .get_all("Cookie")
            .flat_map(parse_cookie_header)
            .collect()
    }

    /// All key/value pairs visible in this request: query parameters, form
    /// body pairs, and cookies. This is the surface the PII detectors scan
    /// first (matching ReCon's structured key/value extraction).
    pub fn kv_pairs(&self) -> Vec<(String, String)> {
        let mut out = self.url.query_pairs();
        if let Some(form) = self.body.form_pairs() {
            out.extend(form);
        }
        for c in self.cookies() {
            out.push((c.name, c.value));
        }
        out
    }

    /// Exact size of this request on the wire, in bytes (computed
    /// arithmetically; equals `serialize_request(self).len()`).
    pub fn wire_len(&self) -> usize {
        crate::wire::request_wire_len(self)
    }
}

/// An HTTP response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: StatusCode,
    /// Protocol version.
    pub version: Version,
    /// Response headers.
    pub headers: HeaderMap,
    /// Response body.
    pub body: Body,
}

impl Response {
    /// A response with the given status and empty body.
    pub fn new(status: StatusCode) -> Self {
        Response {
            status,
            version: Version::Http11,
            headers: HeaderMap::new(),
            body: Body::empty(),
        }
    }

    /// 200 OK with a body.
    pub fn ok(body: Body) -> Self {
        let mut r = Response::new(StatusCode::OK);
        r.set_body(body);
        r
    }

    /// 204 No Content (tracking-beacon style).
    pub fn no_content() -> Self {
        Response::new(StatusCode::NO_CONTENT)
    }

    /// A 302 redirect to `location`.
    pub fn redirect(location: &Url) -> Self {
        let mut r = Response::new(StatusCode::FOUND);
        r.headers.set("Location", location.to_string());
        r
    }

    /// Attach a body, updating `Content-Type` and `Content-Length`.
    pub fn set_body(&mut self, body: Body) {
        if let Some(ct) = &body.content_type {
            self.headers.set("Content-Type", ct.clone());
        }
        self.headers.set("Content-Length", body.len().to_string());
        self.body = body;
    }

    /// Add a `Set-Cookie` header.
    pub fn add_set_cookie(&mut self, sc: &SetCookie) {
        self.headers.append("Set-Cookie", sc.to_header_value());
    }

    /// Parse all `Set-Cookie` headers.
    pub fn set_cookies(&self) -> Vec<SetCookie> {
        self.headers
            .get_all("Set-Cookie")
            .filter_map(SetCookie::parse)
            .collect()
    }

    /// The redirect target, if this is a 3xx with a valid `Location`.
    pub fn redirect_target(&self) -> Option<Url> {
        if !self.status.is_redirect() {
            return None;
        }
        self.headers
            .get("Location")
            .and_then(|l| Url::parse(l).ok())
    }

    /// Exact size of this response on the wire, in bytes (computed
    /// arithmetically; equals `serialize_response(self).len()`).
    pub fn wire_len(&self) -> usize {
        crate::wire::response_wire_len(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::url::Scheme;

    fn url(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    #[test]
    fn request_builders_set_headers() {
        let mut r = Request::post(
            url("https://api.grubhub.com/login"),
            Body::form(&[("email", "user@example.com"), ("password", "hunter2")]),
        );
        assert_eq!(r.headers.get("Host"), Some("api.grubhub.com"));
        assert_eq!(
            r.headers.get("Content-Type"),
            Some("application/x-www-form-urlencoded")
        );
        let len: usize = r.headers.get("Content-Length").unwrap().parse().unwrap();
        assert_eq!(len, r.body.len());
        r.headers.set("Cookie", "sid=1; track=2");
        assert_eq!(r.cookies().len(), 2);
    }

    #[test]
    fn kv_pairs_merge_query_form_cookies() {
        let mut u = Url::new(Scheme::Https, "t.example.com", "/beacon");
        u.push_query("uid", "abc123");
        let mut r = Request::post(u, Body::form(&[("gender", "F")]));
        r.headers.set("Cookie", "_ga=GA1.2.9");
        let kv = r.kv_pairs();
        assert_eq!(kv.len(), 3);
        assert!(kv.contains(&("uid".into(), "abc123".into())));
        assert!(kv.contains(&("gender".into(), "F".into())));
        assert!(kv.contains(&("_ga".into(), "GA1.2.9".into())));
    }

    #[test]
    fn response_redirect_roundtrip() {
        let target = url("https://ads.example.net/rtb?bid=7");
        let r = Response::redirect(&target);
        assert_eq!(r.redirect_target().unwrap(), target);
        assert!(Response::ok(Body::text("hi")).redirect_target().is_none());
    }

    #[test]
    fn response_set_cookie_roundtrip() {
        let mut r = Response::no_content();
        r.add_set_cookie(&SetCookie::session("u", "42").with_domain("example.com"));
        r.add_set_cookie(&SetCookie::session("s", "x"));
        let parsed = r.set_cookies();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].domain.as_deref(), Some("example.com"));
    }

    #[test]
    fn status_code_classes() {
        assert!(StatusCode::OK.is_success());
        assert!(StatusCode::FOUND.is_redirect());
        assert!(!StatusCode::NOT_FOUND.is_success());
        assert_eq!(StatusCode(302).reason(), "Found");
    }

    #[test]
    fn body_form_pairs_requires_content_type() {
        let b = Body::text("a=1&b=2");
        assert!(b.form_pairs().is_none());
        let f = Body::form(&[("a", "1")]);
        assert_eq!(f.form_pairs().unwrap(), vec![("a".into(), "1".into())]);
    }
}

appvsweb_json::impl_json!(
    enum Method {
        Get,
        Post,
        Put,
        Head,
        Delete,
    }
);
appvsweb_json::impl_json!(
    enum Version {
        Http10,
        Http11,
    }
);
appvsweb_json::impl_json!(newtype StatusCode(u16));
appvsweb_json::impl_json!(struct Body { bytes, content_type });
appvsweb_json::impl_json!(struct Request { method, url, version, headers, body });
appvsweb_json::impl_json!(struct Response { status, version, headers, body });
