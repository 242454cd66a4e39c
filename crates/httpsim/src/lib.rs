//! # appvsweb-httpsim
//!
//! A self-contained HTTP/1.1 message substrate for the `appvsweb`
//! reproduction of *"Should You Use the App for That?"* (IMC 2016).
//!
//! The paper's measurement pipeline operates on decrypted HTTP flows
//! captured by a Meddle VPN + mitmproxy testbed. This crate provides the
//! pieces of HTTP that pipeline needs, implemented from scratch:
//!
//! * [`Url`] parsing and formatting, with query-string handling
//! * percent-encoding / `application/x-www-form-urlencoded` codecs and a
//!   small base64/hex codec zoo shared by the PII encoder layer
//!   ([`codec`])
//! * DEFLATE/gzip compression ([`compress`]) — SDK batch uploads travel
//!   gzipped, and the interception proxy must inflate them before any
//!   PII detection can see inside
//! * an ordered, case-insensitive [`HeaderMap`]
//! * cookies ([`cookie`]): `Cookie` request headers and `Set-Cookie`
//!   response headers, plus a [`cookie::CookieJar`]
//! * a browser cache ([`cache`]): `Cache-Control` freshness and
//!   `ETag`/`304` revalidation, which is why ad-tag JavaScript is
//!   fetched once per session rather than once per page
//! * [`Request`] / [`Response`] message types with body/content-type
//!   helpers
//! * write-only HTTP/1.1 wire serialization with exact arithmetic wire
//!   lengths and chunked transfer encoding ([`wire`]); nothing parses
//!   messages back — detection works on the structured [`Request`]
//! * deterministic response corruption for the fault-injection layer
//!   ([`degrade`]): 5xx substitution, truncated bodies, malformed
//!   chunked framing, and the [`degrade::is_partial`] detector the
//!   proxy uses to flag damaged-but-kept flows
//!
//! Everything is deterministic and allocation-friendly; there is no I/O in
//! this crate. Higher layers (`netsim`, `mitm`) move these messages across
//! the simulated network.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod codec;
pub mod compress;
pub mod cookie;
pub mod degrade;
pub mod fuzz;
pub mod headers;
pub mod message;
pub mod url;
pub mod wire;

pub use cookie::{Cookie, CookieJar, SetCookie};
pub use headers::HeaderMap;
pub use message::{Body, Method, Request, Response, StatusCode, Version};
pub use url::{Host, Url};
