//! Fuzz entry points: codec round-trips, gzip/DEFLATE totality, and
//! chunked framing.
//!
//! Three targets share this module because they share the dictionary
//! family (HTTP tokens, the gzip magic, chunk framing):
//!
//! * [`run_codec`] — percent/form/base64/hex codecs. Decoders must be
//!   total on arbitrary input, and every decode∘encode pair must be the
//!   identity on the original data.
//! * [`run_gzip`] — the DEFLATE inflater and the gzip framing. Both
//!   must return typed errors (never panic) on arbitrary bytes, and
//!   compress∘decompress must round-trip the fuzz input itself.
//! * [`run_wire`] — chunked transfer encoding: dechunking is total,
//!   and framing round-trips at its arithmetic wire length.

use crate::codec;
use crate::compress;

/// Codec target: totality plus round-trip laws on the fuzz bytes.
pub fn run_codec(data: &[u8]) {
    // Round-trips on raw bytes.
    let b64 = codec::base64_encode(data);
    assert_eq!(
        codec::base64_decode(&b64).as_deref(),
        Some(data),
        "base64 round-trip"
    );
    let hex = codec::hex_encode(data);
    assert_eq!(
        codec::hex_decode(&hex).as_deref(),
        Some(data),
        "hex round-trip"
    );
    // Totality of the decoders on arbitrary (lossy-decoded) text.
    let text = String::from_utf8_lossy(data);
    let _ = codec::base64_decode(&text);
    let _ = codec::hex_decode(&text);
    let decoded = codec::percent_decode(&text);
    // Encoding the decoded text and decoding again is a fixed point.
    let reencoded = codec::percent_encode(&decoded);
    assert_eq!(
        codec::percent_decode(&reencoded),
        decoded,
        "percent-codec fixed point"
    );
    // Form decoding is total and its pairs re-encode losslessly.
    let pairs = codec::form_urldecode(&text);
    let borrowed: Vec<(&str, &str)> = pairs
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .collect();
    let encoded = codec::form_urlencode(&borrowed);
    assert_eq!(
        codec::form_urldecode(&encoded),
        pairs,
        "form-codec round-trip"
    );
}

/// Gzip/DEFLATE target: inflater totality, compressor round-trip, and
/// the pooled `_into` variants' differential laws against the plain
/// allocating forms.
pub fn run_gzip(data: &[u8]) {
    // Arbitrary bytes through both framings: typed errors only.
    let _ = compress::inflate(data);
    let _ = compress::gzip_decompress(data);
    // The compressors must round-trip the fuzz input itself.
    let deflated = compress::deflate(data);
    assert_eq!(
        compress::inflate(&deflated).as_deref(),
        Ok(data),
        "deflate round-trip"
    );
    let gz = compress::gzip_compress(data);
    assert_eq!(
        compress::gzip_decompress(&gz).as_deref(),
        Ok(data),
        "gzip round-trip"
    );

    // Differential: the `_into` variants append after a pre-existing
    // prefix and must (a) produce exactly the plain forms' bytes, (b)
    // never disturb the prefix, and (c) truncate back to the prefix on
    // error — a corrupt stream must not hand back half-written output
    // or read the pooled buffer's earlier contents.
    const PREFIX: &[u8] = b"\xa5\xa5pre";
    let mut out = PREFIX.to_vec();
    compress::gzip_compress_into(data, &mut out);
    assert_eq!(
        &out[..PREFIX.len()],
        PREFIX,
        "compress_into moved the prefix"
    );
    assert_eq!(&out[PREFIX.len()..], &gz[..], "compress_into diverged");

    let mut plain = PREFIX.to_vec();
    match compress::gzip_decompress_into(data, &mut plain) {
        Ok(()) => assert_eq!(
            compress::gzip_decompress(data).as_deref(),
            Ok(&plain[PREFIX.len()..]),
            "decompress_into diverged on success"
        ),
        Err(e) => {
            assert_eq!(
                compress::gzip_decompress(data),
                Err(e),
                "decompress_into diverged on error"
            );
            assert_eq!(plain, PREFIX, "error must restore the prefix length");
        }
    }

    let mut inflated = PREFIX.to_vec();
    match compress::inflate_into(data, &mut inflated) {
        Ok(()) => assert_eq!(
            compress::inflate(data).as_deref(),
            Ok(&inflated[PREFIX.len()..]),
            "inflate_into diverged on success"
        ),
        Err(e) => {
            assert_eq!(
                compress::inflate(data),
                Err(e),
                "inflate_into error diverged"
            );
            assert_eq!(
                inflated, PREFIX,
                "inflate error must restore the prefix length"
            );
        }
    }
}

/// Wire target: the chunked framing the program runs, with the input
/// taken as a body.
///
/// [`crate::wire::dechunk_body`] must be total on arbitrary bytes (the
/// fault layer runs it to judge chunked responses); chunk framing must
/// round-trip the input at its arithmetic length; and a chunked
/// response carrying the input must serialize to exactly
/// [`crate::wire::response_wire_len`] bytes, equal to the reference
/// serializer's.
pub fn run_wire(data: &[u8]) {
    use crate::wire;
    let _ = wire::dechunk_body(data);

    let framed = wire::chunk_body(data, wire::CHUNK_SIZE);
    assert_eq!(
        framed.len(),
        wire::chunked_wire_len(data.len(), wire::CHUNK_SIZE),
        "chunked wire-length arithmetic diverged"
    );
    assert_eq!(
        wire::dechunk_body(&framed).as_deref(),
        Ok(data),
        "chunk round-trip"
    );

    let mut resp = crate::Response::ok(crate::Body::binary(
        data.to_vec(),
        "application/octet-stream",
    ));
    resp.headers.set("Transfer-Encoding", "chunked");
    let bytes = wire::serialize_response(&resp);
    assert_eq!(
        bytes.len(),
        wire::response_wire_len(&resp),
        "response wire-length arithmetic diverged"
    );
    #[cfg(any(test, feature = "reference"))]
    assert_eq!(
        bytes,
        wire::reference::serialize_response_reference(&resp),
        "response serializer diverged from reference"
    );
}

/// Codec dictionary: encodings' alphabet edges and HTTP query tokens.
pub const CODEC_DICT: &[&[u8]] = &[
    b"%",
    b"%20",
    b"%2",
    b"%ff",
    b"%FF",
    b"+",
    b"=",
    b"&",
    b"==",
    b"aGk=",
    b"deadbeef",
    b"q=",
    b"a=b&c=d",
    b"%e2%82%ac",
];

/// Codec seeds.
pub const CODEC_SEEDS: &[&[u8]] = &[
    b"q=rust+lang&page=1",
    b"a%20b%26c",
    b"SGVsbG8sIHdvcmxkIQ==",
    b"0123456789abcdef",
];

/// Gzip dictionary: magic, method, flag bytes, block-type shrapnel,
/// and stored-block length fields.
pub const GZIP_DICT: &[&[u8]] = &[
    &[0x1f, 0x8b],
    &[0x1f, 0x8b, 0x08, 0x00],
    &[0x1f, 0x8b, 0x08, 0x1c],
    &[0x08],
    &[0x01, 0x00, 0x00, 0xff, 0xff],
    &[0x03, 0x00],
    &[0x00, 0x00, 0x00, 0x00],
    &[0xff, 0xff, 0xff, 0xff],
];

/// Wire dictionary: chunk framing tokens — size lines on both sides
/// of the 1024-byte chunk boundary, an extension, CRLFs and the
/// terminal chunk.
pub const WIRE_DICT: &[&[u8]] = &[
    b"0\r\n\r\n",
    b";ext",
    b";name=value",
    b"400\r\n",
    b"401\r\n",
    b"3ff\r\n",
    b"5\r\n",
    b"\r\n",
    b"ffffffffffffffff\r\n",
];

/// Wire seeds: chunked bodies — one chunk, two chunks, an extension,
/// an empty body, and a chunk missing its CRLF.
pub const WIRE_SEEDS: &[&[u8]] = &[
    b"5\r\nhello\r\n0\r\n\r\n",
    b"3\r\nabc\r\n2\r\nde\r\n0\r\n\r\n",
    b"4;ext=1\r\nuser\r\n0\r\n\r\n",
    b"0\r\n\r\n",
    b"5\r\nhelloXX0\r\n\r\n",
];

/// Gzip seeds: a well-formed member (of `b"hello hello hello"`) plus a
/// raw stored-block DEFLATE stream. Regression entries live in the
/// on-disk corpus.
pub const GZIP_SEEDS: &[&[u8]] = &[
    // gzip_compress(b"hello") is itself deterministic, but seeds must be
    // consts; this is the fixed header + a stored block + trailer.
    &[
        0x1f, 0x8b, 0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xff, // header
        0x01, 0x05, 0x00, 0xfa, 0xff, b'h', b'e', b'l', b'l', b'o', // stored block
        0x86, 0xa6, 0x10, 0x36, // crc32("hello")
        0x05, 0x00, 0x00, 0x00, // ISIZE
    ],
    &[0x01, 0x03, 0x00, 0xfc, 0xff, b'a', b'b', b'c'],
];
