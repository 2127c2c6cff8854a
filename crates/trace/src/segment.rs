//! The sealed-segment binary codec: a bounded run of trace events as
//! one integrity-checked byte blob.
//!
//! # Layout
//!
//! ```text
//! +--------------------------------------------------------------+
//! | magic "OTS1" (4 bytes) | version u8 = 1                      |
//! | event_count varint | payload checksum varint (FNV-1a 64)     |
//! | compressed length varint | LZ-compressed payload bytes ...   |
//! +--------------------------------------------------------------+
//! payload (checksummed and LZ-compressed as one unit, see
//! [`crate::lz`]) :=
//!   string dictionary   varint n, then n length-prefixed strings
//!   rid dictionary      varint n, first rid varint, then zigzag deltas
//!   kinds lane          packed bits, 1 = response (length-prefixed)
//!   rid lane            per event: varint index into rid dictionary
//!   method lane         per request: varint string-dictionary index
//!   path lane           per request: varint string-dictionary index
//!   query lane          per request: varint npairs + (k idx, v idx)*
//!   post lane           per request: same shape
//!   cookie lane         per request: same shape
//!   label lane          per response: varint 0 = label matches rid,
//!                       else varint 1 + raw label varint
//!   status lane         per response: varint status
//!   header lane         per response: varint npairs + (k idx, v idx)*
//!   body lane           per response: varint string-dictionary index
//! ```
//!
//! Every string — method, path, query/post/cookie/header keys and
//! values, bodies — goes through one per-segment dictionary, so the
//! heavy repetition in real workloads (a handful of script paths,
//! templated bodies, recurring session cookies) is stored once per
//! segment. RequestIDs are dictionary-coded the same way, with the
//! dictionary itself delta-encoded (collector tickets make rids
//! near-ascending). The lanes are columnar: same-shaped values sit
//! adjacently, which keeps the varints short and the layout
//! self-describing. The assembled payload is then LZ-compressed as a
//! whole: the dictionary only dedups *exact* repeats, while templated
//! bodies are unique-but-similar — the LZ pass turns that cross-body
//! redundancy into back-references.
//!
//! Integrity: the header carries the event count and an FNV-1a 64
//! checksum over the *uncompressed* payload. [`decode_segment`] rejects
//! — with stable diagnostics — bad magic, unsupported versions,
//! truncated payloads, checksum mismatches, event-count mismatches, and
//! any lane that under- or over-runs its extent. Corruption inside the
//! compressed bytes surfaces either as a failed decompression or as a
//! wrong checksum; both report the single stable diagnostic
//! `segment checksum mismatch`.

use crate::event::{HttpRequest, HttpResponse};
use crate::record::Event;
use crate::source::TraceStoreError;
use orochi_common::codec::{Decoder, Encoder, WireError};
use orochi_common::hash::fnv1a;
use orochi_common::ids::RequestId;
use std::collections::HashMap;

/// First bytes of every segment file.
pub const SEGMENT_MAGIC: [u8; 4] = *b"OTS1";
/// Current segment format version.
pub const SEGMENT_VERSION: u8 = 1;

/// Writer-side string dictionary: first-use interning to dense indices,
/// borrowing every string from the events being encoded.
#[derive(Default)]
struct Dict<'a> {
    index: HashMap<&'a str, u64>,
    strings: Vec<&'a str>,
}

impl<'a> Dict<'a> {
    fn intern(&mut self, s: &'a str) -> u64 {
        let next = self.strings.len() as u64;
        let idx = *self.index.entry(s).or_insert(next);
        if idx == next {
            self.strings.push(s);
        }
        idx
    }
}

fn encode_pairs<'a>(lane: &mut Encoder, dict: &mut Dict<'a>, pairs: &'a [(String, String)]) {
    lane.u64(pairs.len() as u64);
    for (k, v) in pairs {
        let k = dict.intern(k);
        let v = dict.intern(v);
        lane.u64(k);
        lane.u64(v);
    }
}

/// Encodes `events` into one sealed segment blob.
pub fn encode_segment(events: &[Event]) -> Vec<u8> {
    let mut dict = Dict::default();
    let mut rid_index: HashMap<RequestId, u64> = HashMap::new();
    let mut rid_dict: Vec<RequestId> = Vec::new();

    let mut kinds = vec![0u8; events.len().div_ceil(8)];
    let mut rid_lane = Encoder::new();
    let mut method_lane = Encoder::new();
    let mut path_lane = Encoder::new();
    let mut query_lane = Encoder::new();
    let mut post_lane = Encoder::new();
    let mut cookie_lane = Encoder::new();
    let mut label_lane = Encoder::new();
    let mut status_lane = Encoder::new();
    let mut header_lane = Encoder::new();
    let mut body_lane = Encoder::new();

    for (i, event) in events.iter().enumerate() {
        let rid = event.rid();
        let rid_idx = *rid_index.entry(rid).or_insert_with(|| {
            rid_dict.push(rid);
            rid_dict.len() as u64 - 1
        });
        rid_lane.u64(rid_idx);
        match event {
            Event::Request(_, req) => {
                method_lane.u64(dict.intern(&req.method));
                path_lane.u64(dict.intern(&req.path));
                encode_pairs(&mut query_lane, &mut dict, &req.query);
                encode_pairs(&mut post_lane, &mut dict, &req.post);
                encode_pairs(&mut cookie_lane, &mut dict, &req.cookies);
            }
            Event::Response(_, resp) => {
                kinds[i / 8] |= 1 << (i % 8);
                if resp.rid_label == rid {
                    label_lane.u64(0);
                } else {
                    label_lane.u64(1);
                    label_lane.u64(resp.rid_label.0);
                }
                status_lane.u64(resp.status as u64);
                encode_pairs(&mut header_lane, &mut dict, &resp.headers);
                body_lane.u64(dict.intern(&resp.body));
            }
        }
    }

    let mut payload = Encoder::new();
    payload.u64(dict.strings.len() as u64);
    for s in &dict.strings {
        payload.str(s);
    }
    payload.u64(rid_dict.len() as u64);
    let mut prev = 0u64;
    for (k, rid) in rid_dict.iter().enumerate() {
        if k == 0 {
            payload.u64(rid.0);
        } else {
            payload.i64(rid.0.wrapping_sub(prev) as i64);
        }
        prev = rid.0;
    }
    payload.bytes(&kinds);
    for lane in [
        rid_lane,
        method_lane,
        path_lane,
        query_lane,
        post_lane,
        cookie_lane,
        label_lane,
        status_lane,
        header_lane,
        body_lane,
    ] {
        payload.bytes(&lane.into_bytes());
    }
    let payload = payload.into_bytes();

    let mut out = Encoder::new();
    for b in SEGMENT_MAGIC {
        out.byte(b);
    }
    out.byte(SEGMENT_VERSION);
    out.u64(events.len() as u64);
    out.u64(fnv1a(&payload));
    out.bytes(&crate::lz::compress(&payload));
    out.into_bytes()
}

/// The parsed header of a segment blob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentHeader {
    /// Format version.
    pub version: u8,
    /// Number of events the payload holds.
    pub event_count: u64,
    /// FNV-1a 64 checksum of the uncompressed payload bytes.
    pub checksum: u64,
    /// Compressed payload length in bytes.
    pub payload_len: u64,
}

fn corrupt(path: &str, detail: impl Into<String>) -> TraceStoreError {
    TraceStoreError::corrupt(path, detail)
}

fn wire_detail(path: &str, e: WireError) -> TraceStoreError {
    match e {
        WireError::UnexpectedEof => corrupt(path, "segment truncated"),
        other => corrupt(path, format!("{other}")),
    }
}

/// Parses and validates the header of `bytes` (magic, version, counts)
/// without touching the payload. `path` labels diagnostics.
pub fn read_header(bytes: &[u8], path: &str) -> Result<SegmentHeader, TraceStoreError> {
    let mut dec = Decoder::new(bytes);
    let mut magic = [0u8; 4];
    for slot in &mut magic {
        *slot = dec.byte().map_err(|e| wire_detail(path, e))?;
    }
    if magic != SEGMENT_MAGIC {
        return Err(corrupt(path, "bad segment magic"));
    }
    let version = dec.byte().map_err(|e| wire_detail(path, e))?;
    if version != SEGMENT_VERSION {
        return Err(corrupt(
            path,
            format!("unsupported segment version {version}"),
        ));
    }
    let event_count = dec.u64().map_err(|e| wire_detail(path, e))?;
    let checksum = dec.u64().map_err(|e| wire_detail(path, e))?;
    let payload_len = dec.u64().map_err(|e| wire_detail(path, e))?;
    Ok(SegmentHeader {
        version,
        event_count,
        checksum,
        payload_len,
    })
}

struct LaneReader {
    buf: Vec<u8>,
}

impl LaneReader {
    fn take(dec: &mut Decoder<'_>, path: &str) -> Result<Self, TraceStoreError> {
        Ok(LaneReader {
            buf: dec.bytes().map_err(|e| wire_detail(path, e))?,
        })
    }
}

fn decode_pairs(
    dec: &mut Decoder<'_>,
    dict: &[String],
    path: &str,
) -> Result<Vec<(String, String)>, TraceStoreError> {
    let n = dec.u64().map_err(|e| wire_detail(path, e))? as usize;
    if n > dec.remaining() {
        return Err(corrupt(path, "pair count exceeds lane"));
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push((dict_str(dec, dict, path)?, dict_str(dec, dict, path)?));
    }
    Ok(out)
}

fn dict_str(dec: &mut Decoder<'_>, dict: &[String], path: &str) -> Result<String, TraceStoreError> {
    let idx = dec.u64().map_err(|e| wire_detail(path, e))? as usize;
    dict.get(idx)
        .cloned()
        .ok_or_else(|| corrupt(path, "string dictionary index out of range"))
}

/// Decodes a sealed segment back into its events, verifying the header
/// and the payload checksum. `path` labels diagnostics.
pub fn decode_segment(bytes: &[u8], path: &str) -> Result<Vec<Event>, TraceStoreError> {
    let header = read_header(bytes, path)?;
    // Re-position past the header the same way read_header consumed it.
    let mut dec = Decoder::new(bytes);
    for _ in 0..5 {
        dec.byte().map_err(|e| wire_detail(path, e))?;
    }
    dec.u64().map_err(|e| wire_detail(path, e))?;
    dec.u64().map_err(|e| wire_detail(path, e))?;
    let packed = dec.bytes().map_err(|e| wire_detail(path, e))?;
    if !dec.is_done() {
        return Err(corrupt(path, "trailing bytes after payload"));
    }
    // Payload corruption can surface either as a structurally invalid
    // compressed stream or as wrong decompressed bytes; both funnel
    // into the one stable checksum diagnostic.
    let payload =
        crate::lz::decompress(&packed).map_err(|_| corrupt(path, "segment checksum mismatch"))?;
    if fnv1a(&payload) != header.checksum {
        return Err(corrupt(path, "segment checksum mismatch"));
    }
    let event_count = header.event_count as usize;

    let mut p = Decoder::new(&payload);
    let n_strings = p.u64().map_err(|e| wire_detail(path, e))? as usize;
    if n_strings > p.remaining() {
        return Err(corrupt(path, "string dictionary count exceeds payload"));
    }
    let mut dict = Vec::with_capacity(n_strings);
    for _ in 0..n_strings {
        dict.push(p.str().map_err(|e| wire_detail(path, e))?);
    }
    let n_rids = p.u64().map_err(|e| wire_detail(path, e))? as usize;
    if n_rids > p.remaining() {
        return Err(corrupt(path, "rid dictionary count exceeds payload"));
    }
    let mut rid_dict: Vec<RequestId> = Vec::with_capacity(n_rids);
    let mut prev = 0u64;
    for k in 0..n_rids {
        let rid = if k == 0 {
            p.u64().map_err(|e| wire_detail(path, e))?
        } else {
            let delta = p.i64().map_err(|e| wire_detail(path, e))?;
            prev.wrapping_add(delta as u64)
        };
        rid_dict.push(RequestId(rid));
        prev = rid;
    }
    let kinds = p.bytes().map_err(|e| wire_detail(path, e))?;
    if kinds.len() != event_count.div_ceil(8) {
        return Err(corrupt(
            path,
            "kinds lane length disagrees with event count",
        ));
    }
    let mut lanes = Vec::with_capacity(10);
    for _ in 0..10 {
        lanes.push(LaneReader::take(&mut p, path)?);
    }
    if !p.is_done() {
        return Err(corrupt(path, "trailing bytes after lanes"));
    }
    let [rid_buf, method_buf, path_buf, query_buf, post_buf, cookie_buf, label_buf, status_buf, header_buf, body_buf]: [LaneReader; 10] =
        lanes.try_into().ok().expect("exactly ten lanes");
    let mut rid_lane = Decoder::new(&rid_buf.buf);
    let mut method_lane = Decoder::new(&method_buf.buf);
    let mut path_lane = Decoder::new(&path_buf.buf);
    let mut query_lane = Decoder::new(&query_buf.buf);
    let mut post_lane = Decoder::new(&post_buf.buf);
    let mut cookie_lane = Decoder::new(&cookie_buf.buf);
    let mut label_lane = Decoder::new(&label_buf.buf);
    let mut status_lane = Decoder::new(&status_buf.buf);
    let mut header_lane = Decoder::new(&header_buf.buf);
    let mut body_lane = Decoder::new(&body_buf.buf);

    let mut events = Vec::with_capacity(event_count);
    for i in 0..event_count {
        let rid_idx = rid_lane.u64().map_err(|e| wire_detail(path, e))? as usize;
        let rid = *rid_dict
            .get(rid_idx)
            .ok_or_else(|| corrupt(path, "rid dictionary index out of range"))?;
        let is_response = kinds[i / 8] & (1 << (i % 8)) != 0;
        if is_response {
            let labeled = label_lane.u64().map_err(|e| wire_detail(path, e))?;
            let rid_label = match labeled {
                0 => rid,
                1 => RequestId(label_lane.u64().map_err(|e| wire_detail(path, e))?),
                _ => return Err(corrupt(path, "bad response label marker")),
            };
            let status = status_lane.u64().map_err(|e| wire_detail(path, e))?;
            if status > u16::MAX as u64 {
                return Err(corrupt(path, "status out of range"));
            }
            events.push(Event::Response(
                rid,
                HttpResponse {
                    rid_label,
                    status: status as u16,
                    headers: decode_pairs(&mut header_lane, &dict, path)?,
                    body: dict_str(&mut body_lane, &dict, path)?,
                },
            ));
        } else {
            events.push(Event::Request(
                rid,
                HttpRequest {
                    method: dict_str(&mut method_lane, &dict, path)?,
                    path: dict_str(&mut path_lane, &dict, path)?,
                    query: decode_pairs(&mut query_lane, &dict, path)?,
                    post: decode_pairs(&mut post_lane, &dict, path)?,
                    cookies: decode_pairs(&mut cookie_lane, &dict, path)?,
                },
            ));
        }
    }
    for (lane, name) in [
        (&rid_lane, "rid"),
        (&method_lane, "method"),
        (&path_lane, "path"),
        (&query_lane, "query"),
        (&post_lane, "post"),
        (&cookie_lane, "cookie"),
        (&label_lane, "label"),
        (&status_lane, "status"),
        (&header_lane, "header"),
        (&body_lane, "body"),
    ] {
        if !lane.is_done() {
            return Err(corrupt(path, format!("{name} lane not fully consumed")));
        }
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<Event> {
        let r1 = RequestId(10);
        let r2 = RequestId(11);
        vec![
            Event::Request(
                r1,
                HttpRequest::post("/shop.php", &[("a", "1")], &[("item", "7")])
                    .with_cookie("sess", "u1"),
            ),
            Event::Request(r2, HttpRequest::get("/shop.php", &[("a", "1")])),
            Event::Response(
                r1,
                HttpResponse {
                    rid_label: r1,
                    status: 200,
                    headers: vec![("Set-Cookie".into(), "sess=u1".into())],
                    body: "ok".into(),
                },
            ),
            Event::Response(r2, HttpResponse::ok(r2, "ok")),
        ]
    }

    #[test]
    fn roundtrip_preserves_events() {
        let events = sample_events();
        let blob = encode_segment(&events);
        assert_eq!(decode_segment(&blob, "seg").unwrap(), events);
    }

    #[test]
    fn roundtrip_preserves_mislabeled_responses() {
        let rid = RequestId(1);
        let events = vec![
            Event::Request(rid, HttpRequest::get("/x", &[])),
            Event::Response(rid, HttpResponse::ok(RequestId(99), "ok")),
        ];
        let blob = encode_segment(&events);
        assert_eq!(decode_segment(&blob, "seg").unwrap(), events);
    }

    #[test]
    fn empty_segment_roundtrips() {
        let blob = encode_segment(&[]);
        assert_eq!(decode_segment(&blob, "seg").unwrap(), Vec::<Event>::new());
    }

    #[test]
    fn header_reports_counts() {
        let events = sample_events();
        let blob = encode_segment(&events);
        let header = read_header(&blob, "seg").unwrap();
        assert_eq!(header.event_count, 4);
        assert_eq!(header.version, SEGMENT_VERSION);
    }

    #[test]
    fn dictionary_makes_repetition_cheap() {
        // 100 identical request/response pairs (distinct rids): the
        // dictionary should amortize every string to near zero.
        let mut events = Vec::new();
        for i in 0..100u64 {
            let rid = RequestId(i + 1);
            events.push(Event::Request(
                rid,
                HttpRequest::get("/wiki.php", &[("page", "Main")]),
            ));
            events.push(Event::Response(rid, HttpResponse::ok(rid, "the page body")));
        }
        let blob = encode_segment(&events);
        assert!(
            blob.len() < events.len() * 8,
            "expected < 8 bytes/event, got {} for {} events",
            blob.len(),
            events.len()
        );
    }

    #[test]
    fn flipped_payload_byte_fails_checksum() {
        let blob = encode_segment(&sample_events());
        let mut bad = blob.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x40;
        let err = decode_segment(&bad, "seg").unwrap_err();
        assert_eq!(
            err,
            TraceStoreError::corrupt("seg", "segment checksum mismatch")
        );
    }

    #[test]
    fn truncated_tail_is_rejected() {
        let blob = encode_segment(&sample_events());
        let err = decode_segment(&blob[..blob.len() - 3], "seg").unwrap_err();
        assert_eq!(err, TraceStoreError::corrupt("seg", "segment truncated"));
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut blob = encode_segment(&sample_events());
        blob[0] = b'X';
        let err = decode_segment(&blob, "seg").unwrap_err();
        assert_eq!(err, TraceStoreError::corrupt("seg", "bad segment magic"));
    }

    #[test]
    fn unsupported_version_is_rejected() {
        let mut blob = encode_segment(&sample_events());
        blob[4] = 9;
        let err = decode_segment(&blob, "seg").unwrap_err();
        assert_eq!(
            err,
            TraceStoreError::corrupt("seg", "unsupported segment version 9")
        );
    }
}
