//! The opt-in length-prefixed **binary framing** of the wire protocol.
//!
//! JSON-lines stays the default transport and the only format a
//! connection speaks before negotiation. A client upgrades by sending
//! `{"op":"hello","format":"binary"}` as an ordinary JSON line; the
//! server acknowledges in JSON and **both directions then switch to
//! frames**:
//!
//! ```text
//! frame   := length payload
//! length  := u32 LE — byte length of payload (tag byte included)
//! payload := tag body
//! tag     := u8 — one of the TAG_* constants below
//! ```
//!
//! Every integer is little-endian. The hot payloads get dense bodies —
//! permutations travel as raw `u32` arrays and schedules as
//! slot-prefixed flat arrays — while everything else (control ops,
//! errors, batch summaries) rides unchanged JSON documents inside
//! [`TAG_JSON`] frames, so the two formats share one error vocabulary
//! and feature set.
//!
//! | tag | direction | body |
//! |---|---|---|
//! | [`TAG_JSON`] | both | a UTF-8 JSON document (any op / any response) |
//! | [`TAG_ROUTE`] | request | `kind:u8 flags:u8 d:u32 g:u32 n:u32 perm:[u32; n]` |
//! | [`TAG_BATCH`] | request | `flags:u8 count:u32` then per item `d:u32 g:u32 n:u32 perm:[u32; n]` |
//! | [`TAG_ROUTE_REPLY`] | response | `flags:u8 slots:u32 micros:u64 [schedule]` |
//! | [`TAG_BATCH_ITEM`] | response | `index:u32 d:u32 g:u32 slots:u32 has_schedule:u8 [schedule]` |
//!
//! `kind` is a [`RequestKind`] index and must name a permutation-carrying
//! kind (`theorem2`, `single-slot`, `direct`, `structured`); h-relations
//! and fault routing keep their richer JSON bodies inside [`TAG_JSON`]
//! frames. A `d = g = 0` shape means "the server's default topology",
//! mirroring a JSON request without `d`/`g` fields. Request `flags` bit 0
//! is `want_schedule`; route-reply `flags` bit 0 is `cache_hit` and bit 1
//! is "a schedule body follows".
//!
//! The schedule body is a slot-prefixed flat array, laid out and read by
//! [`pops_network::codec`] (the same bytes are a plan-cache entry and a
//! spill record):
//!
//! ```text
//! schedule := slot_count:u32 slot*
//! slot     := tx_count:u32 tx*
//! tx       := sender:u32 coupler:u32 packet:u32 rx_count:u32 rx:[u32; rx_count]
//! ```
//!
//! This module keeps the framing and the request and reply bodies around
//! that schedule. Decoders validate every count against the bytes
//! actually present before allocating, so a hostile length field cannot
//! balloon memory beyond the server's frame cap (the same
//! `max_line_bytes` bound the JSON transport enforces).

use std::io::{Read, Write};

use pops_network::codec::{self, push_u32, Reader};
use pops_network::Schedule;
use pops_permutation::Permutation;

use crate::metrics::RequestKind;

/// Frame carries a UTF-8 JSON document (either direction).
pub const TAG_JSON: u8 = 0x00;
/// Frame carries a binary route request.
pub const TAG_ROUTE: u8 = 0x01;
/// Frame carries a binary batch request.
pub const TAG_BATCH: u8 = 0x02;
/// Frame carries a binary route reply.
pub const TAG_ROUTE_REPLY: u8 = 0x81;
/// Frame carries one successful binary batch item.
pub const TAG_BATCH_ITEM: u8 = 0x82;

/// Request-flag bit: the caller wants the schedule body in the response.
pub const FLAG_WANT_SCHEDULE: u8 = 0x01;
/// Route-reply flag bit: the plan came from the server's cache.
pub const FLAG_CACHE_HIT: u8 = 0x01;
/// Route-reply flag bit: a schedule body follows the fixed fields.
pub const FLAG_HAS_SCHEDULE: u8 = 0x02;

/// Writes one frame: `u32 LE` payload length, then the payload.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    // One write, not a header write followed by a payload write: on a
    // raw socket without TCP_NODELAY, Nagle holds the second segment
    // until the peer's delayed ACK (~40 ms) fires, stalling every frame.
    let mut buf = Vec::with_capacity(4 + payload.len());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(payload);
    w.write_all(&buf)
}

/// Reads one frame payload, refusing lengths above `max_bytes`. Blocking;
/// the server uses its own deadline-aware reader instead.
pub fn read_frame(r: &mut impl Read, max_bytes: usize) -> std::io::Result<Vec<u8>> {
    let mut header = [0u8; 4];
    r.read_exact(&mut header)?;
    let len = u32::from_le_bytes(header) as usize;
    if len > max_bytes {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {max_bytes}-byte cap"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

/// Re-exported from [`pops_network::codec`], which owns the schedule
/// byte layout.
pub use pops_network::codec::encode_schedule;

/// [`encode_schedule`] for the service's own reply and cache paths. Test
/// builds count the calls on this thread, so a test can assert that a
/// path copies a cached encoding, or has the engine write it, instead of
/// encoding a schedule.
// lint: hot-path
pub(crate) fn encode(buf: &mut Vec<u8>, schedule: &Schedule) {
    #[cfg(test)]
    SCHEDULE_ENCODES.with(|count| count.set(count.get() + 1));
    encode_schedule(buf, schedule);
}

#[cfg(test)]
thread_local! {
    /// Calls of [`encode`] on this thread.
    pub(crate) static SCHEDULE_ENCODES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Reads `d:u32 g:u32 n:u32 perm:[u32; n]`: a shape and a permutation, or
/// why the image is not a bijection.
fn shaped_perm(r: &mut Reader<'_>) -> Result<BatchFrameItem, String> {
    let shape = (r.u32()? as usize, r.u32()? as usize);
    let n = r.count(4, "array")?;
    let perm = Permutation::new(r.u32s(n)?).map_err(|e| e.to_string());
    Ok(BatchFrameItem { shape, perm })
}

/// Appends `d:u32 g:u32 n:u32 perm:[u32; n]`; no shape rides as
/// `d = g = 0`, the server's default.
// lint: hot-path
fn push_shaped_perm(buf: &mut Vec<u8>, shape: Option<(usize, usize)>, pi: &Permutation) {
    let (d, g) = shape.unwrap_or((0, 0));
    push_u32(buf, d);
    push_u32(buf, g);
    push_u32(buf, pi.len());
    for &v in pi.as_slice() {
        push_u32(buf, v);
    }
}

/// A schedule body to write into a reply: a schedule to encode, or the
/// bytes [`encode_schedule`] already wrote for it (a cached plan).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Body<'a> {
    /// A decoded schedule, encoded as the reply is written.
    Schedule(&'a Schedule),
    /// An encoded schedule and its slot count, copied as they are.
    Encoded { slots: usize, bytes: &'a [u8] },
}

impl Body<'_> {
    fn slot_count(&self) -> usize {
        match self {
            Body::Schedule(schedule) => schedule.slot_count(),
            Body::Encoded { slots, .. } => *slots,
        }
    }

    /// Byte length of the body, or 0 for a reply that carries none.
    fn len(&self, want_schedule: bool) -> usize {
        match self {
            _ if !want_schedule => 0,
            Body::Schedule(schedule) => codec::encoded_len(schedule),
            Body::Encoded { bytes, .. } => bytes.len(),
        }
    }

    // lint: hot-path
    fn write(&self, out: &mut Vec<u8>) {
        match self {
            Body::Schedule(schedule) => encode(out, schedule),
            Body::Encoded { bytes, .. } => out.extend_from_slice(bytes),
        }
    }
}

/// Appends one frame to `wire`: the `u32 LE` length prefix, then the
/// payload `write` appends, so the payload is encoded once, in place.
pub(crate) fn push_frame(wire: &mut Vec<u8>, write: impl FnOnce(&mut Vec<u8>)) {
    let start = wire.len();
    wire.extend_from_slice(&[0; 4]);
    write(wire);
    let len = (wire.len() - start - 4) as u32;
    if let Some(prefix) = wire.get_mut(start..start + 4) {
        prefix.copy_from_slice(&len.to_le_bytes());
    }
}

/// A decoded [`TAG_ROUTE`] request body.
#[derive(Debug, Clone)]
pub struct RouteFrame {
    /// The routing kind (always a permutation-carrying kind).
    pub kind: RequestKind,
    /// Whether the reply should carry the schedule body.
    pub want_schedule: bool,
    /// Requested shape; `(0, 0)` selects the server's default topology.
    pub shape: (usize, usize),
    /// The permutation image, validated as a bijection.
    pub perm: Result<Permutation, String>,
}

/// Encodes a [`TAG_ROUTE`] request payload.
// lint: hot-path
pub fn encode_route_request(
    kind: RequestKind,
    want_schedule: bool,
    shape: Option<(usize, usize)>,
    pi: &Permutation,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(2 + 12 + 4 * pi.len() + 2);
    out.push(TAG_ROUTE);
    out.push(kind.index() as u8);
    out.push(if want_schedule { FLAG_WANT_SCHEDULE } else { 0 });
    push_shaped_perm(&mut out, shape, pi);
    out
}

/// Decodes a [`TAG_ROUTE`] body (the tag byte already consumed).
pub fn decode_route_request(body: &[u8]) -> Result<RouteFrame, String> {
    let mut r = Reader::new(body, "frame");
    let kind_index = r.u8()? as usize;
    let kind = *RequestKind::ALL
        .get(kind_index)
        .ok_or_else(|| format!("unknown binary kind index {kind_index}"))?;
    if !matches!(
        kind,
        RequestKind::Theorem2
            | RequestKind::SingleSlot
            | RequestKind::Direct
            | RequestKind::Structured
    ) {
        return Err(format!(
            "kind '{}' has no binary body; send it as a JSON frame",
            kind.name()
        ));
    }
    let want_schedule = r.u8()? & FLAG_WANT_SCHEDULE != 0;
    let BatchFrameItem { shape, perm } = shaped_perm(&mut r)?;
    r.done()?;
    Ok(RouteFrame {
        kind,
        want_schedule,
        shape,
        perm,
    })
}

/// One decoded item of a [`TAG_BATCH`] request: the requested shape
/// (`(0, 0)` = server default) and the permutation, or why it is invalid.
#[derive(Debug, Clone)]
pub struct BatchFrameItem {
    /// Requested shape; `(0, 0)` selects the server's default topology.
    pub shape: (usize, usize),
    /// The permutation, validated as a bijection.
    pub perm: Result<Permutation, String>,
}

/// Encodes a [`TAG_BATCH`] request payload. `shape = None` items ride as
/// `d = g = 0` (server default).
// lint: hot-path
pub fn encode_batch_request(
    want_schedule: bool,
    items: impl IntoIterator<Item = (Option<(usize, usize)>, Permutation)>,
) -> Vec<u8> {
    let items: Vec<_> = items.into_iter().collect();
    let mut out =
        Vec::with_capacity(6 + items.iter().map(|(_, pi)| 12 + 4 * pi.len()).sum::<usize>());
    out.push(TAG_BATCH);
    out.push(if want_schedule { FLAG_WANT_SCHEDULE } else { 0 });
    push_u32(&mut out, items.len());
    for (shape, pi) in &items {
        push_shaped_perm(&mut out, *shape, pi);
    }
    out
}

/// Decodes a [`TAG_BATCH`] body (the tag byte already consumed).
pub fn decode_batch_request(body: &[u8]) -> Result<(Vec<BatchFrameItem>, bool), String> {
    let mut r = Reader::new(body, "frame");
    let want_schedule = r.u8()? & FLAG_WANT_SCHEDULE != 0;
    // Each item needs at least its 12 fixed bytes.
    let count = r.count(12, "item")?;
    if count == 0 {
        return Err("batch frame carries no items".into());
    }
    let mut items = Vec::with_capacity(count);
    for _ in 0..count {
        items.push(shaped_perm(&mut r)?);
    }
    r.done()?;
    Ok((items, want_schedule))
}

/// Encodes a [`TAG_ROUTE_REPLY`] payload.
pub fn encode_route_reply(
    cache_hit: bool,
    micros: u64,
    schedule: &Schedule,
    want_schedule: bool,
) -> Vec<u8> {
    let mut out = Vec::new();
    let body = Body::Schedule(schedule);
    push_route_reply(&mut out, cache_hit, micros, body, want_schedule);
    out
}

/// Appends a [`TAG_ROUTE_REPLY`] payload to `out`, reserving its exact
/// length first.
// lint: hot-path
pub(crate) fn push_route_reply(
    out: &mut Vec<u8>,
    cache_hit: bool,
    micros: u64,
    body: Body<'_>,
    want_schedule: bool,
) {
    let mut flags = 0u8;
    if cache_hit {
        flags |= FLAG_CACHE_HIT;
    }
    if want_schedule {
        flags |= FLAG_HAS_SCHEDULE;
    }
    out.reserve(14 + body.len(want_schedule));
    out.push(TAG_ROUTE_REPLY);
    out.push(flags);
    push_u32(out, body.slot_count());
    out.extend_from_slice(&micros.to_le_bytes());
    if want_schedule {
        body.write(out);
    }
}

/// A decoded [`TAG_ROUTE_REPLY`] body.
#[derive(Debug, Clone)]
pub struct RouteReplyFrame {
    /// Whether the plan came from the server's cache.
    pub cache_hit: bool,
    /// Slot count of the schedule.
    pub slots: usize,
    /// Server-side service time in microseconds.
    pub micros: u64,
    /// The schedule (empty when the request suppressed it).
    pub schedule: Schedule,
}

/// Decodes a [`TAG_ROUTE_REPLY`] body (the tag byte already consumed).
pub fn decode_route_reply(body: &[u8]) -> Result<RouteReplyFrame, String> {
    let mut r = Reader::new(body, "frame");
    let flags = r.u8()?;
    let slots = r.u32()? as usize;
    let micros = r.u64()?;
    let schedule = if flags & FLAG_HAS_SCHEDULE != 0 {
        codec::decode_schedule(&mut r)?
    } else {
        Schedule::new()
    };
    r.done()?;
    Ok(RouteReplyFrame {
        cache_hit: flags & FLAG_CACHE_HIT != 0,
        slots,
        micros,
        schedule,
    })
}

/// Encodes a [`TAG_BATCH_ITEM`] payload for one successful item.
pub fn encode_batch_item(
    index: usize,
    d: usize,
    g: usize,
    schedule: &Schedule,
    want_schedule: bool,
) -> Vec<u8> {
    let mut out = Vec::new();
    let body = Body::Schedule(schedule);
    push_batch_item(&mut out, index, d, g, body, want_schedule);
    out
}

/// Appends a [`TAG_BATCH_ITEM`] payload to `out`, reserving its exact
/// length first.
// lint: hot-path
pub(crate) fn push_batch_item(
    out: &mut Vec<u8>,
    index: usize,
    d: usize,
    g: usize,
    body: Body<'_>,
    want_schedule: bool,
) {
    out.reserve(18 + body.len(want_schedule));
    out.push(TAG_BATCH_ITEM);
    push_u32(out, index);
    push_u32(out, d);
    push_u32(out, g);
    push_u32(out, body.slot_count());
    out.push(if want_schedule { 1 } else { 0 });
    if want_schedule {
        body.write(out);
    }
}

/// A decoded [`TAG_BATCH_ITEM`] body.
#[derive(Debug, Clone)]
pub struct BatchItemFrame {
    /// The item's position in the submitted batch.
    pub index: usize,
    /// Processors per group of the topology that served this item.
    pub d: usize,
    /// Number of groups of the topology that served this item.
    pub g: usize,
    /// Slot count of the schedule.
    pub slots: usize,
    /// The schedule (empty unless the batch asked for schedule bodies).
    pub schedule: Schedule,
}

/// Decodes a [`TAG_BATCH_ITEM`] body (the tag byte already consumed).
pub fn decode_batch_item(body: &[u8]) -> Result<BatchItemFrame, String> {
    let mut r = Reader::new(body, "frame");
    let index = r.u32()? as usize;
    let d = r.u32()? as usize;
    let g = r.u32()? as usize;
    let slots = r.u32()? as usize;
    let has_schedule = r.u8()? != 0;
    let schedule = if has_schedule {
        codec::decode_schedule(&mut r)?
    } else {
        Schedule::new()
    };
    r.done()?;
    Ok(BatchItemFrame {
        index,
        d,
        g,
        slots,
        schedule,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pops_network::{SlotFrame, Transmission};
    use pops_permutation::families::vector_reversal;

    fn sample_schedule() -> Schedule {
        Schedule {
            slots: vec![
                SlotFrame {
                    transmissions: vec![
                        Transmission::unicast(0, 3, 7, 5),
                        Transmission {
                            sender: 2,
                            coupler: 1,
                            packet: 2,
                            receivers: vec![3, 4, 9].into(),
                        },
                    ],
                },
                SlotFrame {
                    transmissions: vec![Transmission {
                        sender: 1,
                        coupler: 0,
                        packet: 1,
                        receivers: vec![].into(),
                    }],
                },
            ],
        }
    }

    #[test]
    fn route_request_round_trips() {
        let pi = vector_reversal(16);
        let payload = encode_route_request(RequestKind::Theorem2, true, Some((4, 4)), &pi);
        assert_eq!(payload[0], TAG_ROUTE);
        let frame = decode_route_request(&payload[1..]).unwrap();
        assert_eq!(frame.kind, RequestKind::Theorem2);
        assert!(frame.want_schedule);
        assert_eq!(frame.shape, (4, 4));
        assert_eq!(frame.perm.unwrap(), pi);
    }

    #[test]
    fn route_request_rejects_non_perm_kinds_and_bad_perms() {
        let pi = vector_reversal(4);
        let mut payload = encode_route_request(RequestKind::Theorem2, false, None, &pi);
        payload[1] = RequestKind::HRelation.index() as u8;
        let err = decode_route_request(&payload[1..]).unwrap_err();
        assert!(err.contains("JSON frame"), "{err}");

        // A non-bijective image decodes but carries the error.
        let mut dup = encode_route_request(RequestKind::Theorem2, false, None, &pi);
        let last = dup.len() - 4;
        dup[last..].copy_from_slice(&3u32.to_le_bytes()); // duplicate 3
        let frame = decode_route_request(&dup[1..]).unwrap();
        assert!(frame.perm.is_err());
    }

    #[test]
    fn batch_request_round_trips() {
        let pi = vector_reversal(16);
        let payload =
            encode_batch_request(false, vec![(None, pi.clone()), (Some((2, 8)), pi.clone())]);
        assert_eq!(payload[0], TAG_BATCH);
        let (items, want_schedule) = decode_batch_request(&payload[1..]).unwrap();
        assert!(!want_schedule);
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].shape, (0, 0));
        assert_eq!(items[1].shape, (2, 8));
        assert_eq!(items[1].perm.as_ref().unwrap(), &pi);
    }

    #[test]
    fn route_reply_round_trips_with_and_without_schedule() {
        let schedule = sample_schedule();
        let with = encode_route_reply(true, 42, &schedule, true);
        assert_eq!(with[0], TAG_ROUTE_REPLY);
        let frame = decode_route_reply(&with[1..]).unwrap();
        assert!(frame.cache_hit);
        assert_eq!(frame.micros, 42);
        assert_eq!(frame.slots, 2);
        assert_eq!(frame.schedule, schedule);

        let without = encode_route_reply(false, 7, &schedule, false);
        let frame = decode_route_reply(&without[1..]).unwrap();
        assert!(!frame.cache_hit);
        assert_eq!(frame.slots, 2, "slot count survives without the body");
        assert_eq!(frame.schedule.slot_count(), 0);
    }

    #[test]
    fn batch_item_round_trips() {
        let schedule = sample_schedule();
        let payload = encode_batch_item(3, 4, 4, &schedule, true);
        assert_eq!(payload[0], TAG_BATCH_ITEM);
        let frame = decode_batch_item(&payload[1..]).unwrap();
        assert_eq!((frame.index, frame.d, frame.g, frame.slots), (3, 4, 4, 2));
        assert_eq!(frame.schedule, schedule);
    }

    #[test]
    fn hostile_counts_cannot_balloon_allocations() {
        // A route reply whose schedule claims 2^31 slots in a 12-byte
        // body must be refused before any allocation sized by the count.
        let mut buf = vec![FLAG_HAS_SCHEDULE];
        buf.extend_from_slice(&[0u8; 12]); // slots, micros
        buf.extend_from_slice(&(1u32 << 31).to_le_bytes());
        buf.extend_from_slice(&[0u8; 8]);
        assert!(decode_route_reply(&buf).is_err());

        // Same for a batch item count.
        let mut buf = vec![0u8]; // flags
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert!(decode_batch_request(&buf).is_err());

        // And a permutation length inside a route request.
        let mut buf = vec![RequestKind::Theorem2.index() as u8, 0];
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert!(decode_route_request(&buf).is_err());
    }

    #[test]
    fn frames_round_trip_through_a_stream() {
        let payload = encode_batch_item(0, 2, 2, &sample_schedule(), true);
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        write_frame(&mut wire, &payload).unwrap();
        let mut cursor = std::io::Cursor::new(wire);
        for _ in 0..2 {
            let back = read_frame(&mut cursor, 1 << 20).unwrap();
            assert_eq!(back, payload);
        }
        // An oversized declared length is refused without allocating it.
        let mut wire = Vec::new();
        wire.extend_from_slice(&(u32::MAX).to_le_bytes());
        let mut cursor = std::io::Cursor::new(wire);
        assert!(read_frame(&mut cursor, 1 << 20).is_err());
    }

    #[test]
    fn trailing_garbage_is_refused() {
        let pi = vector_reversal(4);
        let mut payload = encode_route_request(RequestKind::Direct, false, None, &pi);
        payload.push(0xFF);
        assert!(decode_route_request(&payload[1..])
            .unwrap_err()
            .contains("trailing"));
    }
}
