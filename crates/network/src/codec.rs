//! The dense **schedule codec**: the byte layout of a [`Schedule`].
//!
//! One layout serves three places. It is the schedule body of a dense
//! wire reply, the schedule record of a plan-cache spill file, and the
//! bytes a plan-cache entry holds. The layout is a slot-prefixed flat
//! array of little-endian `u32`s:
//!
//! ```text
//! schedule := slot_count:u32 slot*
//! slot     := tx_count:u32 tx*
//! tx       := sender:u32 coupler:u32 packet:u32 rx_count:u32 rx:[u32; rx_count]
//! ```
//!
//! A unicast transmission, which is every one a permutation routing
//! emits, is one 20-byte record ([`UNICAST_BYTES`]). Two writers produce
//! these bytes: [`encode_schedule`] encodes a built [`Schedule`], and a
//! planner that already knows its transmissions can write the records as
//! it emits them with [`push_u32`] and [`push_unicast`], never building
//! the schedule at all.
//!
//! The [`Reader`] is bounds-checked. [`decode_schedule`] and
//! [`read_encoded_schedule`] check every count against the bytes
//! actually present before allocating, so a hostile length field cannot
//! balloon memory beyond the size of the input itself.
//!
//! ```
//! use pops_network::codec::{self, Reader};
//! use pops_network::{Schedule, SlotFrame, Transmission};
//!
//! let schedule = Schedule {
//!     slots: vec![SlotFrame {
//!         transmissions: vec![Transmission::unicast(0, 1, 0, 3)],
//!     }],
//! };
//! let mut bytes = Vec::new();
//! codec::encode_schedule(&mut bytes, &schedule);
//! assert_eq!(bytes.len(), codec::encoded_len(&schedule));
//! assert_eq!(bytes.len(), 4 + 4 + codec::UNICAST_BYTES);
//!
//! let mut reader = Reader::new(&bytes, "frame");
//! assert_eq!(codec::decode_schedule(&mut reader).unwrap(), schedule);
//! reader.done().unwrap();
//! ```

use crate::slot::{Receivers, Schedule, SlotFrame, Transmission};

/// The bytes of one unicast transmission record: four fixed words and the
/// one receiver.
pub const UNICAST_BYTES: usize = 20;

/// A bounds-checked little-endian reader over one frame body, or over a
/// spill file, whose schedule records are the same bytes.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// What the bytes are, for error messages, e.g. `frame` or `spill`.
    what: &'static str,
}

impl<'a> Reader<'a> {
    /// A reader over `buf` whose errors call the bytes `what`.
    pub fn new(buf: &'a [u8], what: &'static str) -> Self {
        Self { buf, pos: 0, what }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn truncated(&self) -> String {
        format!("{} truncated", self.what)
    }

    /// The next `len` bytes.
    pub fn bytes(&mut self, len: usize) -> Result<&'a [u8], String> {
        let end = self.pos.checked_add(len);
        let bytes = end.and_then(|end| self.buf.get(self.pos..end));
        let bytes = bytes.ok_or_else(|| self.truncated())?;
        self.pos += len;
        Ok(bytes)
    }

    /// The next `N` little-endian `u32`s, bounds-checked once.
    fn words<const N: usize>(&mut self) -> Result<[u32; N], String> {
        Ok(le_words(self.bytes(4 * N)?))
    }

    /// The next transmission record when it is a unicast one, `sender
    /// coupler packet 1 receiver`, read in one 20-byte step; `None`, with
    /// nothing consumed, when fewer than 20 bytes remain or the receiver
    /// count is not 1.
    fn unicast(&mut self) -> Option<[usize; 4]> {
        let record = self.buf.get(self.pos..)?.first_chunk::<UNICAST_BYTES>()?;
        let [sender, coupler, packet, 1, receiver] = le_words::<5>(record) else {
            return None;
        };
        self.pos += UNICAST_BYTES;
        Some([sender, coupler, packet, receiver].map(|w| w as usize))
    }

    /// The next byte.
    pub fn u8(&mut self) -> Result<u8, String> {
        match self.bytes(1)? {
            &[b] => Ok(b),
            _ => Err(self.truncated()),
        }
    }

    /// The next little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, String> {
        let [w] = self.words()?;
        Ok(w)
    }

    /// The next little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, String> {
        let [lo, hi] = self.words()?;
        Ok(u64::from(lo) | u64::from(hi) << 32)
    }

    /// Reads a count of `item`s that take at least `min_bytes` each,
    /// passed only when that many bytes are actually present: a hostile
    /// count can never force an allocation bigger than the input itself.
    pub fn count(&mut self, min_bytes: usize, item: &str) -> Result<usize, String> {
        let count = self.u32()? as usize;
        self.guard(count, min_bytes, item)
    }

    /// Passes `count` `item`s of at least `min_bytes` each only when those
    /// bytes are actually present.
    fn guard(&self, count: usize, min_bytes: usize, item: &str) -> Result<usize, String> {
        if self.remaining() / min_bytes < count {
            let what = self.what;
            let msg = format!("{what} truncated ({item} count exceeds {what} bytes)");
            return Err(msg);
        }
        Ok(count)
    }

    /// Reads `count` `u32`s; take `count` from [`Reader::count`] so it
    /// cannot outgrow the input.
    pub fn u32s(&mut self, count: usize) -> Result<Vec<usize>, String> {
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(self.u32()? as usize);
        }
        Ok(out)
    }

    /// Succeeds only when every byte has been read.
    pub fn done(&self) -> Result<(), String> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(format!(
                "{} trailing bytes after {} body",
                self.remaining(),
                self.what
            ))
        }
    }
}

/// `N` little-endian `u32`s from the first `4 * N` bytes of `bytes`.
// lint: hot-path
fn le_words<const N: usize>(bytes: &[u8]) -> [u32; N] {
    let mut words = [0u32; N];
    for (w, chunk) in words.iter_mut().zip(bytes.chunks_exact(4)) {
        if let &[a, b, c, d] = chunk {
            *w = u32::from_le_bytes([a, b, c, d]);
        }
    }
    words
}

/// Appends `v` as one little-endian `u32`: a slot or transmission count,
/// or any other word of the layout.
// lint: hot-path
#[inline]
pub fn push_u32(buf: &mut Vec<u8>, v: usize) {
    buf.extend_from_slice(&(v as u32).to_le_bytes());
}

/// Appends one unicast transmission record: `packet` sent by `sender`
/// through `coupler` and read by `receiver`, in one 20-byte write.
// lint: hot-path
// Inlined across crates, as `push_u32` is: the engine's emission walk
// writes every record of a plan through it, and a call per record took
// about 40 % of the walk's time.
#[inline]
pub fn push_unicast(
    buf: &mut Vec<u8>,
    sender: usize,
    coupler: usize,
    packet: usize,
    receiver: usize,
) {
    let words = [sender, coupler, packet, 1, receiver];
    let mut record = [0u8; UNICAST_BYTES];
    for (chunk, w) in record.chunks_exact_mut(4).zip(words) {
        chunk.copy_from_slice(&(w as u32).to_le_bytes());
    }
    buf.extend_from_slice(&record);
}

/// Byte length of a schedule of `slots` slots whose `transmissions`
/// transmissions are all unicast.
pub fn unicast_len(slots: usize, transmissions: usize) -> usize {
    4 + 4 * slots + UNICAST_BYTES * transmissions
}

/// Byte length of [`encode_schedule`]'s output.
// lint: hot-path
pub fn encoded_len(schedule: &Schedule) -> usize {
    let tx_len = |tx: &Transmission| 16 + 4 * tx.receivers.len();
    let slot_len = |slot: &SlotFrame| 4 + slot.transmissions.iter().map(tx_len).sum::<usize>();
    4 + schedule.slots.iter().map(slot_len).sum::<usize>()
}

/// Appends the slot-prefixed flat schedule encoding to `buf`. A unicast
/// transmission is written as one 20-byte record.
// lint: hot-path
pub fn encode_schedule(buf: &mut Vec<u8>, schedule: &Schedule) {
    push_u32(buf, schedule.slots.len());
    for slot in &schedule.slots {
        push_u32(buf, slot.transmissions.len());
        for tx in &slot.transmissions {
            if let Receivers::One(receiver) = tx.receivers {
                push_unicast(buf, tx.sender, tx.coupler, tx.packet, receiver);
                continue;
            }
            push_u32(buf, tx.sender);
            push_u32(buf, tx.coupler);
            push_u32(buf, tx.packet);
            push_u32(buf, tx.receivers.len());
            for &r in &tx.receivers {
                push_u32(buf, r);
            }
        }
    }
}

/// Decodes [`encode_schedule`]'s bytes. A unicast transmission is read in
/// one 20-byte step and decodes inline as [`Receivers::One`], so a
/// schedule costs one allocation per slot, not one per transmission.
pub fn decode_schedule(r: &mut Reader<'_>) -> Result<Schedule, String> {
    // A slot needs at least its 4-byte transmission count.
    let slot_count = r.count(4, "slot")?;
    let mut schedule = Schedule::new();
    schedule.slots.reserve_exact(slot_count);
    for _ in 0..slot_count {
        // A transmission is at least 16 bytes (4 fixed u32s).
        let tx_count = r.count(16, "transmission")?;
        let mut frame = SlotFrame::new();
        frame.transmissions.reserve_exact(tx_count);
        for _ in 0..tx_count {
            if let Some([sender, coupler, packet, receiver]) = r.unicast() {
                let tx = Transmission::unicast(sender, coupler, packet, receiver);
                frame.transmissions.push(tx);
                continue;
            }
            let [sender, coupler, packet, count] = r.words()?.map(|w| w as usize);
            let receivers = match r.guard(count, 4, "array")? {
                1 => Receivers::One(r.u32()? as usize),
                count => Receivers::Many(r.u32s(count)?.into_boxed_slice()),
            };
            frame.transmissions.push(Transmission {
                sender,
                coupler,
                packet,
                receivers,
            });
        }
        schedule.slots.push(frame);
    }
    Ok(schedule)
}

/// Reads one encoded schedule without decoding it: every count is checked
/// against the bytes present exactly as [`decode_schedule`] checks it, so
/// bytes this accepts always decode. Returns the schedule's bytes and its
/// slot count; allocates nothing.
pub fn read_encoded_schedule<'a>(r: &mut Reader<'a>) -> Result<(&'a [u8], usize), String> {
    let start = r.pos;
    let slot_count = r.count(4, "slot")?;
    for _ in 0..slot_count {
        let tx_count = r.count(16, "transmission")?;
        for _ in 0..tx_count {
            if r.unicast().is_some() {
                continue;
            }
            let [_, _, _, count] = r.words()?;
            let count = r.guard(count as usize, 4, "array")?;
            r.bytes(4 * count)?;
        }
    }
    let bytes = r.buf.get(start..r.pos).ok_or_else(|| r.truncated())?;
    Ok((bytes, slot_count))
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn schedule_round_trips() {
        let schedule = sample_schedule();
        let mut buf = Vec::new();
        encode_schedule(&mut buf, &schedule);
        assert_eq!(buf.len(), encoded_len(&schedule));
        let mut r = Reader::new(&buf, "frame");
        let back = decode_schedule(&mut r).unwrap();
        r.done().unwrap();
        assert_eq!(back, schedule);

        let mut r = Reader::new(&buf, "frame");
        let (bytes, slots) = read_encoded_schedule(&mut r).unwrap();
        r.done().unwrap();
        assert_eq!((bytes, slots), (&buf[..], 2));
    }

    #[test]
    fn records_written_one_by_one_equal_the_encoding() {
        let schedule = Schedule {
            slots: vec![SlotFrame {
                transmissions: vec![
                    Transmission::unicast(0, 3, 7, 5),
                    Transmission::unicast(9, 1, 2, 4),
                ],
            }],
        };
        let mut encoded = Vec::new();
        encode_schedule(&mut encoded, &schedule);
        let mut written = Vec::new();
        push_u32(&mut written, 1);
        push_u32(&mut written, 2);
        push_unicast(&mut written, 0, 3, 7, 5);
        push_unicast(&mut written, 9, 1, 2, 4);
        assert_eq!(written, encoded);
        assert_eq!(written.len(), unicast_len(1, 2));
    }

    #[test]
    fn hostile_counts_cannot_balloon_allocations() {
        // A schedule claiming 2^31 slots in a 12-byte body must be
        // refused before any allocation sized by the count.
        let mut buf = Vec::new();
        buf.extend_from_slice(&(1u32 << 31).to_le_bytes());
        buf.extend_from_slice(&[0u8; 8]);
        assert!(decode_schedule(&mut Reader::new(&buf, "frame")).is_err());
        assert!(read_encoded_schedule(&mut Reader::new(&buf, "frame")).is_err());
    }

    #[test]
    fn truncation_and_trailing_bytes_are_errors() {
        let mut buf = Vec::new();
        encode_schedule(&mut buf, &sample_schedule());
        let cut = &buf[..buf.len() - 1];
        let err = decode_schedule(&mut Reader::new(cut, "spill")).unwrap_err();
        assert!(err.contains("spill truncated"), "{err}");
        buf.push(0);
        let mut r = Reader::new(&buf, "frame");
        decode_schedule(&mut r).unwrap();
        assert!(r.done().unwrap_err().contains("trailing"));
    }
}
