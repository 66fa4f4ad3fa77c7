//! Plan-cache persistence: spill the two-level cache to disk and restore
//! it on startup, so a restarted server serves its first repeated request
//! as a cache hit instead of re-paying the construction cost.
//!
//! # File format (version 1)
//!
//! A single little-endian binary file, `plans.popscache` under the
//! server's `--cache-dir`:
//!
//! ```text
//! magic   b"POPSCACHE1\n"            (11 bytes)
//! d, g    u32 each                    the serving topology
//! l1, l2  u32 each                    entry counts per cache level
//! then l1 level-1 entries, then l2 level-2 entries, each:
//!   key_len u32, key bytes            the stable canonical key
//!   schedule                          the dense wire schedule body
//! checksum u64                        FNV-1a of every preceding byte
//! ```
//!
//! A schedule record is byte for byte the schedule body of a dense route
//! reply and the bytes a plan-cache entry holds
//! ([`crate::CachedOutcome`], written by [`codec::encode_schedule`]). A
//! save writes each entry's bytes as they are, and a load checks every
//! record with the schedule reader and keeps its bytes, so a restored
//! plan costs the memory of a freshly routed one.
//!
//! Entries are written least-recently-used first **per shard** (shards
//! concatenated), so a restore into the same shard layout reproduces
//! each shard's recency ranking exactly; restoring into a different
//! shard count or a smaller capacity keeps an approximation of the
//! most-recent entries (eviction during the load is per-shard LRU, not
//! global). Values are stored as bare schedules — the part of an outcome
//! every consumer (the wire protocol, the phase assembler) actually
//! reads — so a restored level-1 entry answers with the identical
//! schedule and slot count but without construction artefacts or phase
//! lists, exactly like any other cache hit. Loading validates the
//! magic, version, topology, the trailing checksum, and every length
//! field against the remaining byte budget; any mismatch fails with a
//! message rather than a panic or a huge allocation (and the loader in
//! [`crate::service::RoutingService::load_cache`] additionally rejects
//! phase entries whose slot count is not the topology's Theorem-2 cost,
//! so a decoded-but-wrong file cannot poison the phase assembler).

use std::fmt;
use std::path::Path;

use pops_network::Schedule;

use pops_network::codec::{self, Reader};

/// The file magic, version included.
pub const CACHE_MAGIC: &[u8; 11] = b"POPSCACHE1\n";

/// The file name used under a `--cache-dir`.
pub const CACHE_FILE_NAME: &str = "plans.popscache";

/// Why a cache file could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PersistError(pub String);

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cache file invalid: {}", self.0)
    }
}

impl std::error::Error for PersistError {}

impl From<String> for PersistError {
    fn from(msg: String) -> Self {
        PersistError(msg)
    }
}

fn bail<T>(msg: impl Into<String>) -> Result<T, PersistError> {
    Err(PersistError(msg.into()))
}

/// One persisted cache entry: the stable canonical key and the schedule
/// cached under it.
pub type CacheEntry = (Box<[u8]>, Schedule);

/// What a save or load touched — reported by the wire `cache` op and the
/// CLI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PersistSummary {
    /// Level-1 (whole-request) entries written or restored.
    pub l1_entries: usize,
    /// Level-2 (phase) entries written or restored.
    pub l2_entries: usize,
}

/// One entry as the plan cache holds it: the key bytes and the schedule's
/// dense encoding.
pub(crate) type EncodedEntry<'a> = (&'a [u8], &'a [u8]);

/// Serializes the two cache levels into the version-1 byte format.
/// `l1`/`l2` yield `(key, schedule)` pairs least-recently-used first.
pub fn encode_cache_file(d: usize, g: usize, l1: &[CacheEntry], l2: &[CacheEntry]) -> Vec<u8> {
    let encode = |entries: &[CacheEntry]| -> Vec<Vec<u8>> {
        entries
            .iter()
            .map(|(_, schedule)| {
                let mut body = Vec::with_capacity(codec::encoded_len(schedule));
                codec::encode_schedule(&mut body, schedule);
                body
            })
            .collect()
    };
    let (l1_bodies, l2_bodies) = (encode(l1), encode(l2));
    let (l1, l2) = (pair(l1, &l1_bodies), pair(l2, &l2_bodies));
    write_cache_file(d, g, &l1, &l2)
}

/// Each entry's key with its encoded schedule.
fn pair<'a>(entries: &'a [CacheEntry], bodies: &'a [Vec<u8>]) -> Vec<EncodedEntry<'a>> {
    let keys = entries.iter().map(|(key, _)| key.as_ref());
    keys.zip(bodies.iter().map(Vec::as_slice)).collect()
}

/// Serializes the two cache levels from their encoded entries, least-
/// recently-used first, into an exact-size buffer. The schedule bytes are
/// copied as they are: the file's schedule records are the cache's bytes.
pub(crate) fn write_cache_file(
    d: usize,
    g: usize,
    l1: &[EncodedEntry<'_>],
    l2: &[EncodedEntry<'_>],
) -> Vec<u8> {
    let entry_len = |(key, body): &EncodedEntry<'_>| 4 + key.len() + body.len();
    let body_len: usize = l1.iter().chain(l2).map(entry_len).sum();
    let mut out = Vec::with_capacity(CACHE_MAGIC.len() + 16 + body_len + 8);
    out.extend_from_slice(CACHE_MAGIC);
    out.extend_from_slice(&(d as u32).to_le_bytes());
    out.extend_from_slice(&(g as u32).to_le_bytes());
    out.extend_from_slice(&(l1.len() as u32).to_le_bytes());
    out.extend_from_slice(&(l2.len() as u32).to_le_bytes());
    for (key, body) in l1.iter().chain(l2) {
        out.extend_from_slice(&(key.len() as u32).to_le_bytes());
        out.extend_from_slice(key);
        out.extend_from_slice(body);
    }
    let checksum = crate::cache::fnv1a64(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// The decoded contents of a cache file: level-1 then level-2 entries,
/// each in write (LRU-first) order.
#[derive(Debug)]
pub struct DecodedCacheFile {
    /// Level-1 `(canonical key, schedule)` entries.
    pub l1: Vec<CacheEntry>,
    /// Level-2 `(phase key, schedule)` entries.
    pub l2: Vec<CacheEntry>,
}

/// One validated entry of a cache file, still encoded: slices of the
/// file's bytes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EncodedRecord<'a> {
    /// The canonical (or phase) key bytes.
    pub(crate) key: &'a [u8],
    /// The schedule's dense encoding, validated to decode.
    pub(crate) schedule: &'a [u8],
    /// The schedule's slot count.
    pub(crate) slots: usize,
}

/// A validated cache file whose schedules are left encoded.
#[derive(Debug)]
pub(crate) struct EncodedCacheFile<'a> {
    /// Level-1 entries in write (LRU-first) order.
    pub(crate) l1: Vec<EncodedRecord<'a>>,
    /// Level-2 entries in write (LRU-first) order.
    pub(crate) l2: Vec<EncodedRecord<'a>>,
}

/// Decodes a version-1 cache file, validating the magic and that it was
/// written for the `POPS(d, g)` topology being served.
pub fn decode_cache_file(
    bytes: &[u8],
    d: usize,
    g: usize,
) -> Result<DecodedCacheFile, PersistError> {
    let file = read_cache_file(bytes, d, g)?;
    let decode = |records: Vec<EncodedRecord<'_>>| -> Result<Vec<CacheEntry>, PersistError> {
        records
            .into_iter()
            .map(|record| {
                let schedule = codec::decode_schedule(&mut Reader::new(record.schedule, "spill"))?;
                Ok((record.key.into(), schedule))
            })
            .collect()
    };
    Ok(DecodedCacheFile {
        l1: decode(file.l1)?,
        l2: decode(file.l2)?,
    })
}

/// Validates a version-1 cache file as [`decode_cache_file`] does, but
/// leaves each schedule encoded: the records borrow `bytes`, and reading
/// them allocates only the two record lists.
pub(crate) fn read_cache_file(
    bytes: &[u8],
    d: usize,
    g: usize,
) -> Result<EncodedCacheFile<'_>, PersistError> {
    if bytes.len() < CACHE_MAGIC.len() + 8 || &bytes[..CACHE_MAGIC.len()] != CACHE_MAGIC {
        return bail("bad magic (not a POPSCACHE1 file)");
    }
    // The trailing checksum guards against bit rot and truncated writes:
    // a corrupted-but-structurally-plausible file must not decode.
    let (body, trailer) = bytes.split_at(bytes.len() - 8);
    let Ok(trailer) = <[u8; 8]>::try_from(trailer) else {
        return bail("truncated trailer");
    };
    let expect = u64::from_le_bytes(trailer);
    let got = crate::cache::fnv1a64(body);
    if got != expect {
        return bail(format!("checksum mismatch ({got:#018x} != {expect:#018x})"));
    }
    let mut r = Reader::new(body, "spill");
    r.bytes(CACHE_MAGIC.len())?;
    let (file_d, file_g) = (r.u32()? as usize, r.u32()? as usize);
    if (file_d, file_g) != (d, g) {
        return bail(format!(
            "written for POPS({file_d}, {file_g}), serving POPS({d}, {g})"
        ));
    }
    // Each entry is at least key_len (4) + slot_count (4) bytes.
    let l1_count = r.count(8, "entry")?;
    let l2_count = r.count(8, "entry")?;
    let mut read_records = |count: usize| -> Result<Vec<EncodedRecord<'_>>, PersistError> {
        let mut records = Vec::with_capacity(count);
        for _ in 0..count {
            let key_len = r.count(1, "key byte")?;
            let key = r.bytes(key_len)?;
            let (schedule, slots) = codec::read_encoded_schedule(&mut r)?;
            records.push(EncodedRecord {
                key,
                schedule,
                slots,
            });
        }
        Ok(records)
    };
    let l1 = read_records(l1_count)?;
    let l2 = read_records(l2_count)?;
    r.done()?;
    Ok(EncodedCacheFile { l1, l2 })
}

/// The cache-file path under a `--cache-dir`.
///
/// This is the **legacy single-topology** name (pre-multi-topology
/// servers wrote exactly one file). Multi-topology servers write one file
/// per topology ([`topology_file_path`]); loaders should scan the
/// directory ([`scan_cache_dir`]) and match files by their *stamped*
/// topology, not by name, so both layouts restore.
pub fn cache_file_path(dir: &Path) -> std::path::PathBuf {
    dir.join(CACHE_FILE_NAME)
}

/// The per-topology cache-file name, e.g. `plans-4x4.popscache` for
/// POPS(4, 4).
pub fn topology_file_name(d: usize, g: usize) -> String {
    format!("plans-{d}x{g}.popscache")
}

/// The per-topology cache-file path under a `--cache-dir`.
pub fn topology_file_path(dir: &Path, d: usize, g: usize) -> std::path::PathBuf {
    dir.join(topology_file_name(d, g))
}

/// Reads the `(d, g)` topology stamp out of a cache file's header without
/// decoding (or checksumming) the body — how a directory scan decides
/// which registered topology a file belongs to. Full validation still
/// happens at load time.
pub fn peek_topology(bytes: &[u8]) -> Result<(usize, usize), PersistError> {
    if bytes.len() < CACHE_MAGIC.len() + 8 || &bytes[..CACHE_MAGIC.len()] != CACHE_MAGIC {
        return bail("bad magic (not a POPSCACHE1 file)");
    }
    let mut r = Reader::new(&bytes[CACHE_MAGIC.len()..], "spill");
    Ok((r.u32()? as usize, r.u32()? as usize))
}

/// Every `*.popscache` file in `dir` with the topology its header stamps,
/// sorted by file name for deterministic load order. Files whose header
/// does not parse are reported with the error instead of being dropped
/// silently — the caller decides whether to warn or fail.
#[allow(clippy::type_complexity)]
pub fn scan_cache_dir(
    dir: &Path,
) -> std::io::Result<Vec<(std::path::PathBuf, Result<(usize, usize), PersistError>)>> {
    let mut found = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.extension().and_then(|e| e.to_str()) != Some("popscache") {
            continue;
        }
        // Only the fixed-size header is read here — the full file (which
        // can be many MBs) is read once, at load time, by whoever decides
        // this topology matches.
        let mut header = [0u8; CACHE_MAGIC.len() + 8];
        let peeked = match std::fs::File::open(&path)
            .and_then(|mut f| std::io::Read::read_exact(&mut f, &mut header))
        {
            Ok(()) => peek_topology(&header),
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
                bail("truncated (shorter than the header)")
            }
            Err(e) => Err(PersistError(format!("unreadable: {e}"))),
        };
        found.push((path, peeked));
    }
    found.sort_by(|(a, _), (b, _)| a.cmp(b));
    Ok(found)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pops_network::{SlotFrame, Transmission};

    fn sample_schedule() -> Schedule {
        Schedule {
            slots: vec![
                SlotFrame {
                    transmissions: vec![
                        Transmission::unicast(0, 3, 0, 5),
                        Transmission {
                            sender: 1,
                            coupler: 2,
                            packet: 1,
                            receivers: vec![4, 6, 7].into(),
                        },
                    ],
                },
                SlotFrame {
                    transmissions: vec![],
                },
            ],
        }
    }

    fn key_of(bytes: &[u8]) -> Box<[u8]> {
        bytes.to_vec().into_boxed_slice()
    }

    #[test]
    fn schedule_codec_round_trips() {
        // A spill record is the dense wire codec's schedule body.
        let schedule = sample_schedule();
        let mut bytes = Vec::new();
        codec::encode_schedule(&mut bytes, &schedule);
        let mut r = Reader::new(&bytes, "spill");
        let decoded = codec::decode_schedule(&mut r).unwrap();
        assert_eq!(decoded, schedule);
        r.done().expect("codec must consume exactly");
    }

    #[test]
    fn cache_file_round_trips_both_levels() {
        let l1 = vec![(key_of(b"req-1"), sample_schedule())];
        let l2 = vec![
            (key_of(b"phase-a"), sample_schedule()),
            (key_of(b"phase-b"), Schedule::new()),
        ];
        let bytes = encode_cache_file(4, 4, &l1, &l2);
        let decoded = decode_cache_file(&bytes, 4, 4).unwrap();
        assert_eq!(decoded.l1, l1);
        assert_eq!(decoded.l2, l2);
    }

    #[test]
    fn load_rejects_wrong_topology() {
        let bytes = encode_cache_file(4, 4, &[], &[]);
        let err = decode_cache_file(&bytes, 2, 8).unwrap_err();
        assert!(err.to_string().contains("POPS(4, 4)"), "{err}");
    }

    #[test]
    fn load_rejects_garbage_and_truncation() {
        assert!(decode_cache_file(b"not a cache file", 4, 4).is_err());
        let good = encode_cache_file(4, 4, &[(key_of(b"k"), sample_schedule())], &[]);
        for cut in [5, CACHE_MAGIC.len() + 2, good.len() - 1] {
            assert!(
                decode_cache_file(&good[..cut], 4, 4).is_err(),
                "truncation at {cut} must fail"
            );
        }
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(decode_cache_file(&trailing, 4, 4).is_err());
    }

    #[test]
    fn hostile_counts_cannot_force_huge_allocations() {
        // A file claiming 2^31 entries in a few bytes must fail fast on
        // the count-vs-remaining-bytes check, not try to allocate. (The
        // checksum is made valid so the count check is what fires.)
        let mut bytes = Vec::new();
        bytes.extend_from_slice(CACHE_MAGIC);
        bytes.extend_from_slice(&4u32.to_le_bytes());
        bytes.extend_from_slice(&4u32.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // l1 count
        bytes.extend_from_slice(&0u32.to_le_bytes());
        let checksum = crate::cache::fnv1a64(&bytes);
        bytes.extend_from_slice(&checksum.to_le_bytes());
        let err = decode_cache_file(&bytes, 4, 4).unwrap_err();
        assert!(err.to_string().contains("exceeds"), "{err}");
    }

    #[test]
    fn peek_reads_the_topology_stamp_without_decoding() {
        let bytes = encode_cache_file(6, 3, &[(key_of(b"k"), sample_schedule())], &[]);
        assert_eq!(peek_topology(&bytes).unwrap(), (6, 3));
        // Peek works even when the body is corrupt (checksum broken)...
        let mut corrupt = bytes.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0xFF;
        assert_eq!(peek_topology(&corrupt).unwrap(), (6, 3));
        // ...but not when the header itself is damaged or missing.
        assert!(peek_topology(b"not a cache file").is_err());
        assert!(peek_topology(&bytes[..CACHE_MAGIC.len() + 3]).is_err());
    }

    #[test]
    fn scan_finds_popscache_files_and_flags_garbage() {
        let dir = std::env::temp_dir().join(format!(
            "pops-persist-scan-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join(topology_file_name(4, 4)),
            encode_cache_file(4, 4, &[], &[]),
        )
        .unwrap();
        std::fs::write(
            dir.join(topology_file_name(2, 8)),
            encode_cache_file(2, 8, &[], &[]),
        )
        .unwrap();
        std::fs::write(dir.join("junk.popscache"), b"garbage").unwrap();
        std::fs::write(dir.join("unrelated.txt"), b"ignored").unwrap();

        let scanned = scan_cache_dir(&dir).unwrap();
        assert_eq!(scanned.len(), 3, "only .popscache files are scanned");
        let shape_of = |name: &str| {
            scanned
                .iter()
                .find(|(p, _)| p.file_name().unwrap().to_str() == Some(name))
                .map(|(_, r)| r.clone())
                .unwrap()
        };
        assert_eq!(shape_of("plans-4x4.popscache"), Ok((4, 4)));
        assert_eq!(shape_of("plans-2x8.popscache"), Ok((2, 8)));
        assert!(shape_of("junk.popscache").is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flips_are_caught_by_the_checksum() {
        let good = encode_cache_file(4, 4, &[(key_of(b"k"), sample_schedule())], &[]);
        for at in [CACHE_MAGIC.len() + 9, good.len() / 2, good.len() - 9] {
            let mut corrupt = good.clone();
            corrupt[at] ^= 0x40;
            let err = decode_cache_file(&corrupt, 4, 4).unwrap_err();
            assert!(err.to_string().contains("checksum"), "flip at {at}: {err}");
        }
    }
}
