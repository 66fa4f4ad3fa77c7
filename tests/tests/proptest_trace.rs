//! Property tests of the record/replay trace format: arbitrary recorded
//! requests must round-trip byte-stably through encode→parse, and
//! hostile traces — unknown versions, missing headers, truncated lines —
//! must come back as typed [`TraceError`] values, never panics.

use proptest::prelude::*;

use pops_permutation::families::random_permutation;
use pops_permutation::SplitMix64;
use pops_service::proto::{BatchItemRequest, CacheAction, RouteBody, RouteRequest, WireRequest};
use pops_service::record::{encode_record, header_line, parse_header, parse_record, parse_trace};
use pops_service::{RecordedRequest, RequestKind, TraceError, WireFormat, TRACE_VERSION};

const SHAPES: [(usize, usize); 4] = [(4, 4), (2, 8), (3, 3), (1, 6)];

/// A random valid recorded request covering every op family the format
/// can carry: healthy and faulted singles of every perm kind, an
/// h-relation, mixed-shape batches, and cache ops.
fn random_record(rng: &mut SplitMix64) -> RecordedRequest {
    let (d, g) = SHAPES[rng.next_below(SHAPES.len())];
    let n = d * g;
    let format = if rng.next_u64() & 1 == 0 {
        WireFormat::Json
    } else {
        WireFormat::Binary
    };
    let offset_us = rng.next_u64() % 1_000_000;
    let route = |d, g, body| WireRequest::Route {
        req: RouteRequest {
            d,
            g,
            body: Ok(body),
        },
        want_schedule: true,
    };
    let op = match rng.next_below(5) {
        0 => {
            let kinds = [
                RequestKind::Theorem2,
                RequestKind::SingleSlot,
                RequestKind::Direct,
                RequestKind::Structured,
            ];
            let body = RouteBody::Perm {
                kind: kinds[rng.next_below(kinds.len())],
                pi: random_permutation(n, rng),
                faults: Vec::new(),
            };
            route(d, g, body)
        }
        1 => {
            // The faults kind always carries a non-empty fault set (an
            // empty one canonicalises to theorem2 at record time), sorted
            // and deduplicated as the recorder writes it.
            let count = 1 + rng.next_below(2);
            let mut faults: Vec<usize> = (0..count).map(|_| rng.next_below(g * g)).collect();
            faults.sort_unstable();
            faults.dedup();
            let body = RouteBody::Perm {
                kind: RequestKind::WithFaults,
                pi: random_permutation(n, rng),
                faults,
            };
            route(d, g, body)
        }
        2 => {
            let pairs = 1 + rng.next_below(2 * n);
            let requests = (0..pairs)
                .map(|_| (rng.next_below(n), rng.next_below(n)))
                .collect();
            route(d, g, RouteBody::HRelation(requests))
        }
        3 => {
            let count = 1 + rng.next_below(3);
            WireRequest::Batch {
                items: (0..count)
                    .map(|_| {
                        let (bd, bg) = SHAPES[rng.next_below(SHAPES.len())];
                        let faults = if rng.next_u64() & 3 == 0 {
                            vec![rng.next_below(bg * bg)]
                        } else {
                            Vec::new()
                        };
                        BatchItemRequest {
                            d: bd,
                            g: bg,
                            perm: Ok(random_permutation(bd * bg, rng)),
                            faults,
                        }
                    })
                    .collect(),
                want_schedule: false,
            }
        }
        _ => {
            let actions = [CacheAction::Save, CacheAction::Load, CacheAction::Stats];
            WireRequest::Cache {
                action: actions[rng.next_below(actions.len())],
            }
        }
    };
    RecordedRequest {
        offset_us,
        format,
        op,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn records_round_trip_byte_stable(seed in any::<u64>()) {
        let mut rng = SplitMix64::new(seed);
        let entry = random_record(&mut rng);
        let line = encode_record(&entry);
        let parsed = parse_record(2, &line).unwrap();
        prop_assert_eq!(&parsed, &entry, "decode(encode(x)) == x for {}", line);
        // Byte stability: re-encoding the parse yields the same line, so
        // traces survive a read-rewrite cycle unchanged.
        prop_assert_eq!(encode_record(&parsed), line);
    }

    #[test]
    fn whole_traces_round_trip(seed in any::<u64>(), count in 1usize..12) {
        let mut rng = SplitMix64::new(seed);
        let entries: Vec<RecordedRequest> = (0..count).map(|_| random_record(&mut rng)).collect();
        let mut text = header_line();
        text.push('\n');
        for entry in &entries {
            text.push_str(&encode_record(entry));
            text.push('\n');
        }
        let parsed = parse_trace(&text).unwrap();
        prop_assert_eq!(parsed, entries);
    }

    #[test]
    fn unknown_versions_are_refused_with_a_typed_error(version in 2u64..1_000_000) {
        let header = format!("{{\"pops-trace\":{version}}}");
        prop_assert_eq!(
            parse_header(&header),
            Err(TraceError::UnsupportedVersion(version))
        );
        let text = format!("{header}\n");
        prop_assert_eq!(
            parse_trace(&text),
            Err(TraceError::UnsupportedVersion(version))
        );
        prop_assert!(version != TRACE_VERSION);
    }

    #[test]
    fn truncated_lines_are_refused_never_panics(seed in any::<u64>(), cut in 1usize..400) {
        let mut rng = SplitMix64::new(seed);
        let entry = random_record(&mut rng);
        let line = encode_record(&entry);
        // Any proper prefix of a record line is malformed JSON (the
        // object never closes), so the parser must return the typed
        // line-numbered error — not a panic, and never a silent success.
        let mut cut = cut % line.len();
        while cut > 0 && !line.is_char_boundary(cut) {
            cut -= 1;
        }
        if cut > 0 {
            let truncated = &line[..cut];
            if !truncated.is_empty() {
                match parse_record(2, truncated) {
                    Err(TraceError::Malformed { line: 2, .. }) => {}
                    other => prop_assert!(false, "expected Malformed at line 2, got {other:?}"),
                }
                let text = format!("{}\n{truncated}\n", header_line());
                prop_assert!(matches!(
                    parse_trace(&text),
                    Err(TraceError::Malformed { line: 2, .. })
                ));
            }
        }
    }

    #[test]
    fn non_canonical_fault_lists_are_malformed(
        seed in any::<u64>(),
        shape in 0usize..SHAPES.len(),
        reversed in any::<bool>(),
    ) {
        let mut rng = SplitMix64::new(seed);
        let (d, g) = SHAPES[shape];
        let a = rng.next_below(g * g);
        // A duplicated id, or two distinct ids out of order: the recorder
        // writes neither.
        let faults = match (reversed, (a + 1) % (g * g)) {
            (true, b) if b > a => vec![b, a],
            _ => vec![a, a],
        };
        let perm: Vec<String> = random_permutation(d * g, &mut rng)
            .as_slice()
            .iter()
            .map(|v| v.to_string())
            .collect();
        let faults: Vec<String> = faults.iter().map(|c| c.to_string()).collect();
        let line = format!(
            r#"{{"t_us":5,"fmt":"json","op":"route","d":{d},"g":{g},"kind":"faults","perm":[{}],"faults":[{}]}}"#,
            perm.join(","),
            faults.join(",")
        );
        match parse_record(2, &line) {
            Err(TraceError::Malformed { line: 2, .. }) => {}
            other => prop_assert!(false, "expected Malformed at line 2, got {other:?}"),
        }
    }

    #[test]
    fn traces_without_a_header_are_refused(seed in any::<u64>()) {
        let mut rng = SplitMix64::new(seed);
        let entry = random_record(&mut rng);
        let text = format!("{}\n", encode_record(&entry));
        prop_assert!(matches!(
            parse_trace(&text),
            Err(TraceError::MissingHeader(_))
        ));
    }
}
