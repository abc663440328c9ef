//! Malformed-input corpus for the trace readers — the trace-I/O arm of
//! `xtask fuzz`.
//!
//! Two layers:
//!
//! * a **static corpus** of known-bad inputs for each of the two formats,
//!   text and binary, each of which must produce a clean `Err` (never a
//!   panic) from both the materialized readers (`io::read_*`) and the
//!   streaming readers ([`TraceReader`]);
//! * a **seeded mutation sweep**: valid traces are serialized, then
//!   truncated at every byte and corrupted by deterministic byte flips.
//!   A mutation may still parse (flipping a digit yields a different but
//!   valid trace), so the invariant is differential: streaming and
//!   materialized readers must agree on Ok-vs-Err — and on the decoded
//!   trace when Ok — and must never panic.
//!
//! Extra seeds arrive via `FGCACHE_FUZZ_SEEDS` (comma-separated integers,
//! `0x`-prefixed hex allowed), the same contract as the other fuzz
//! suites.

use fgcache_trace::stream::{collect_trace, TraceReader};
use fgcache_trace::{io, Trace};
use fgcache_types::rng::RandomSource;
use fgcache_types::{AccessEvent, AccessKind, ClientId, FileId, SeededRng, SeqNo};

/// Built-in seeds; `FGCACHE_FUZZ_SEEDS` adds more.
const DEFAULT_SEEDS: [u64; 3] = [0xFEED_FACE, 42, 20020702];

fn seeds() -> Vec<u64> {
    let mut seeds: Vec<u64> = DEFAULT_SEEDS.to_vec();
    if let Ok(raw) = std::env::var("FGCACHE_FUZZ_SEEDS") {
        for tok in raw.split(',') {
            let tok = tok.trim();
            if tok.is_empty() {
                continue;
            }
            let parsed = match tok.strip_prefix("0x") {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => tok.parse(),
            };
            if let Ok(seed) = parsed {
                seeds.push(seed);
            }
        }
    }
    seeds.sort_unstable();
    seeds.dedup();
    seeds
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Binary,
}

/// Decodes `bytes` with the materialized reader for `fmt`.
fn read_materialized(fmt: Format, bytes: &[u8]) -> Result<Trace, io::TraceIoError> {
    match fmt {
        Format::Text => io::read_text(bytes),
        Format::Binary => io::read_binary(bytes),
    }
}

/// Decodes `bytes` with the streaming reader for `fmt` (binary gets the
/// true length, the strict path the CLI uses).
fn read_streaming(fmt: Format, bytes: &[u8]) -> Result<Trace, io::TraceIoError> {
    collect_trace(match fmt {
        Format::Text => TraceReader::text(bytes),
        Format::Binary => TraceReader::binary_with_len(bytes, bytes.len() as u64),
    })
}

/// The differential invariant: both readers agree on Ok-vs-Err and on
/// the decoded trace; a streaming reader that has yielded its error is
/// fused (no further items).
fn assert_readers_agree(fmt: Format, bytes: &[u8], context: &str) {
    let materialized = read_materialized(fmt, bytes);
    let streamed = read_streaming(fmt, bytes);
    match (&materialized, &streamed) {
        (Ok(a), Ok(b)) => assert_eq!(a, b, "{context}: decoded traces differ"),
        (Err(_), Err(_)) => {
            let mut reader: Box<dyn Iterator<Item = Result<AccessEvent, io::TraceIoError>>> =
                match fmt {
                    Format::Text => Box::new(TraceReader::text(bytes)),
                    Format::Binary => {
                        Box::new(TraceReader::binary_with_len(bytes, bytes.len() as u64))
                    }
                };
            let mut seen_err = false;
            for item in &mut reader {
                if item.is_err() {
                    seen_err = true;
                    break;
                }
            }
            assert!(seen_err, "{context}: collect failed but stream never erred");
            assert!(
                reader.next().is_none(),
                "{context}: stream not fused after its error"
            );
        }
        _ => panic!(
            "{context}: readers disagree (materialized {:?}, streamed {:?})",
            materialized.map(|t| t.len()),
            streamed.map(|t| t.len())
        ),
    }
}

#[test]
fn static_corpus_is_rejected_cleanly() {
    let text_corpus: &[&[u8]] = &[
        b"0 0",                        // too few fields
        b"0 0 R 1 extra",              // too many fields
        b"0 0 X 1",                    // unknown kind
        b"not a number 0 R 1",         // bad seq
        b"0 4294967296 R 1",           // client beyond u32
        b"18446744073709551616 0 R 1", // seq beyond u64
        b"1 0 R 1\n0 0 R 2",           // out of order
        b"5 0 R 1\n5 0 R 2",           // duplicate seq
        b"\xff\xfe invalid utf8 \x80", // invalid UTF-8
    ];
    let binary_corpus: &[&[u8]] = &[
        b"",                                         // empty input
        b"FGTRACE",                                  // truncated magic
        b"NOTMAGIC\x00\x00\x00\x00\x00\x00\x00\x00", // wrong magic
        b"FGTRACE1\x01\x00\x00\x00",                 // truncated count
        b"FGTRACE1\x02\x00\x00\x00\x00\x00\x00\x00", // count 2, no records
        b"FGTRACE1\xff\xff\xff\xff\xff\xff\xff\xff", // forged huge count
        // Count 1, record truncated mid-way.
        b"FGTRACE1\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00",
        // Count 0 followed by trailing bytes.
        b"FGTRACE1\x00\x00\x00\x00\x00\x00\x00\x00junk",
    ];
    for (fmt, corpus) in [(Format::Text, text_corpus), (Format::Binary, binary_corpus)] {
        for (i, bytes) in corpus.iter().enumerate() {
            assert!(
                read_materialized(fmt, bytes).is_err(),
                "corpus entry {i} unexpectedly parsed"
            );
            assert_readers_agree(fmt, bytes, &format!("static corpus entry {i}"));
        }
    }
}

fn random_trace(rng: &mut SeededRng) -> Trace {
    let n = rng.gen_index(40);
    let events = (0..n)
        .map(|i| {
            AccessEvent::new(
                SeqNo(i as u64),
                ClientId(rng.gen_index(4) as u32),
                FileId(rng.gen_range_inclusive(0, 99)),
                AccessKind::ALL[rng.gen_index(AccessKind::ALL.len())],
            )
        })
        .collect();
    Trace::new(events).expect("consecutive seqs are valid")
}

fn encode(fmt: Format, trace: &Trace) -> Vec<u8> {
    let mut buf = Vec::new();
    match fmt {
        Format::Text => io::write_text(trace, &mut buf).expect("write_text"),
        Format::Binary => io::write_binary(trace, &mut buf).expect("write_binary"),
    }
    buf
}

#[test]
fn truncation_at_every_byte_never_panics_and_readers_agree() {
    for seed in seeds() {
        let mut rng = SeededRng::new(seed);
        for fmt in [Format::Text, Format::Binary] {
            let bytes = encode(fmt, &random_trace(&mut rng));
            for cut in 0..bytes.len() {
                assert_readers_agree(fmt, &bytes[..cut], &format!("seed {seed}, cut {cut}"));
            }
        }
    }
}

#[test]
fn byte_flips_never_panic_and_readers_agree() {
    for seed in seeds() {
        let mut rng = SeededRng::new(seed);
        for fmt in [Format::Text, Format::Binary] {
            let bytes = encode(fmt, &random_trace(&mut rng));
            if bytes.is_empty() {
                continue;
            }
            for round in 0..64 {
                let mut mutated = bytes.clone();
                // 1–3 deterministic flips per round.
                for _ in 0..=rng.gen_index(3) {
                    let pos = rng.gen_index(mutated.len());
                    let bit = 1u8 << rng.gen_index(8);
                    mutated[pos] ^= bit;
                }
                assert_readers_agree(fmt, &mutated, &format!("seed {seed}, round {round}"));
            }
        }
    }
}
