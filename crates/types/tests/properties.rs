//! Deterministic model-based tests for the shared identifier/event types.
//!
//! These replace the original proptest suites with seeded randomized
//! sweeps: the same properties, checked over pseudo-random inputs drawn
//! from the in-repo [`SeededRng`] with fixed seeds, so every run examines
//! the identical input set (hermetic, no external `proptest` dependency).

use fgcache_types::json::Json;
use fgcache_types::rng::{RandomSource, SeededRng};
use fgcache_types::{AccessEvent, AccessKind, AccessOutcome, ClientId, FileId, SeqNo};

const CASES: usize = 2_000;

fn rng_for(test: &str) -> SeededRng {
    // Stable per-test seed derived from the test name, so tests do not
    // share (and thus order-depend on) a single stream.
    let seed = test.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x1000_0000_01b3)
    });
    SeededRng::new(seed)
}

fn arb_kind(rng: &mut SeededRng) -> AccessKind {
    AccessKind::ALL[rng.gen_index(AccessKind::ALL.len())]
}

#[test]
fn file_id_conversions_roundtrip() {
    let mut rng = rng_for("file_id_conversions_roundtrip");
    for _ in 0..CASES {
        let raw = rng.next_u64();
        let id = FileId::from(raw);
        assert_eq!(u64::from(id), raw);
        assert_eq!(id.as_u64(), raw);
        assert_eq!(id, FileId(raw));
    }
}

#[test]
fn file_id_order_matches_u64() {
    let mut rng = rng_for("file_id_order_matches_u64");
    for _ in 0..CASES {
        let (a, b) = (rng.next_u64(), rng.next_u64());
        assert_eq!(FileId(a).cmp(&FileId(b)), a.cmp(&b));
    }
}

#[test]
fn seq_no_next_is_monotone() {
    let mut rng = rng_for("seq_no_next_is_monotone");
    for _ in 0..CASES {
        let raw = rng.gen_range_inclusive(0, u64::MAX - 1);
        let s = SeqNo(raw);
        assert!(s.next() > s);
        assert_eq!(s.next().as_u64(), raw + 1);
    }
}

#[test]
fn kind_code_roundtrips() {
    for kind in AccessKind::ALL {
        assert_eq!(AccessKind::from_code(kind.code()).unwrap(), kind);
        // Exactly one of is_read / is_mutation holds.
        assert_ne!(kind.is_read(), kind.is_mutation());
    }
}

#[test]
fn kind_rejects_non_codes() {
    let mut rng = rng_for("kind_rejects_non_codes");
    let mut checked = 0;
    while checked < CASES {
        let c = match char::from_u32(rng.gen_range_inclusive(0, 0x10FFFF) as u32) {
            Some(c) => c,
            None => continue, // surrogate range
        };
        if matches!(c, 'R' | 'W' | 'C' | 'D') {
            continue;
        }
        assert!(AccessKind::from_code(c).is_err());
        checked += 1;
    }
}

#[test]
fn event_json_roundtrips() {
    // An event-shaped object: the tree encode/decode must preserve every
    // field value, integers across the full u64 range.
    let mut rng = rng_for("event_json_roundtrips");
    for _ in 0..CASES {
        let ev = AccessEvent::new(
            SeqNo(rng.next_u64()),
            ClientId(rng.next_u64() as u32),
            FileId(rng.next_u64()),
            arb_kind(&mut rng),
        );
        let doc = Json::Obj(vec![
            ("seq".to_string(), Json::UInt(ev.seq.as_u64())),
            ("client".to_string(), Json::UInt(ev.client.as_u32().into())),
            ("file".to_string(), Json::UInt(ev.file.as_u64())),
            ("kind".to_string(), Json::Str(ev.kind.code().to_string())),
        ]);
        let back = Json::parse(&doc.to_text()).unwrap();
        assert_eq!(
            back.get("seq").and_then(Json::as_u64),
            Some(ev.seq.as_u64())
        );
        assert_eq!(
            back.get("client").and_then(Json::as_u64),
            Some(ev.client.as_u32().into())
        );
        assert_eq!(
            back.get("file").and_then(Json::as_u64),
            Some(ev.file.as_u64())
        );
        let code = back
            .get("kind")
            .and_then(Json::as_str)
            .and_then(|s| s.chars().next())
            .unwrap();
        assert_eq!(AccessKind::from_code(code).unwrap(), ev.kind);
    }
}

#[test]
fn displays_are_never_empty() {
    let mut rng = rng_for("displays_are_never_empty");
    for _ in 0..CASES {
        let seq = rng.next_u64();
        let client = rng.next_u64() as u32;
        let file = rng.next_u64();
        let kind = arb_kind(&mut rng);
        let ev = AccessEvent::new(SeqNo(seq), ClientId(client), FileId(file), kind);
        assert!(!ev.to_string().is_empty());
        assert!(!FileId(file).to_string().is_empty());
        assert!(!ClientId(client).to_string().is_empty());
        assert!(!SeqNo(seq).to_string().is_empty());
        assert!(!kind.to_string().is_empty());
        assert!(!AccessOutcome::Hit.to_string().is_empty());
    }
}

#[test]
fn json_numbers_roundtrip_as_bare_literals() {
    // Ids and counts serialize as bare numbers; the JSON layer must keep
    // the full u64 range exact (format stability).
    let mut rng = rng_for("json_numbers_roundtrip_as_bare_literals");
    for _ in 0..CASES {
        let raw = rng.next_u64();
        let text = Json::UInt(raw).to_text();
        assert_eq!(text, raw.to_string());
        assert_eq!(Json::parse(&text).unwrap().as_u64(), Some(raw));
    }
}
