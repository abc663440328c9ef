//! Deterministic model-based tests for traces, trace IO and the workload
//! generator.
//!
//! The workspace is hermetic (no `proptest`), so these tests draw their
//! randomized inputs from the in-repo [`SeededRng`] with fixed seeds: every
//! run explores exactly the same inputs, and a failure reproduces by seed.

use fgcache_trace::stream::{collect_trace, TraceReader, TraceSink};
use fgcache_trace::synth::{SynthConfig, WorkloadProfile};
use fgcache_trace::{io, stats::TraceStats, Trace};
use fgcache_types::rng::RandomSource;
use fgcache_types::{AccessEvent, AccessKind, ClientId, FileId, SeededRng, SeqNo};

/// Seeds used by every randomized test in this file.
const SEEDS: [u64; 8] = [0, 1, 2, 7, 42, 1234, 0xDEAD_BEEF, u64::MAX];

fn random_kind(rng: &mut SeededRng) -> AccessKind {
    AccessKind::ALL[rng.gen_index(AccessKind::ALL.len())]
}

/// Generates a well-formed random event vector: up to 200 events over
/// 5 clients and 1000 files, consecutively numbered from zero.
fn random_events(rng: &mut SeededRng) -> Vec<AccessEvent> {
    let n = rng.gen_index(201);
    (0..n)
        .map(|i| {
            AccessEvent::new(
                SeqNo(i as u64),
                ClientId(rng.gen_index(5) as u32),
                FileId(rng.gen_range_inclusive(0, 999)),
                random_kind(rng),
            )
        })
        .collect()
}

#[test]
fn text_io_roundtrips() {
    for seed in SEEDS {
        let mut rng = SeededRng::new(seed);
        for _ in 0..16 {
            let trace = Trace::new(random_events(&mut rng)).unwrap();
            let mut buf = Vec::new();
            io::write_text(&trace, &mut buf).unwrap();
            let back = io::read_text(buf.as_slice()).unwrap();
            assert_eq!(back, trace, "text roundtrip failed for seed {seed}");
        }
    }
}

#[test]
fn binary_io_roundtrips() {
    for seed in SEEDS {
        let mut rng = SeededRng::new(seed);
        for _ in 0..16 {
            let trace = Trace::new(random_events(&mut rng)).unwrap();
            let mut buf = Vec::new();
            io::write_binary(&trace, &mut buf).unwrap();
            let back = io::read_binary(buf.as_slice()).unwrap();
            assert_eq!(back, trace, "binary roundtrip failed for seed {seed}");
        }
    }
}

#[test]
fn streaming_readers_match_materialized_readers() {
    for seed in SEEDS {
        let mut rng = SeededRng::new(seed);
        for _ in 0..16 {
            let trace = Trace::new(random_events(&mut rng)).unwrap();

            let mut text = Vec::new();
            io::write_text(&trace, &mut text).unwrap();
            let streamed: Vec<AccessEvent> = TraceReader::text(text.as_slice())
                .map(|r| r.unwrap())
                .collect();
            assert_eq!(streamed, trace.events(), "text stream, seed {seed}");

            let mut bin = Vec::new();
            io::write_binary(&trace, &mut bin).unwrap();
            let streamed: Vec<AccessEvent> =
                TraceReader::binary_with_len(bin.as_slice(), bin.len() as u64)
                    .map(|r| r.unwrap())
                    .collect();
            assert_eq!(streamed, trace.events(), "binary stream, seed {seed}");
        }
    }
}

#[test]
fn streaming_sinks_roundtrip_through_streaming_readers() {
    for seed in SEEDS {
        let mut rng = SeededRng::new(seed);
        for _ in 0..8 {
            let trace = Trace::new(random_events(&mut rng)).unwrap();
            let make = |mut sink: TraceSink<std::io::Cursor<Vec<u8>>>| {
                for ev in trace.events() {
                    sink.push(ev).unwrap();
                }
                sink.finish().unwrap().into_inner()
            };

            let text = make(TraceSink::text(std::io::Cursor::new(Vec::new())).unwrap());
            let back = collect_trace(TraceReader::text(text.as_slice())).unwrap();
            assert_eq!(back, trace, "text sink roundtrip, seed {seed}");

            let bin = make(TraceSink::binary(std::io::Cursor::new(Vec::new())).unwrap());
            let back = collect_trace(TraceReader::binary_with_len(
                bin.as_slice(),
                bin.len() as u64,
            ))
            .unwrap();
            assert_eq!(back, trace, "binary sink roundtrip, seed {seed}");
        }
    }
}

#[test]
fn filtered_preserves_relative_order() {
    for seed in SEEDS {
        let mut rng = SeededRng::new(seed);
        for _ in 0..16 {
            let n = rng.gen_index(201);
            let files: Vec<u64> = (0..n).map(|_| rng.gen_range_inclusive(0, 49)).collect();
            let keep_mod = rng.gen_range_inclusive(1, 6);
            let trace = Trace::from_files(files.clone());
            let filtered = trace.filtered(|e| e.file.as_u64() % keep_mod == 0);
            let expected: Vec<FileId> = files
                .iter()
                .copied()
                .filter(|f| f % keep_mod == 0)
                .map(FileId)
                .collect();
            assert_eq!(filtered.file_sequence(), expected);
            // Renumbered consecutively.
            for (i, ev) in filtered.events().iter().enumerate() {
                assert_eq!(ev.seq, SeqNo(i as u64));
            }
        }
    }
}

#[test]
fn stats_are_internally_consistent() {
    for seed in SEEDS {
        let mut rng = SeededRng::new(seed);
        for _ in 0..16 {
            let trace = Trace::new(random_events(&mut rng)).unwrap();
            let s = TraceStats::compute(&trace);
            assert_eq!(s.events, trace.len());
            assert_eq!(s.reads + s.writes + s.creates + s.deletes, s.events);
            assert!(s.unique_files <= s.events);
            assert!(s.singleton_files <= s.unique_files);
            assert_eq!(s.repeat_accesses, s.events - s.unique_files);
            assert!(s.repeat_fraction() >= 0.0 && s.repeat_fraction() <= 1.0);
            assert!(s.mutation_fraction() >= 0.0 && s.mutation_fraction() <= 1.0);
            assert!(s.max_file_accesses <= s.events);
            assert!((0.0..=1.0).contains(&s.top_percent_share));
        }
    }
}

#[test]
fn generator_is_deterministic_and_well_formed() {
    for seed in SEEDS {
        let mut rng = SeededRng::new(seed);
        for _ in 0..4 {
            let gen_seed = rng.next_u64() % 1000;
            let profile = WorkloadProfile::ALL[rng.gen_index(WorkloadProfile::ALL.len())];
            let events = rng.gen_index(2000);
            let gen = SynthConfig::profile(profile)
                .events(events)
                .seed(gen_seed)
                .build()
                .unwrap();
            let a = gen.generate();
            let b = gen.generate();
            assert_eq!(a, b, "generator not deterministic for seed {gen_seed}");
            assert_eq!(a.len(), events);
            // Sequence numbers strictly increase from zero.
            for (i, ev) in a.events().iter().enumerate() {
                assert_eq!(ev.seq, SeqNo(i as u64));
            }
            // Clients stay within the configured stream count.
            let max_streams = match profile {
                WorkloadProfile::Users => 12,
                WorkloadProfile::Write => 4,
                WorkloadProfile::Workstation => 3,
                WorkloadProfile::Server => 2,
            };
            for ev in a.events() {
                assert!((ev.client.as_u32() as usize) < max_streams);
            }
        }
    }
}

#[test]
fn generator_prefix_stability() {
    for seed in SEEDS {
        let mut rng = SeededRng::new(seed);
        for _ in 0..4 {
            let gen_seed = rng.next_u64() % 200;
            let short_len = 1 + rng.gen_index(499);
            let extra = 1 + rng.gen_index(499);
            let short = SynthConfig::profile(WorkloadProfile::Workstation)
                .events(short_len)
                .seed(gen_seed)
                .build()
                .unwrap()
                .generate();
            let long = SynthConfig::profile(WorkloadProfile::Workstation)
                .events(short_len + extra)
                .seed(gen_seed)
                .build()
                .unwrap()
                .generate();
            assert_eq!(short.events(), &long.events()[..short_len]);
        }
    }
}

#[test]
fn collect_always_renumbers() {
    for seed in SEEDS {
        let mut rng = SeededRng::new(seed);
        for _ in 0..16 {
            let trace: Trace = random_events(&mut rng).into_iter().collect();
            for (i, ev) in trace.events().iter().enumerate() {
                assert_eq!(ev.seq.as_u64(), i as u64);
            }
        }
    }
}
