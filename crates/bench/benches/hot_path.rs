//! Hot-path microbenchmark: single-thread events/sec on a hit-heavy
//! workload, plus allocations per event measured by a counting global
//! allocator (this bench binary only — the library crates stay
//! `forbid(unsafe_code)`; the counter lives here because `GlobalAlloc`
//! is inherently unsafe to implement).
//!
//! Scenarios:
//!   * `monolith` — one `AggregatingCache` behind no lock
//!   * `sharded/N` — `ShardedAggregatingCache`, N shards: every access
//!     takes its shard's mutex once
//!
//! Locks/event comes from the server's own acquisition counter; it reads
//! exactly 1 for every sharded scenario.
//!
//! The workload is 98% accesses to a working set that fits in cache and
//! 2% cold misses, so the steady state exercises the hit path with a
//! realistic trickle of group-building misses.
//!
//! Flags (after `--`): `--smoke` shrinks the event count for CI,
//! `--json PATH` writes a machine-readable summary, and `--threads N`
//! sizes the multi-core section (defaults to the host's parallelism).
//!
//! # Multi-core scaling
//!
//! The `mt/threads=N/shards=S` scenarios replay N per-thread traces
//! *concurrently* against one shared `ShardedAggregatingCache` — the
//! contention the sharding was built for, which a single-threaded bench
//! can never show. The scaling table (shards=1 vs shards=4 at N
//! threads) is the honest measurement: on a 1-core host the speedup
//! hovers near 1× because the threads time-slice one core; on a real
//! multi-core host (≥4 cores) the ≥2× target is verifiable with exactly
//! one command:
//!
//! ```text
//! cargo xtask bench-smoke --threads 4
//! ```

use fgcache_bench::{harness, ratio};
use fgcache_cache::Cache;
use fgcache_core::{AggregatingCacheBuilder, ShardedAggregatingCacheBuilder};
use fgcache_types::rng::{RandomSource, SeededRng};
use fgcache_types::FileId;
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Counts every allocation routed through the global allocator.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const CAPACITY: usize = 512;
const WORKING_SET: usize = 480;
const COLD_UNIVERSE: u64 = 100_000;
const GROUP_SIZE: usize = 5;
const SUCCESSOR_CAPACITY: usize = 8;
const FULL_EVENTS: usize = 400_000;
const SMOKE_EVENTS: usize = 20_000;

/// 98% of accesses hit a working set that fits in the cache; 2% touch a
/// large cold universe and miss, forcing a group build + speculative
/// batch insert.
fn workload(events: usize, seed: u64) -> Vec<FileId> {
    let mut rng = SeededRng::new(seed);
    let mut out = Vec::with_capacity(events);
    for _ in 0..events {
        let id = if rng.chance(0.02) {
            WORKING_SET as u64 + rng.gen_index(COLD_UNIVERSE as usize) as u64
        } else {
            rng.gen_index(WORKING_SET) as u64
        };
        out.push(FileId(id));
    }
    out
}

struct Scenario {
    name: String,
    events_per_sec: f64,
    allocs_per_event: f64,
    locks_per_event: f64,
    hit_rate: f64,
}

/// One timed pass over the trace against a warmed cache; returns
/// (seconds, allocations) for the pass.
fn timed_pass(trace: &[FileId], mut access: impl FnMut(FileId)) -> (f64, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let start = Instant::now();
    for &file in trace {
        access(black_box(file));
    }
    let secs = start.elapsed().as_secs_f64();
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - before;
    (secs, allocs)
}

fn bench_monolith(trace: &[FileId]) -> Scenario {
    let mut cache = AggregatingCacheBuilder::new(CAPACITY)
        .group_size(GROUP_SIZE)
        .successor_capacity(SUCCESSOR_CAPACITY)
        .build()
        .expect("valid monolith config");
    // Warm: full pass so the working set is resident and scratch space
    // has reached steady-state capacity.
    for &file in trace {
        cache.handle_access(file);
    }
    let mut best_secs = f64::INFINITY;
    let mut allocs = 0u64;
    for _ in 0..harness::iterations() {
        let (secs, a) = timed_pass(trace, |f| {
            cache.handle_access(f);
        });
        if secs < best_secs {
            best_secs = secs;
        }
        allocs = a;
    }
    let stats = cache.stats();
    Scenario {
        name: "monolith".to_string(),
        events_per_sec: trace.len() as f64 / best_secs,
        allocs_per_event: allocs as f64 / trace.len() as f64,
        locks_per_event: 0.0,
        hit_rate: ratio(stats.hits, stats.accesses),
    }
}

fn bench_sharded(trace: &[FileId], shards: usize) -> Scenario {
    let server = ShardedAggregatingCacheBuilder::new(CAPACITY)
        .shards(shards)
        .group_size(GROUP_SIZE)
        .successor_capacity(SUCCESSOR_CAPACITY)
        .build()
        .expect("valid sharded config");
    for &file in trace {
        server.handle_access(file);
    }
    let mut best_secs = f64::INFINITY;
    let mut allocs = 0u64;
    let mut locks = 0u64;
    for _ in 0..harness::iterations() {
        let locks_before = server.lock_acquisitions();
        let (secs, a) = timed_pass(trace, |f| {
            server.handle_access(f);
        });
        if secs < best_secs {
            best_secs = secs;
        }
        allocs = a;
        locks = server.lock_acquisitions() - locks_before;
    }
    let stats = server.stats();
    Scenario {
        name: format!("sharded/shards={shards}"),
        events_per_sec: trace.len() as f64 / best_secs,
        allocs_per_event: allocs as f64 / trace.len() as f64,
        locks_per_event: locks as f64 / trace.len() as f64,
        hit_rate: ratio(stats.hits, stats.accesses),
    }
}

/// N threads replaying distinct traces concurrently against one shared
/// sharded cache; wall time covers the whole concurrent replay, so
/// events/s here is *aggregate* throughput under real contention.
fn bench_sharded_mt(events_per_thread: usize, shards: usize, threads: usize) -> Scenario {
    let server = ShardedAggregatingCacheBuilder::new(CAPACITY)
        .shards(shards)
        .group_size(GROUP_SIZE)
        .successor_capacity(SUCCESSOR_CAPACITY)
        .build()
        .expect("valid sharded config");
    let traces: Vec<Vec<FileId>> = (0..threads)
        .map(|t| {
            workload(
                events_per_thread,
                0x4001_F00D ^ (t as u64).wrapping_mul(0x9E37),
            )
        })
        .collect();
    // Warm: one sequential pass over every trace so the working set is
    // resident and per-shard scratch has reached steady state.
    for trace in &traces {
        for &file in trace {
            server.handle_access(file);
        }
    }
    let total_events = (events_per_thread * threads) as f64;
    let mut best_secs = f64::INFINITY;
    let mut allocs = 0u64;
    let mut locks = 0u64;
    for _ in 0..harness::iterations() {
        let barrier = std::sync::Barrier::new(threads + 1);
        let locks_before = server.lock_acquisitions();
        let allocs_before = ALLOCATIONS.load(Ordering::Relaxed);
        // The timer starts before the main thread joins the barrier (on
        // a saturated single-core host the workers can run to completion
        // before the main thread is rescheduled, so starting *after* the
        // barrier would time nothing) and stops after the scope's
        // implicit joins, covering the slowest thread's full replay.
        let mut start = Instant::now();
        std::thread::scope(|scope| {
            for trace in &traces {
                let barrier = &barrier;
                let server = &server;
                scope.spawn(move || {
                    barrier.wait();
                    for &file in trace {
                        server.handle_access(black_box(file));
                    }
                });
            }
            start = Instant::now();
            barrier.wait();
        });
        let secs = start.elapsed().as_secs_f64();
        if secs < best_secs {
            best_secs = secs;
        }
        allocs = ALLOCATIONS.load(Ordering::Relaxed) - allocs_before;
        locks = server.lock_acquisitions() - locks_before;
    }
    let stats = server.stats();
    Scenario {
        name: format!("mt/threads={threads}/shards={shards}"),
        events_per_sec: total_events / best_secs,
        allocs_per_event: allocs as f64 / total_events,
        locks_per_event: locks as f64 / total_events,
        hit_rate: ratio(stats.hits, stats.accesses),
    }
}

fn write_json(path: &str, events: usize, scenarios: &[Scenario]) {
    let mut body = String::from("{\n");
    body.push_str(&format!("  \"events\": {events},\n"));
    body.push_str(&format!(
        "  \"host_cores\": {},\n",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));
    body.push_str("  \"scenarios\": [\n");
    for (i, s) in scenarios.iter().enumerate() {
        let locks = if s.locks_per_event.is_nan() {
            "null".to_string()
        } else {
            format!("{:.4}", s.locks_per_event)
        };
        body.push_str(&format!(
            "    {{\"name\": \"{}\", \"events_per_sec\": {:.0}, \"allocs_per_event\": {:.4}, \"locks_per_event\": {}, \"hit_rate\": {:.4}}}{}\n",
            s.name,
            s.events_per_sec,
            s.allocs_per_event,
            locks,
            s.hit_rate,
            if i + 1 == scenarios.len() { "" } else { "," }
        ));
    }
    body.push_str("  ]\n}\n");
    std::fs::write(path, body).expect("write json summary");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = args
        .iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(host_cores);
    let events = if smoke { SMOKE_EVENTS } else { FULL_EVENTS };
    let trace = workload(events, 0x4001_F00D);

    println!(
        "# hot_path: {events} events, capacity {CAPACITY}, working set {WORKING_SET}, {host_cores} host cores"
    );

    let mut scenarios = vec![bench_monolith(&trace)];
    for shards in [1usize, 4] {
        scenarios.push(bench_sharded(&trace, shards));
    }

    // The multi-core section: same workload shape, N concurrent replay
    // threads per scenario (see the module docs).
    let mt_events = events / 2; // per thread; total work scales with N
    let mt_base = scenarios.len();
    for shards in [1usize, 4] {
        scenarios.push(bench_sharded_mt(mt_events, shards, threads));
    }

    for s in &scenarios {
        println!(
            "{:<28} {:>12.0} events/s  {:>8.4} allocs/event  {:>8.4} locks/event  hit_rate {:.4}",
            s.name, s.events_per_sec, s.allocs_per_event, s.locks_per_event, s.hit_rate
        );
    }

    let speedup = scenarios[mt_base + 1].events_per_sec / scenarios[mt_base].events_per_sec;
    println!(
        "# multicore scaling at threads={threads}: shards=4 vs shards=1 = {speedup:.2}x \
         (target >=2x needs >=4 host cores; this host has {host_cores})"
    );

    if let Some(path) = json_path {
        write_json(&path, events, &scenarios);
        println!("# wrote {path}");
    }
}
