//! The traced benchmark binary: a counting global allocator, in-memory
//! spans, and the staged per-layer ledger. Prints every per-layer metric;
//! end-to-end metrics never come from here.

use std::path::Path;
use std::process::ExitCode;

use fgcache_benchmark::alloc::CountingAlloc;
use fgcache_benchmark::args;
use fgcache_benchmark::ledger::{self, LedgerInput};
use fgcache_benchmark::metrics::{finish, print_table};
use fgcache_benchmark::tracer::Tracer;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn main() -> ExitCode {
    let args = match args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(usage) => {
            eprintln!("bench-trace: {usage}");
            return ExitCode::from(2);
        }
    };
    let tracer = Tracer::new();
    let output = ledger::run(&LedgerInput {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        untraced_fetch_per_s: args.untraced_fetch_per_s,
        tracer: &tracer,
    });
    let spans = tracer.len();
    if let Err(error) = tracer.write_jsonl(Path::new(&args.out)) {
        eprintln!("bench-trace: cannot write spans to {}: {error}", args.out);
        return ExitCode::FAILURE;
    }
    print_table(args.workload.name(), &output.metrics);
    println!("{spans} spans written to {}/trace-<stage>.jsonl", args.out);
    finish(
        "bench-trace",
        &output.errors,
        output.attempted,
        output.failed,
        &output.metrics,
    )
}
