//! The untraced benchmark binary: sets one workload up, checks it,
//! measures it, and prints its end-to-end metrics. System allocator, no
//! spans — every end-to-end number comes from here.

use std::process::ExitCode;
use std::time::Instant;

use fgcache_benchmark::args;
use fgcache_benchmark::metrics::{end_to_end, fetch_p99, finish, print_table, Metric};
use fgcache_benchmark::procstat::rss_peak_mb;
use fgcache_benchmark::sched::MonoClock;
use fgcache_benchmark::stats::{median, percentile};
use fgcache_benchmark::workload::{measure, Rig, Window};

fn main() -> ExitCode {
    let args = match args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(usage) => {
            eprintln!("bench: {usage}");
            return ExitCode::from(2);
        }
    };
    let workload = args.workload;

    // Set up `setups` times and report the median, so one slow page-in
    // does not decide `setup_s`; the last rig is the one measured.
    let mut setup_times = Vec::with_capacity(args.setups);
    let mut rig: Option<Rig> = None;
    for _ in 0..args.setups {
        if let Some(previous) = rig.take() {
            previous.teardown();
        }
        let start = Instant::now();
        match Rig::build(workload, args.seed) {
            Ok(built) => rig = Some(built),
            Err(error) => {
                eprintln!("bench: {}: set-up failed: {error}", workload.name());
                return ExitCode::FAILURE;
            }
        }
        setup_times.push(start.elapsed().as_secs_f64());
    }
    let mut rig = rig.expect("--setups is at least 1");
    let setup_s = median(&setup_times).expect("at least one set-up");

    let verify_start = Instant::now();
    if let Err(error) = rig.verify_prefix() {
        eprintln!("bench: {}: INCORRECT: {error}", workload.name());
        return ExitCode::FAILURE;
    }
    let verify_s = verify_start.elapsed().as_secs_f64();

    let measured = measure(
        &mut rig,
        MonoClock::new(),
        args.window_ns(),
        args.windows,
        None,
    );
    rig.teardown();

    let metrics = end_to_end(setup_s, rss_peak_mb(), &measured);
    if let Some(name) = &args.value_of {
        return match metrics.iter().find(|m| m.name == name) {
            Some(metric) => {
                println!("{}", metric.value);
                ExitCode::SUCCESS
            }
            None => ExitCode::from(2),
        };
    }

    // Printed by name like the gated metrics, but kept out of the result
    // line: the failure share travels there as `attempted` and `failed`,
    // and the p99 is not steady enough to gate on.
    let failed_frac = measured.failed as f64 / measured.attempted.max(1) as f64;
    let mut printed = metrics.clone();
    printed.push(fetch_p99(&measured));
    printed.push(Metric::new(
        "failed_frac",
        "fraction",
        failed_frac,
        measured.attempted,
    ));
    print_table(workload.name(), &printed);
    let per_window = |of: fn(&Window) -> f64| measured.windows.iter().map(of).collect::<Vec<f64>>();
    let lag_us = |q: f64| match measured.lag_ns.is_empty() {
        true => 0.0,
        false => percentile(&measured.lag_ns, q) as f64 / 1e3,
    };
    // A generator that woke more than a quarter period late did not
    // offer the load it claims to; say so rather than hide or retry it.
    let disturbed = workload
        .period_ns()
        .is_some_and(|period| lag_us(0.99) * 1e3 > period as f64 / 4.0);
    println!(
        "info {{\"workload\": \"{}\", \"seed\": {}, \"setup_s_all\": {:?}, \"verify_s\": {}, \"gen_lag_p50_us\": {}, \"gen_lag_p99_us\": {}, \"disturbed\": {}, \"window_fetch_per_s\": {:?}, \"window_cpu_us_per_fetch\": {:?}, \"window_p50_us\": {:?}, \"window_p90_us\": {:?}, \"window_p99_us\": {:?}}}",
        workload.name(),
        args.seed,
        setup_times,
        verify_s,
        lag_us(0.5),
        lag_us(0.99),
        disturbed,
        per_window(|w| w.fetch_per_s),
        per_window(|w| w.cpu_ns as f64 / 1e3 / w.fetches.max(1) as f64),
        per_window(|w| w.p50_us),
        per_window(|w| w.p90_us),
        per_window(|w| w.p99_us),
    );
    finish(
        &format!("bench: {}", workload.name()),
        &measured.errors,
        measured.attempted,
        measured.failed,
        &metrics,
    )
}
