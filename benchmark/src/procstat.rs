//! What the kernel says this process cost: CPU time, context switches and
//! peak resident memory, all read from `/proc/self`.

use std::fs;

/// Nanoseconds per `utime`/`stime` tick (`USER_HZ` is 100 on Linux).
const TICK_NS: u64 = 10_000_000;

fn for_each_task(file: &str, mut f: impl FnMut(&str)) {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return;
    };
    for task in tasks.flatten() {
        if let Ok(text) = fs::read_to_string(task.path().join(file)) {
            f(&text);
        }
    }
}

/// On-CPU time of every live thread, in nanoseconds.
///
/// Read from each thread's `schedstat` (exact run time): a server loop
/// that wakes for microseconds every half millisecond is invisible to
/// tick-sampled `utime`/`stime`. Falls back to `/proc/self/stat` where
/// the kernel keeps no `schedstat`.
pub fn cpu_ns() -> u64 {
    let mut total = 0u64;
    for_each_task("schedstat", |text| {
        total += text
            .split_whitespace()
            .next()
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0);
    });
    if total > 0 {
        return total;
    }
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the whole line.
    let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) * TICK_NS
}

/// Voluntary plus involuntary context switches of every live thread.
pub fn ctx_switches() -> u64 {
    let mut total = 0u64;
    for_each_task("status", |text| {
        for line in text.lines() {
            if let Some((key, value)) = line.split_once(':') {
                if key.ends_with("ctxt_switches") {
                    total += value.trim().parse::<u64>().unwrap_or(0);
                }
            }
        }
    });
    total
}

/// Peak resident set size (`VmHWM`) in MB.
pub fn rss_peak_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
