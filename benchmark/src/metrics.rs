//! Named metrics and the two ways a run prints them: one aligned line
//! per metric for people, and the one-line JSON result the driver reads.

use std::process::ExitCode;

use crate::stats::{median, samples_beyond, MIN_BEYOND};
use crate::workload::{Measured, Window};

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The value: a median over windows unless the name says otherwise.
    pub value: f64,
    /// Samples pooled over the run that stand behind the value.
    pub samples: u64,
    /// A remark printed beside the value (`unstable`, a min/max range…).
    pub note: String,
}

impl Metric {
    /// A metric without a remark.
    pub fn new(name: &'static str, unit: &'static str, value: f64, samples: u64) -> Self {
        Metric {
            name,
            unit,
            value,
            samples,
            note: String::new(),
        }
    }

    /// The same metric with a remark.
    #[must_use]
    pub fn note(mut self, note: impl Into<String>) -> Self {
        self.note = note.into();
        self
    }
}

fn over_windows(measured: &Measured, f: impl Fn(&Window) -> f64) -> f64 {
    let values: Vec<f64> = measured.windows.iter().map(f).collect();
    median(&values).unwrap_or(f64::NAN)
}

/// A latency percentile in µs per fetch: computed per window, median over
/// windows, flagged when the pooled samples leave too few beyond it.
pub fn latency(
    measured: &Measured,
    name: &'static str,
    q: f64,
    of: impl Fn(&Window) -> f64,
) -> Metric {
    let samples: u64 = measured.windows.iter().map(|w| w.samples).sum();
    let metric = Metric::new(name, "us", over_windows(measured, of), samples);
    match samples_beyond(samples as usize, q) {
        beyond if beyond < MIN_BEYOND => metric.note(format!("only {beyond} samples beyond it")),
        _ => metric,
    }
}

/// `fetch_p99_us`: demoted from the end-to-end set to a flagged per-layer
/// metric, because on a shared two-core host a few host stalls per run
/// decide it (its run-to-run spread is several times any usable bound).
pub fn fetch_p99(measured: &Measured) -> Metric {
    let metric = latency(measured, "fetch_p99_us", 0.99, |w| w.p99_us);
    let note = match metric.note.is_empty() {
        true => "unstable: demoted, not gated".to_string(),
        false => format!("unstable: demoted, not gated; {}", metric.note),
    };
    metric.note(note)
}

/// The gated end-to-end metrics of a run, in `BENCHMARK.json` order. Each
/// statistic is computed per window; the median over windows is reported.
pub fn end_to_end(setup_s: f64, rss_peak_mb: f64, measured: &Measured) -> Vec<Metric> {
    let fetches: u64 = measured.windows.iter().map(|w| w.fetches).sum();
    vec![
        Metric::new("setup_s", "s", setup_s, 1),
        Metric::new(
            "fetch_per_s",
            "1/s",
            over_windows(measured, |w| w.fetch_per_s),
            fetches,
        ),
        latency(measured, "fetch_p50_us", 0.50, |w| w.p50_us),
        latency(measured, "fetch_p90_us", 0.90, |w| w.p90_us),
        Metric::new(
            "cpu_us_per_fetch",
            "us",
            over_windows(measured, |w| {
                w.cpu_ns as f64 / 1e3 / w.fetches.max(1) as f64
            }),
            fetches,
        ),
        Metric::new("server_hit_rate", "fraction", measured.hit_rate, fetches),
        Metric::new("rss_peak_mb", "MB", rss_peak_mb, 1),
    ]
}

/// Prints one aligned line per metric.
pub fn print_table(workload: &str, metrics: &[Metric]) {
    for m in metrics {
        let note = if m.note.is_empty() {
            String::new()
        } else {
            format!("  [{}]", m.note)
        };
        println!(
            "{workload:<15} {:<34} {:>16.4} {:<9} n={}{note}",
            m.name, m.value, m.unit, m.samples
        );
    }
}

/// The driver's result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each metric a `{value, unit}` pair.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Ends a run: prints every correctness violation, then the result line,
/// and returns the process's exit code. A run is correct when nothing
/// was violated, every metric is finite and at least one fetch was sent.
pub fn finish(
    program: &str,
    errors: &[String],
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> ExitCode {
    for error in errors {
        eprintln!("{program}: INCORRECT: {error}");
    }
    let finite = metrics.iter().all(|m| m.value.is_finite());
    if !finite {
        eprintln!("{program}: a metric is not finite");
    }
    let correct = errors.is_empty() && finite && attempted > 0;
    println!("{}", result_json(correct, attempted, failed, metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgcache_types::json::Json;

    fn window(fetches: u64, mut latencies_ns: Vec<u64>) -> Window {
        let mut window = Window {
            fetches,
            fetch_per_s: fetches as f64,
            cpu_ns: fetches * 2_000,
            ..Window::default()
        };
        window.summarise(&mut latencies_ns, 1);
        window
    }

    #[test]
    fn metrics_are_medians_over_windows() {
        let measured = Measured {
            windows: vec![
                window(100, (1..=100).map(|v| v * 1_000).collect()),
                window(300, (1..=100).map(|v| v * 3_000).collect()),
                window(200, (1..=100).map(|v| v * 2_000).collect()),
            ],
            hit_rate: 0.5,
            ..Measured::default()
        };
        let metrics = end_to_end(1.5, 12.0, &measured);
        let get = |name: &str| {
            metrics
                .iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("{name} missing"))
        };
        assert_eq!(get("fetch_per_s").value, 200.0);
        assert_eq!(get("fetch_p50_us").value, 100.0);
        assert_eq!(get("fetch_p90_us").value, 180.0);
        assert_eq!(get("cpu_us_per_fetch").value, 2.0);
        assert_eq!(get("setup_s").value, 1.5);
        assert_eq!(get("fetch_per_s").samples, 600);
        assert!(get("fetch_p50_us").note.is_empty());
        // The demoted p99: 300 pooled samples leave only 3 beyond it.
        let p99 = fetch_p99(&measured);
        assert_eq!(p99.value, 198.0);
        assert!(p99.note.contains("unstable") && p99.note.contains("only 3"));
    }

    #[test]
    fn the_result_line_is_the_contracts_shape() {
        let metrics = vec![
            Metric::new("setup_s", "s", 0.8127, 1),
            Metric::new("fetch_per_s", "1/s", 2000.25, 10),
        ];
        let line = result_json(true, 1000, 0, &metrics);
        let parsed = Json::parse(&line).expect("valid JSON");
        assert_eq!(parsed.get("attempted").and_then(Json::as_u64), Some(1000));
        assert_eq!(parsed.get("failed").and_then(Json::as_u64), Some(0));
        let setup = parsed
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .expect("setup_s present");
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
        assert!(line.contains("\"correct\": true"));
        assert!(line.contains("\"value\": 0.8127"));
    }
}
