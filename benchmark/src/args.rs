//! Command-line flags shared by the `bench` and `bench-trace` binaries.

use crate::workload::Workload;

/// Seed used when `--seed` is absent.
pub const DEFAULT_SEED: u64 = 2002;

/// Parsed flags.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// `--workload NAME` (required).
    pub workload: Workload,
    /// `--seed N`.
    pub seed: u64,
    /// `--seconds S`: length of the measured phase.
    pub seconds: f64,
    /// `--windows N`: windows the measured phase is cut into.
    pub windows: usize,
    /// `--setups N`: complete set-ups timed; `setup_s` is their median.
    pub setups: usize,
    /// `--value-of NAME`: print only that metric's value (run.sh uses it
    /// to hand the untraced `fetch_per_s` to the traced run).
    pub value_of: Option<String>,
    /// `--untraced-fetch-per-s X`: the untraced binary's `inproc-cold`
    /// throughput, for `bench.trace_overhead_frac`.
    pub untraced_fetch_per_s: Option<f64>,
    /// `--out DIR`: where the traced run writes its spans.
    pub out: String,
}

fn number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("invalid value {value:?} for {flag}"))
}

/// Parses `--flag value` pairs.
///
/// # Errors
///
/// Returns a usage message on an unknown flag, a missing or malformed
/// value, or an unknown workload name.
pub fn parse(mut tokens: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut args = Args {
        workload: Workload::InprocHot,
        seed: DEFAULT_SEED,
        seconds: 20.0,
        windows: 20,
        setups: 5,
        value_of: None,
        untraced_fetch_per_s: None,
        out: "benchmark/out".to_string(),
    };
    while let Some(flag) = tokens.next() {
        let value = tokens
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?}; one of {}", names.join(", "))
                })?);
            }
            "--seed" => args.seed = number(&flag, &value)?,
            "--seconds" => args.seconds = number(&flag, &value)?,
            "--windows" => args.windows = number(&flag, &value)?,
            "--setups" => args.setups = number(&flag, &value)?,
            "--value-of" => args.value_of = Some(value),
            "--untraced-fetch-per-s" => args.untraced_fetch_per_s = Some(number(&flag, &value)?),
            "--out" => args.out = value,
            // The driver always passes --trace; run.sh picks the binary.
            "--trace" => {}
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload NAME is required")?;
    if !(args.seconds.is_finite() && args.seconds > 0.0) || args.windows == 0 || args.setups == 0 {
        return Err("--seconds, --windows and --setups must be positive".to_string());
    }
    Ok(args)
}

impl Args {
    /// Length of one measurement window, in nanoseconds.
    pub fn window_ns(&self) -> u64 {
        (self.seconds * 1e9 / self.windows as f64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(line: &str) -> Result<Args, String> {
        parse(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let args = parse_str("--workload tcp-burst --seed 7 --seconds 20 --trace 0").expect("ok");
        assert_eq!(args.workload, Workload::TcpBurst);
        assert_eq!(args.seed, 7);
        assert_eq!(args.window_ns(), 1_000_000_000);
        assert_eq!(
            parse_str("--workload inproc-hot").expect("ok").seed,
            DEFAULT_SEED
        );
    }

    #[test]
    fn bad_command_lines_are_refused() {
        assert!(parse_str("--seed 7").is_err());
        assert!(parse_str("--workload nope").is_err());
        assert!(parse_str("--workload inproc-hot --seed").is_err());
        assert!(parse_str("--workload inproc-hot --seconds 0").is_err());
        assert!(parse_str("--workload inproc-hot --bogus 1").is_err());
    }
}
