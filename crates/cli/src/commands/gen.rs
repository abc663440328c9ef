//! `fgcache gen` — generate a synthetic workload trace.

use std::error::Error;

use fgcache_trace::synth::{SynthConfig, WorkloadProfile};
use fgcache_trace::Trace;

use crate::args::Args;
use crate::commands::{create_trace_sink, detect_format};

const FLAGS: &[&str] = &[
    "profile",
    "events",
    "seed",
    "out",
    "format",
    "streams",
    "noise",
    "drift",
    "repeat-rate",
];

pub(crate) fn build_trace(args: &Args) -> Result<Trace, Box<dyn Error>> {
    args.check_known(FLAGS)?;
    let profile = match args.flag("profile").unwrap_or("workstation") {
        "workstation" => WorkloadProfile::Workstation,
        "users" => WorkloadProfile::Users,
        "write" => WorkloadProfile::Write,
        "server" => WorkloadProfile::Server,
        other => {
            return Err(
                format!("unknown --profile {other:?} (workstation|users|write|server)").into(),
            )
        }
    };
    let mut config = SynthConfig::profile(profile)
        .events(args.flag_or("events", 100_000usize)?)
        .seed(args.flag_or("seed", 0u64)?);
    if let Some(streams) = args.flag("streams") {
        config = config.streams(streams.parse().map_err(|_| "invalid --streams")?);
    }
    if let Some(noise) = args.flag("noise") {
        config = config.noise(noise.parse().map_err(|_| "invalid --noise")?);
    }
    if let Some(drift) = args.flag("drift") {
        config = config.drift(drift.parse().map_err(|_| "invalid --drift")?);
    }
    if let Some(rate) = args.flag("repeat-rate") {
        config = config.repeat_rate(rate.parse().map_err(|_| "invalid --repeat-rate")?);
    }
    Ok(config.build()?.generate())
}

pub fn run(tokens: &[String]) -> Result<(), Box<dyn Error>> {
    let args = Args::parse(tokens.iter().cloned())?;
    let trace = build_trace(&args)?;
    let out = args.flag("out").unwrap_or("trace.txt");
    let mut sink = create_trace_sink(out, detect_format(out, args.flag("format"))?)?;
    for ev in trace.events() {
        sink.push(ev)?;
    }
    sink.finish()?;
    println!("wrote {} events to {out}", trace.len());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_with_defaults() {
        let args = Args::parse(["--events", "500", "--seed", "3"]).unwrap();
        let trace = build_trace(&args).unwrap();
        assert_eq!(trace.len(), 500);
    }

    #[test]
    fn profile_selected() {
        let args = Args::parse(["--profile", "server", "--events", "100"]).unwrap();
        let trace = build_trace(&args).unwrap();
        assert!(trace.clients().len() <= 2);
    }

    #[test]
    fn rejects_unknown_profile_and_flags() {
        let args = Args::parse(["--profile", "mainframe"]).unwrap();
        assert!(build_trace(&args).is_err());
        let args = Args::parse(["--bogus", "1"]).unwrap();
        assert!(build_trace(&args).is_err());
    }

    #[test]
    fn knob_overrides_apply() {
        let args = Args::parse([
            "--events",
            "200",
            "--noise",
            "0.0",
            "--drift",
            "0.0",
            "--repeat-rate",
            "0.0",
        ])
        .unwrap();
        assert_eq!(build_trace(&args).unwrap().len(), 200);
        let args = Args::parse(["--noise", "nope"]).unwrap();
        assert!(build_trace(&args).is_err());
    }
}
