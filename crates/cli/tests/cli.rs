//! End-to-end tests of the `fgcache` binary, driving it as a subprocess.

use std::process::{Command, Output};

fn fgcache(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fgcache"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn tmp(name: &str) -> String {
    let mut p = std::env::temp_dir();
    p.push(format!("fgcache-cli-test-{}-{name}", std::process::id()));
    p.to_string_lossy().into_owned()
}

#[test]
fn no_args_prints_usage_and_fails() {
    let out = fgcache(&[]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));
}

#[test]
fn help_succeeds() {
    let out = fgcache(&["help"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("two-level"));
}

#[test]
fn unknown_command_fails_cleanly() {
    let out = fgcache(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn full_pipeline_text_format() {
    let trace = tmp("pipeline.txt");
    let out = fgcache(&[
        "gen",
        "--profile",
        "server",
        "--events",
        "4000",
        "--seed",
        "9",
        "--out",
        &trace,
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("wrote 4000 events"));

    let out = fgcache(&["stats", &trace]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("events            4000"));

    let out = fgcache(&["entropy", &trace, "--max-k", "3"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("bits"));

    let out = fgcache(&["simulate", &trace, "--capacity", "200", "--policy", "agg"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("demand fetches"));

    let out = fgcache(&["simulate", &trace, "--capacity", "200", "--policy", "2q"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("2q cache"));

    // A deleted policy is an unknown name: the error lists the valid ones.
    let out = fgcache(&["simulate", &trace, "--capacity", "200", "--policy", "arc"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(err.contains("\"arc\""), "{err}");
    assert!(
        err.contains("expected one of lru, lfu, 2q, landlord"),
        "{err}"
    );

    let out = fgcache(&[
        "simulate",
        &trace,
        "--capacity",
        "200",
        "--clients",
        "4",
        "--shards",
        "2",
        "--filter",
        "50",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.contains("2 shard(s)"), "{text}");
    assert!(text.contains("shard imbalance"), "{text}");
    // The multi-client run is deterministic: a second run reports
    // byte-identical output.
    let again = fgcache(&[
        "simulate",
        &trace,
        "--capacity",
        "200",
        "--clients",
        "4",
        "--shards",
        "2",
        "--filter",
        "50",
    ]);
    assert_eq!(out.stdout, again.stdout);

    // Sharded mode rejects plain policies.
    let out = fgcache(&[
        "simulate",
        &trace,
        "--capacity",
        "200",
        "--clients",
        "2",
        "--policy",
        "lru",
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--policy agg"));

    let out = fgcache(&[
        "two-level",
        &trace,
        "--filter",
        "50,150",
        "--server",
        "100",
        "--scheme",
        "g5,lru",
    ]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.contains("g5") && text.contains("lru"), "{text}");

    let out = fgcache(&["groups", &trace, "--top", "3"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("relationship graph"));

    std::fs::remove_file(&trace).ok();
}

#[test]
fn binary_format_roundtrips_through_cli() {
    let trace = tmp("pipeline.bin");
    // `gen` picks the format from the extension, as the readers do.
    let out = fgcache(&["gen", "--events", "1000", "--seed", "2", "--out", &trace]);
    assert!(out.status.success());
    let bytes = std::fs::read(&trace).unwrap();
    assert!(bytes.starts_with(b"FGTRACE1"), "{:?}", &bytes[..8]);
    // Extension-based autodetection.
    let out = fgcache(&["stats", &trace]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("events            1000"));
    // Explicit override also works.
    let out = fgcache(&["stats", &trace, "--format", "bin"]);
    assert!(out.status.success());
    std::fs::remove_file(&trace).ok();
}

#[test]
fn bad_flags_fail_with_messages() {
    let out = fgcache(&["simulate", "/nonexistent", "--capacity", "10"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot open"));

    let trace = tmp("badflags.txt");
    assert!(fgcache(&["gen", "--events", "100", "--out", &trace])
        .status
        .success());
    let out = fgcache(&["simulate", &trace]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--capacity"));

    let out = fgcache(&["simulate", &trace, "--capacity", "10", "--wat", "1"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag"));

    // JSON is not a trace format: every format flag names the two there are.
    let json_out = tmp("badflags.json");
    for args in [
        vec![
            "gen", "--events", "10", "--out", &json_out, "--format", "json",
        ],
        vec!["stats", &trace, "--format", "json"],
        vec![
            "convert", &trace, "--from", "dfstrace", "--out", &json_out, "--to", "json",
        ],
    ] {
        let out = fgcache(&args);
        assert!(!out.status.success(), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(
            err.contains("unknown trace format \"json\" (text|bin)"),
            "{args:?}: {err}"
        );
    }
    std::fs::remove_file(&trace).ok();

    // `bench-net` is an unknown command, and the usage printed with the
    // error does not name it.
    let out = fgcache(&["bench-net", "--loopback", "true"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(err.contains("unknown command \"bench-net\""), "{err}");
    assert!(
        err.contains("USAGE") && err.contains("bench-cluster"),
        "{err}"
    );
    assert!(
        !err.lines().any(|l| l.trim_start().starts_with("bench-net")),
        "{err}"
    );

    // `bench-cluster` has no in-process fleet mode.
    let out = fgcache(&["bench-cluster", "--virtual", "true"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(err.contains("unknown flag --virtual"), "{err}");
}

#[test]
fn failed_convert_leaves_no_output_file() {
    let log = tmp("convert-src.dfs");
    std::fs::write(
        &log,
        "0.1 alice open /a\n0.2 bob read /b\n0.3 alice write /a extra\n",
    )
    .unwrap();
    for (from, out_path, message) in [
        // An unknown dialect is refused before the output is created.
        ("ltrace", tmp("convert-dialect.txt"), "dfstrace|strace"),
        // A parse error after two good events removes the partial trace.
        ("dfstrace", tmp("convert-line3.txt"), "line 3"),
        ("dfstrace", tmp("convert-line3.bin"), "line 3"),
    ] {
        let out = fgcache(&["convert", &log, "--from", from, "--out", &out_path]);
        assert!(!out.status.success(), "{from} -> {out_path}");
        let err = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(err.contains(message), "{from} -> {out_path}: {err}");
        assert!(
            !std::path::Path::new(&out_path).exists(),
            "{out_path} was left behind"
        );
    }
    // Refused flags never touch an existing file at the output path.
    let kept = tmp("convert-kept.txt");
    std::fs::write(&kept, "not a trace\n").unwrap();
    let out = fgcache(&["convert", &log, "--from", "ltrace", "--out", &kept]);
    assert!(!out.status.success());
    assert_eq!(std::fs::read_to_string(&kept).unwrap(), "not a trace\n");
    std::fs::remove_file(&kept).ok();
    std::fs::remove_file(&log).ok();
}
