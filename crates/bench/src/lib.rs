//! Shared plumbing for the `repro` binary, which regenerates the
//! paper's evaluation: `repro <figure>` prints one table or figure at a
//! standard scale as an aligned table and writes its CSV under
//! `results/`. All runs are deterministic: fixed seed, fixed event
//! counts. The binary's docs list the figure names and expected shapes.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::fs;
use std::io::Write as _;
use std::path::PathBuf;

use fgcache_sim::Table;
use fgcache_trace::synth::{SynthConfig, WorkloadProfile};
use fgcache_trace::Trace;

/// Standard trace length for figure reproduction (large enough for the
/// paper-scale fetch counts, small enough to run all figures in minutes).
pub const STANDARD_EVENTS: usize = 150_000;

/// Fixed seed for all figure reproductions.
pub const STANDARD_SEED: u64 = 20020702; // ICDCS 2002, Vienna

/// Generates the standard trace for a workload profile.
///
/// # Panics
///
/// Panics if the built-in profile configuration fails validation (a bug).
pub fn standard_trace(profile: WorkloadProfile) -> Trace {
    SynthConfig::profile(profile)
        .events(STANDARD_EVENTS)
        .seed(STANDARD_SEED)
        .build()
        .expect("built-in profiles are valid")
        .generate()
}

/// Prints a table to stdout and writes its CSV under `results/<name>.csv`
/// (directory created on demand). Returns the CSV path.
///
/// # Errors
///
/// Returns an error if the results directory or file cannot be written.
pub fn emit(name: &str, table: &Table) -> std::io::Result<PathBuf> {
    println!("{table}");
    let dir = PathBuf::from("results");
    fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.csv"));
    let mut f = fs::File::create(&path)?;
    f.write_all(table.to_csv().as_bytes())?;
    println!("[csv written to {}]\n", path.display());
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emit_writes_csv() {
        let mut table = Table::new("t", ["a"]);
        table.push_row(["1"]);
        let path = emit("unit_test_emit", &table).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.starts_with("a\n"));
        std::fs::remove_file(path).ok();
    }
}
