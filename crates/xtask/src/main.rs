//! `xtask` — the workspace's static-analysis gate.
//!
//! ```text
//! cargo run -p xtask -- lint        # pure static checks, no cargo subprocesses
//! cargo run -p xtask -- analyze     # three token-based code-discipline passes
//! cargo run -p xtask -- fuzz        # differential fuzzers over the pinned seed set
//! cargo run -p xtask -- fuzz --minutes N   # soak: fresh derived seeds until N minutes pass
//! ```
//!
//! `lint` enforces the hermetic-build policy without compiling anything:
//!
//! 1. **Dependency allowlist** — every `[dependencies]`,
//!    `[dev-dependencies]` and `[build-dependencies]` entry in every
//!    workspace manifest must name another workspace crate. Any external
//!    crate fails the gate; the workspace builds from `std` alone.
//! 2. **Unsafe confinement and crate attributes** — every crate root
//!    carries `#![deny(missing_docs)]` and `#![forbid(unsafe_code)]`,
//!    except `fgcache-net`, which carries `#![deny(unsafe_code)]`: its
//!    `src/poller.rs` holds the workspace's one FFI call (`poll(2)`, from
//!    the libc `std` already links). Under every `src/` tree that file
//!    is the only one that may contain an `unsafe` block or an `extern`
//!    declaration — one of each, the block under a `// SAFETY:` comment.
//! 3. **Panic-free library code** — no `.unwrap()`, `todo!()` or
//!    `unimplemented!()` outside `#[cfg(test)]` modules in any `src/`
//!    file (`.expect("why")` is allowed: it documents the invariant).
//! 4. **Mutex lock discipline** — no `.lock().unwrap()` chain (even
//!    split across lines) outside `#[cfg(test)]`; a poisoned-mutex
//!    bailout must say what was poisoned via `.expect("...")`.
//! 5. **Socket confinement** — `std::net` appears only in `fgcache-net`.
//!    Every other crate goes through the `Transport` trait, so simulations
//!    stay deterministic and the wire protocol has one implementation.
//!    In particular `fgcache-cluster` proxies to peers via injected
//!    transports and never dials sockets itself.
//! 6. **No raw control bytes** — no byte below 0x20 other than tab, LF
//!    and CR in any `src/` file. A literal NUL makes `grep`/`rg` report
//!    the whole file as binary and hide every match in it; string
//!    literals spell such bytes as escapes (`\x00`).
//!
//! `fuzz` runs the differential fuzzers — the aggregating-cache
//! directory suite, the sharded-composition suite, the policy/two-level
//! suite and the trace malformed-input suite (the text and binary
//! readers) — over a bounded deterministic seed set (exported as
//! `FGCACHE_FUZZ_SEEDS`), so CI exercises more seeds than the in-repo
//! defaults without ever becoming flaky.
//!
//! `analyze` lexes every source file with the small tokenizer in
//! [`lexer`] — so comments, strings and test-gated items are
//! structurally excluded — and enforces three rules:
//!
//! 1. **`SeqCst` ban** — `Ordering::SeqCst` never appears in library
//!    code, workspace-wide. Every ordering must say what it publishes
//!    or acquires; no code here needs a single total order.
//! 2. **Ascending lock loops** — a loop that acquires shard locks must
//!    not iterate in reverse (`.rev()`); the lock-order witness enforces
//!    the same discipline at runtime in debug builds.
//! 3. **Checked id narrowing** — no truncating `as` cast on u64 file
//!    ids; a narrower id must come from a checked conversion
//!    (`try_from`).
//!
//! The lint and analyze checks are dependency-free (lexer included):
//! the gate itself must not need anything the gate forbids.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod lexer;

use lexer::{match_backward, match_forward, strip_test_code, tokenize, Token, TokenKind};

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// One gate violation: where it is and what rule it breaks.
#[derive(Debug)]
struct Violation {
    file: PathBuf,
    line: Option<usize>,
    message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.line {
            Some(n) => write!(f, "{}:{}: {}", self.file.display(), n, self.message),
            None => write!(f, "{}: {}", self.file.display(), self.message),
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let root = workspace_root();
    match args.first().map(String::as_str) {
        Some("lint") => lint(&root),
        Some("analyze") => analyze(&root),
        Some("fuzz") => match parse_minutes(&args[1..]) {
            Ok(None) => fuzz(&root),
            Ok(Some(minutes)) => fuzz_soak(&root, minutes),
            Err(e) => {
                eprintln!("xtask fuzz: {e}");
                ExitCode::FAILURE
            }
        },
        _ => {
            eprintln!("usage: cargo run -p xtask -- <lint|analyze|fuzz [--minutes N]>");
            ExitCode::FAILURE
        }
    }
}

/// Parses `--minutes N` out of a `fuzz` argument list.
fn parse_minutes(args: &[String]) -> Result<Option<u64>, String> {
    match args.iter().position(|a| a == "--minutes") {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .ok_or_else(|| "--minutes needs a value".to_string())?
            .parse::<u64>()
            .map(Some)
            .map_err(|_| "--minutes value must be a whole number of minutes".to_string()),
    }
}

/// The workspace root: the manifest dir's grandparent (`crates/xtask`).
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .unwrap_or(manifest)
}

/// Runs all static checks; prints violations and returns the exit code.
fn lint(root: &Path) -> ExitCode {
    let members = workspace_members(root);
    let allowed: Vec<String> = members.iter().map(|m| m.name.clone()).collect();

    let mut violations = Vec::new();
    check_dependency_allowlist(root, &members, &allowed, &mut violations);
    check_crate_attributes(&members, &mut violations);
    check_unsafe_confinement(&members, &mut violations);
    check_panic_free_sources(&members, &mut violations);
    check_lock_discipline(&members, &mut violations);
    check_socket_confinement(&members, &mut violations);
    check_control_bytes(&members, &mut violations);

    if violations.is_empty() {
        println!(
            "xtask lint: {} crates clean (allowlist, attributes, unsafe confinement, \
             panic-free sources, lock discipline, socket confinement, control bytes)",
            members.len()
        );
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            eprintln!("error: {v}");
        }
        eprintln!("xtask lint: {} violation(s)", violations.len());
        ExitCode::FAILURE
    }
}

/// The bounded deterministic seed set the differential fuzzers run under
/// in CI — a superset of the suites' built-in defaults. Growing this list
/// grows coverage linearly and deterministically; no seed here ever makes
/// the gate flaky.
const FUZZ_SEEDS: &str = "0xfeedface,0xbadc0ffe,1,42,20020702";

/// Runs the differential fuzzers over [`FUZZ_SEEDS`]: the aggregating
/// cache's directory suite (against the `LruCache` + `SuccessorTable`
/// composition it replaced), the sharded aggregating-cache composition
/// suite and the trace malformed-input suite over the text and binary
/// readers (all three read `FGCACHE_FUZZ_SEEDS`), plus the policy +
/// two-level suite (fixed internal seeds).
fn fuzz(root: &Path) -> ExitCode {
    fuzz_with_seeds(root, FUZZ_SEEDS)
}

/// One pass of all fuzz suites under an explicit seed list.
fn fuzz_with_seeds(root: &Path, seeds: &str) -> ExitCode {
    let suites: [(&str, &[&str]); 4] = [
        (
            "aggregating-cache directory fuzzer",
            &[
                "test",
                "-q",
                "-p",
                "fgcache-core",
                "--test",
                "directory_differential",
            ],
        ),
        (
            "sharded composition fuzzer",
            &[
                "test",
                "-q",
                "-p",
                "fgcache-core",
                "--test",
                "sharded_differential",
            ],
        ),
        (
            "policy + two-level fuzzer",
            &[
                "test",
                "-q",
                "-p",
                "fgcache-cache",
                "--test",
                "differential",
            ],
        ),
        (
            "trace malformed-input fuzzer",
            &["test", "-q", "-p", "fgcache-trace", "--test", "malformed"],
        ),
    ];
    for (label, cargo_args) in suites {
        println!("==> fuzz: {label} (FGCACHE_FUZZ_SEEDS={seeds})");
        let ok = Command::new("cargo")
            .args(cargo_args)
            .env("FGCACHE_FUZZ_SEEDS", seeds)
            .current_dir(root)
            .status()
            .map(|s| s.success())
            .unwrap_or(false);
        if !ok {
            eprintln!("xtask fuzz: suite failed: {label}");
            return ExitCode::FAILURE;
        }
    }
    println!("xtask fuzz: all suites passed");
    ExitCode::SUCCESS
}

/// SplitMix64 — the same mixer the workspace uses, reimplemented here
/// so the soak seed schedule is deterministic without a dependency.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Soak mode: reruns the differential fuzz suites with a fresh derived
/// seed set each round until `minutes` have elapsed (at least one round
/// always runs). Round 0 uses the pinned [`FUZZ_SEEDS`]; round `r`
/// derives five seeds from `splitmix64(r)`, so any failure names a
/// round whose exact seed list is reproducible offline.
fn fuzz_soak(root: &Path, minutes: u64) -> ExitCode {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(minutes * 60);
    let mut round: u64 = 0;
    loop {
        let seeds = if round == 0 {
            FUZZ_SEEDS.to_string()
        } else {
            (0..5)
                .map(|i| format!("{:#x}", splitmix64(round.wrapping_mul(8) + i)))
                .collect::<Vec<_>>()
                .join(",")
        };
        println!("==> fuzz soak: round {round} (seeds {seeds})");
        if fuzz_with_seeds(root, &seeds) != ExitCode::SUCCESS {
            eprintln!("xtask fuzz: soak round {round} failed (seeds {seeds})");
            return ExitCode::FAILURE;
        }
        round += 1;
        if std::time::Instant::now() >= deadline {
            break;
        }
    }
    println!("xtask fuzz: soak finished after {round} round(s) / {minutes} minute(s)");
    ExitCode::SUCCESS
}

/// A workspace member crate: package name, manifest path, crate root.
struct Member {
    name: String,
    manifest: PathBuf,
    src_dir: PathBuf,
    crate_root: PathBuf,
}

/// Enumerates workspace members: the root package plus every `crates/*`
/// directory containing a `Cargo.toml`.
fn workspace_members(root: &Path) -> Vec<Member> {
    let mut manifests = vec![root.join("Cargo.toml")];
    let crates_dir = root.join("crates");
    let mut dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .map(|e| e.path())
                .filter(|p| p.join("Cargo.toml").is_file())
                .collect()
        })
        .unwrap_or_default();
    dirs.sort();
    manifests.extend(dirs.iter().map(|d| d.join("Cargo.toml")));

    manifests
        .into_iter()
        .filter_map(|manifest| {
            let dir = manifest.parent()?.to_path_buf();
            let text = fs::read_to_string(&manifest).ok()?;
            let name = package_name(&text)?;
            let src_dir = dir.join("src");
            let lib = src_dir.join("lib.rs");
            let crate_root = if lib.is_file() {
                lib
            } else {
                src_dir.join("main.rs")
            };
            Some(Member {
                name,
                manifest,
                src_dir,
                crate_root,
            })
        })
        .collect()
}

/// Extracts `name = "..."` from a manifest's `[package]` section.
fn package_name(manifest_text: &str) -> Option<String> {
    let mut in_package = false;
    for line in manifest_text.lines() {
        let line = line.trim();
        if let Some(section) = line.strip_prefix('[') {
            in_package = section.trim_end_matches(']') == "package";
            continue;
        }
        if in_package {
            if let Some(rest) = line.strip_prefix("name") {
                let rest = rest.trim_start();
                if let Some(value) = rest.strip_prefix('=') {
                    return Some(value.trim().trim_matches('"').to_string());
                }
            }
        }
    }
    None
}

/// Check 1: every dependency in every manifest is a workspace crate.
fn check_dependency_allowlist(
    root: &Path,
    members: &[Member],
    allowed: &[String],
    violations: &mut Vec<Violation>,
) {
    for member in members {
        let Ok(text) = fs::read_to_string(&member.manifest) else {
            violations.push(Violation {
                file: member.manifest.clone(),
                line: None,
                message: "unreadable manifest".into(),
            });
            continue;
        };
        let is_root = member.manifest == root.join("Cargo.toml");
        let mut in_deps = false;
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if let Some(section) = line.strip_prefix('[') {
                let section = section.trim_end_matches(']');
                // The root manifest also declares [workspace.dependencies];
                // member manifests reference those entries by name.
                in_deps = section.ends_with("dependencies")
                    && (is_root || !section.starts_with("workspace"));
                continue;
            }
            if !in_deps || line.is_empty() || line.starts_with('#') {
                continue;
            }
            let Some(dep) = line.split('=').next().map(str::trim) else {
                continue;
            };
            // `foo.workspace = true` is a dotted key: the dep is `foo`.
            let dep = dep.split('.').next().unwrap_or(dep).trim_matches('"');
            if dep.is_empty() {
                continue;
            }
            if !allowed.iter().any(|a| a == dep) {
                violations.push(Violation {
                    file: member.manifest.clone(),
                    line: Some(idx + 1),
                    message: format!(
                        "external dependency `{dep}` — the workspace is hermetic; \
                         only workspace crates are allowed"
                    ),
                });
            }
        }
    }
}

/// The one crate, and the one file under its `src/`, allowed an `unsafe`
/// block and an `extern` declaration: the `poll(2)` call.
const FFI_CRATE: &str = "fgcache-net";
const FFI_FILE: &str = "poller.rs";

/// The unsafe-code attribute a crate root must carry: `forbid` everywhere
/// except the FFI crate, where `deny` lets the one audited function opt
/// out (and [`check_unsafe_confinement`] holds it to that one).
fn unsafe_code_attribute(crate_name: &str) -> &'static str {
    if crate_name == FFI_CRATE {
        "#![deny(unsafe_code)]"
    } else {
        "#![forbid(unsafe_code)]"
    }
}

/// Check 2a: every crate root denies missing docs and forbids unsafe code
/// (the FFI crate: denies it).
fn check_crate_attributes(members: &[Member], violations: &mut Vec<Violation>) {
    for member in members {
        let Ok(text) = fs::read_to_string(&member.crate_root) else {
            violations.push(Violation {
                file: member.crate_root.clone(),
                line: None,
                message: "unreadable crate root".into(),
            });
            continue;
        };
        for required in [
            unsafe_code_attribute(&member.name),
            "#![deny(missing_docs)]",
        ] {
            if !text.lines().any(|l| l.trim() == required) {
                violations.push(Violation {
                    file: member.crate_root.clone(),
                    line: None,
                    message: format!("crate root is missing `{required}`"),
                });
            }
        }
    }
}

/// Check 2b: under every `src/` tree, `unsafe` and `extern` appear only in
/// the FFI file. Token-based, like the socket scan: comments, strings and
/// test-gated items do not count.
fn check_unsafe_confinement(members: &[Member], violations: &mut Vec<Violation>) {
    for member in members {
        let ffi_file = member.src_dir.join(FFI_FILE);
        for file in rust_sources(&member.src_dir) {
            let Ok(text) = fs::read_to_string(&file) else {
                continue;
            };
            let is_ffi_file = member.name == FFI_CRATE && file == ffi_file;
            scan_unsafe_sites(&file, &text, is_ffi_file, violations);
        }
    }
}

/// Scans one source file: no `unsafe` or `extern` keyword at all, or — in
/// the FFI file — exactly one `unsafe` directly under a `// SAFETY:`
/// comment and at most one `extern`.
fn scan_unsafe_sites(file: &Path, text: &str, is_ffi_file: bool, violations: &mut Vec<Violation>) {
    let tokens = code_tokens(text);
    let allowed = usize::from(is_ffi_file);
    for keyword in ["unsafe", "extern"] {
        let sites = tokens.iter().filter(|t| t.is_ident(keyword));
        for site in sites.skip(allowed) {
            violations.push(Violation {
                file: file.to_path_buf(),
                line: Some(site.line),
                message: format!(
                    "`{keyword}` outside the one audited FFI site — the workspace's only \
                     `unsafe` block and `extern` declaration live in \
                     crates/net/src/{FFI_FILE}, once each"
                ),
            });
        }
    }
    if !is_ffi_file {
        return;
    }
    let Some(site) = tokens.iter().find(|t| t.is_ident("unsafe")) else {
        violations.push(Violation {
            file: file.to_path_buf(),
            line: None,
            message: format!(
                "no `unsafe` block left here — give {FFI_CRATE} back its \
                 `#![forbid(unsafe_code)]` and drop this exemption"
            ),
        });
        return;
    };
    let lines: Vec<&str> = text.lines().collect();
    let justified = lines[..site.line - 1]
        .iter()
        .rev()
        .map(|l| l.trim_start())
        .take_while(|l| l.starts_with("//"))
        .any(|l| l.starts_with("// SAFETY:"));
    if !justified {
        violations.push(Violation {
            file: file.to_path_buf(),
            line: Some(site.line),
            message: "`unsafe` block without a `// SAFETY:` comment directly above it".into(),
        });
    }
}

/// Check 3: no `.unwrap()` / `todo!()` / `unimplemented!()` outside
/// `#[cfg(test)]` in any `src/` file.
fn check_panic_free_sources(members: &[Member], violations: &mut Vec<Violation>) {
    for member in members {
        for file in rust_sources(&member.src_dir) {
            let Ok(text) = fs::read_to_string(&file) else {
                continue;
            };
            scan_panic_markers(&file, &text, violations);
        }
    }
}

/// Recursively lists `.rs` files under `dir`, sorted for stable output.
fn rust_sources(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(rd) = fs::read_dir(&d) else {
            continue;
        };
        for entry in rd.filter_map(Result::ok) {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

/// Scans one source file for forbidden panic constructs, skipping
/// comments and everything from the first `#[cfg(test)]` on (test
/// modules sit at the end of each file in this workspace; a forbidden
/// call *above* the test module is still caught).
fn scan_panic_markers(file: &Path, text: &str, violations: &mut Vec<Violation>) {
    // Escapes keep this file's own source text free of the markers it
    // hunts for (the scanner would otherwise flag this very line).
    const MARKERS: [&str; 3] = [".unwr\u{61}p()", "tod\u{6f}!(", "unimplement\u{65}d!("];
    for (idx, raw) in text.lines().enumerate() {
        let trimmed = raw.trim_start();
        if trimmed.starts_with("#[cfg(test)]") {
            break;
        }
        if trimmed.starts_with("//") {
            continue; // doc comments and ordinary comments (incl. doctests)
        }
        let code = raw.split("//").next().unwrap_or(raw);
        for marker in MARKERS {
            if code.contains(marker) {
                violations.push(Violation {
                    file: file.to_path_buf(),
                    line: Some(idx + 1),
                    message: format!(
                        "`{marker}` in library code — return an error or use \
                         `.expect(\"reason\")` to document the invariant"
                    ),
                });
            }
        }
    }
}

/// Check 4: no `.lock().unwrap()` chain in any `src/` file outside
/// test-gated items, however the chain is formatted. Token-based: the
/// chain is matched as a token sequence, so line breaks, interleaved
/// comments and string literals containing the chain are all handled
/// correctly — and code *after* a mid-file test module is still
/// scanned, which the old truncate-at-`#[cfg(test)]` line scan missed.
fn check_lock_discipline(members: &[Member], violations: &mut Vec<Violation>) {
    for member in members {
        for file in rust_sources(&member.src_dir) {
            let Ok(text) = fs::read_to_string(&file) else {
                continue;
            };
            scan_lock_unwrap(&file, &text, violations);
        }
    }
}

/// Library-code tokens of one source file: lexed, comments dropped,
/// test-gated items structurally removed.
fn code_tokens(text: &str) -> Vec<Token> {
    strip_test_code(&tokenize(text))
}

/// `true` if `tokens[i..]` is exactly `.name()` — a no-argument method
/// call of `name`.
fn is_nullary_call(tokens: &[Token], i: usize, name: &str) -> bool {
    tokens.get(i).is_some_and(|t| t.is_punct('.'))
        && tokens.get(i + 1).is_some_and(|t| t.is_ident(name))
        && tokens.get(i + 2).is_some_and(|t| t.is_punct('('))
        && tokens.get(i + 3).is_some_and(|t| t.is_punct(')'))
}

/// Scans one source file for `.lock()` whose next chained call is the
/// forbidden unwrap.
fn scan_lock_unwrap(file: &Path, text: &str, violations: &mut Vec<Violation>) {
    // Escaped so this file's own source never contains the hunted chain.
    let unwrap_name: String = "unwr\u{61}p".to_string();
    let tokens = code_tokens(text);
    for i in 0..tokens.len() {
        if is_nullary_call(&tokens, i, "lock") && is_nullary_call(&tokens, i + 4, &unwrap_name) {
            violations.push(Violation {
                file: file.to_path_buf(),
                line: Some(tokens[i + 1].line),
                message: format!(
                    "`.lock().{unwrap_name}()` in library code — the workspace standard \
                     is `.lock().expect(\"what was poisoned\")`"
                ),
            });
        }
    }
}

/// Check 5: sockets only in `fgcache-net`. Any other crate mentioning
/// `std::net` in library code bypasses the `Transport` abstraction (and
/// would make a simulation nondeterministic); tests and comments are
/// exempt, same as the panic scan. `fgcache-cluster` is deliberately
/// NOT exempt: cluster nodes reach their peers only through injected
/// `Transport`s, which is what lets the virtual fleet run socket-free.
fn check_socket_confinement(members: &[Member], violations: &mut Vec<Violation>) {
    for member in members {
        if member.name == "fgcache-net" || member.name == "xtask" {
            continue; // net owns the sockets; xtask scans for the marker
        }
        for file in rust_sources(&member.src_dir) {
            let Ok(text) = fs::read_to_string(&file) else {
                continue;
            };
            scan_socket_use(&file, &text, violations);
        }
    }
}

/// Scans one source file for the `std::net` path outside comments,
/// string literals and test-gated items. Token-based, so a mention in a
/// doc string is no longer a false positive and code after a mid-file
/// test module is still scanned.
fn scan_socket_use(file: &Path, text: &str, violations: &mut Vec<Violation>) {
    let net_name: String = "ne\u{74}".to_string(); // escaped: never self-flags
    let tokens = code_tokens(text);
    for i in 0..tokens.len() {
        if tokens[i].is_ident("std")
            && tokens.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && tokens.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && tokens.get(i + 3).is_some_and(|t| t.is_ident(&net_name))
        {
            violations.push(Violation {
                file: file.to_path_buf(),
                line: Some(tokens[i].line),
                message: format!(
                    "`std::{net_name}` outside fgcache-net — go through the `Transport` \
                     trait; only fgcache-net may open sockets"
                ),
            });
        }
    }
}

/// Check 6: no raw control bytes in any `src/` file.
fn check_control_bytes(members: &[Member], violations: &mut Vec<Violation>) {
    for member in members {
        for file in rust_sources(&member.src_dir) {
            let Ok(bytes) = fs::read(&file) else {
                continue;
            };
            scan_control_bytes(&file, &bytes, violations);
        }
    }
}

/// Flags each line of one source file that holds a byte below 0x20 other
/// than tab or CR (LF ends the line).
fn scan_control_bytes(file: &Path, bytes: &[u8], violations: &mut Vec<Violation>) {
    for (idx, line) in bytes.split(|&b| b == b'\n').enumerate() {
        if let Some(&b) = line.iter().find(|&&b| b < 0x20 && b != b'\t' && b != b'\r') {
            violations.push(Violation {
                file: file.to_path_buf(),
                line: Some(idx + 1),
                message: format!(
                    "raw control byte 0x{b:02x} — write it as an escape (`\\x{b:02x}`); \
                     text tools treat a file holding it as binary"
                ),
            });
        }
    }
}

/// Runs the three code-discipline passes; prints violations and
/// returns the exit code. See the crate docs for the rule list.
fn analyze(root: &Path) -> ExitCode {
    let members = workspace_members(root);
    let mut violations = Vec::new();
    check_seqcst_ban(&members, &mut violations);
    check_lock_loop_order(&members, &mut violations);
    check_id_narrowing(&members, &mut violations);
    if violations.is_empty() {
        println!(
            "xtask analyze: {} crates clean (SeqCst ban, ascending lock loops, \
             checked id narrowing)",
            members.len()
        );
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            eprintln!("error: {v}");
        }
        eprintln!("xtask analyze: {} violation(s)", violations.len());
        ExitCode::FAILURE
    }
}

/// Analyze check 1: the `SeqCst` ordering never appears in library
/// code, in any crate. (The token text is assembled at runtime so the
/// ban does not flag its own implementation.)
fn check_seqcst_ban(members: &[Member], violations: &mut Vec<Violation>) {
    let banned: String = "Seq\u{43}st".to_string();
    for member in members {
        for file in rust_sources(&member.src_dir) {
            let Ok(text) = fs::read_to_string(&file) else {
                continue;
            };
            for t in code_tokens(&text) {
                if t.kind == TokenKind::Ident && t.text == banned {
                    violations.push(Violation {
                        file: file.clone(),
                        line: Some(t.line),
                        message: format!(
                            "`Ordering::{banned}` is banned workspace-wide — say what the \
                             access publishes (Release) or acquires (Acquire); no code here \
                             needs a single total order"
                        ),
                    });
                }
            }
        }
    }
}

/// Analyze check 2: a loop body that acquires shard locks must not
/// iterate in reverse. Ascending acquisition order is the deadlock-
/// freedom discipline the runtime witness asserts in debug builds; a
/// `.rev()` in the loop header with a `shard(...)` call in the body is
/// a violation even if today only one such loop exists.
fn check_lock_loop_order(members: &[Member], violations: &mut Vec<Violation>) {
    for member in members {
        for file in rust_sources(&member.src_dir) {
            let Ok(text) = fs::read_to_string(&file) else {
                continue;
            };
            scan_lock_loops(&file, &code_tokens(&text), violations);
        }
    }
}

/// The reverse-shard-loop rule for one file's tokens.
fn scan_lock_loops(file: &Path, tokens: &[Token], violations: &mut Vec<Violation>) {
    for i in 0..tokens.len() {
        if !tokens[i].is_ident("for") {
            continue;
        }
        // Loop header: tokens up to the body `{` (struct literals are
        // not valid in a `for` iterator expression without parens).
        let Some(body_open) = (i + 1..tokens.len()).find(|&j| tokens[j].is_punct('{')) else {
            continue;
        };
        let header = &tokens[i + 1..body_open];
        let reversed = header.iter().any(|t| t.is_ident("rev"));
        if !reversed {
            continue;
        }
        let Some(body_close) = match_forward(tokens, body_open, '{', '}') else {
            continue;
        };
        let body = &tokens[body_open..body_close];
        let acquires_shard = body
            .windows(2)
            .any(|w| w[0].kind == TokenKind::Ident && w[0].text == "shard" && w[1].is_punct('('));
        if acquires_shard {
            violations.push(Violation {
                file: file.to_path_buf(),
                line: Some(tokens[i].line),
                message: "loop acquires shard locks while iterating in reverse — shard \
                          locks must be taken in ascending shard order (the debug-build \
                          lock witness enforces the same rule at runtime)"
                    .to_string(),
            });
        }
    }
}

/// Integer types narrower than the 64-bit file-id space.
const NARROWING_TARGETS: [&str; 9] = [
    "u8", "u16", "u32", "usize", "i8", "i16", "i32", "i64", "isize",
];

/// Identifier names the id-narrowing rule treats as file ids.
const ID_NAMES: [&str; 4] = ["id", "file", "fid", "file_id"];

/// Analyze check 3: no truncating `as` cast on u64 file ids — flags
/// `….as_u64() as <narrow>`, `<id>.0 as <narrow>` and `<id> as
/// <narrow>`. A narrower id must come from a checked conversion
/// (`try_from`), which reports overflow instead of truncating.
fn check_id_narrowing(members: &[Member], violations: &mut Vec<Violation>) {
    for member in members {
        for file in rust_sources(&member.src_dir) {
            let Ok(text) = fs::read_to_string(&file) else {
                continue;
            };
            scan_id_narrowing(&file, &code_tokens(&text), violations);
        }
    }
}

/// The id-narrowing rule for one file's tokens.
fn scan_id_narrowing(file: &Path, tokens: &[Token], violations: &mut Vec<Violation>) {
    for i in 0..tokens.len() {
        if !tokens[i].is_ident("as") {
            continue;
        }
        let Some(target) = tokens.get(i + 1) else {
            continue;
        };
        if target.kind != TokenKind::Ident || !NARROWING_TARGETS.contains(&target.text.as_str()) {
            continue;
        }
        let Some(prev) = i.checked_sub(1) else {
            continue;
        };
        let source = &tokens[prev];
        let flagged = if source.is_punct(')') {
            // `expr.as_u64() as u32` — the call being cast is as_u64.
            match_backward(tokens, prev, '(', ')')
                .and_then(|open| open.checked_sub(1))
                .and_then(|j| tokens.get(j))
                .is_some_and(|t| t.is_ident("as_u64"))
        } else if source.kind == TokenKind::Number && source.text == "0" {
            // `file.0 as usize` — raw tuple access on an id binding.
            prev.checked_sub(2)
                .map(|j| {
                    tokens[j + 1].is_punct('.')
                        && tokens[j].kind == TokenKind::Ident
                        && ID_NAMES.contains(&tokens[j].text.as_str())
                })
                .unwrap_or(false)
        } else {
            // `id as u32` — a bare id binding cast narrower.
            source.kind == TokenKind::Ident && ID_NAMES.contains(&source.text.as_str())
        };
        if flagged {
            violations.push(Violation {
                file: file.to_path_buf(),
                line: Some(target.line),
                message: format!(
                    "truncating `as {}` cast on a u64 file id — ids are 64-bit; narrow \
                     through a checked conversion (`try_from`) instead",
                    target.text
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn package_name_parses_quoted_value() {
        let toml = "[package]\nname = \"fgcache-cache\"\nversion = \"0.1.0\"\n";
        assert_eq!(package_name(toml).as_deref(), Some("fgcache-cache"));
    }

    #[test]
    fn package_name_ignores_other_sections() {
        let toml = "[dependencies]\nname = \"nope\"\n[package]\nname = \"real\"\n";
        assert_eq!(package_name(toml).as_deref(), Some("real"));
    }

    #[test]
    fn panic_scan_flags_unwrap_but_not_comments_or_tests() {
        let src = "\
fn f() {\n\
    let x = g().unwrap();\n\
    // a comment mentioning .unwrap() is fine\n\
}\n\
#[cfg(test)]\n\
mod tests {\n\
    fn t() { h().unwrap(); }\n\
}\n";
        let mut v = Vec::new();
        scan_panic_markers(Path::new("x.rs"), src, &mut v);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, Some(2));
    }

    #[test]
    fn panic_scan_flags_todo_and_unimplemented() {
        let src = "fn a() { todo!() }\nfn b() { unimplemented!(\"later\") }\n";
        let mut v = Vec::new();
        scan_panic_markers(Path::new("x.rs"), src, &mut v);
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn lint_passes_on_this_workspace() {
        let root = workspace_root();
        let members = workspace_members(&root);
        assert!(
            members.iter().any(|m| m.name == "xtask"),
            "xtask must lint itself"
        );
        let allowed: Vec<String> = members.iter().map(|m| m.name.clone()).collect();
        let mut violations = Vec::new();
        check_dependency_allowlist(&root, &members, &allowed, &mut violations);
        check_crate_attributes(&members, &mut violations);
        check_unsafe_confinement(&members, &mut violations);
        check_panic_free_sources(&members, &mut violations);
        check_lock_discipline(&members, &mut violations);
        check_socket_confinement(&members, &mut violations);
        check_control_bytes(&members, &mut violations);
        let rendered: Vec<String> = violations.iter().map(Violation::to_string).collect();
        assert!(rendered.is_empty(), "violations: {rendered:#?}");
    }

    #[test]
    fn control_byte_scan_flags_raw_bytes_but_not_escapes() {
        let src = b"let t = \"a\tb\";\r\nlet e = b\"\\x00\";\nlet n = b\"\x00\";\n";
        let mut v = Vec::new();
        scan_control_bytes(Path::new("x.rs"), src, &mut v);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, Some(3));
        assert!(v[0].message.contains("0x00"), "{}", v[0].message);
    }

    /// A stand-in for the FFI file: one declaration, one justified call.
    const FFI_FIXTURE: &str = "\
extern \"C\" {\n\
    fn poll(fds: *mut u8) -> i32;\n\
}\n\
fn wait(fds: &mut [u8]) -> i32 {\n\
    // SAFETY: the pointer is to a live, exclusively borrowed slice,\n\
    // and the callee keeps nothing.\n\
    unsafe { poll(fds.as_mut_ptr()) }\n\
}\n";

    fn unsafe_scan(src: &str, is_ffi_file: bool) -> Vec<Violation> {
        let mut v = Vec::new();
        scan_unsafe_sites(Path::new("x.rs"), src, is_ffi_file, &mut v);
        v
    }

    #[test]
    fn unsafe_scan_accepts_the_one_site_and_only_in_the_ffi_file() {
        assert!(unsafe_scan(FFI_FIXTURE, true).is_empty());
        // The same code anywhere else — another file of fgcache-net, or
        // any other crate — is two violations: the block and the `extern`.
        let elsewhere = unsafe_scan(FFI_FIXTURE, false);
        assert_eq!(elsewhere.len(), 2, "{elsewhere:?}");
        assert_eq!(elsewhere[0].line, Some(7));
        assert_eq!(elsewhere[1].line, Some(1));
    }

    #[test]
    fn unsafe_scan_flags_a_second_site_in_the_ffi_file() {
        let second = format!(
            "{FFI_FIXTURE}fn g(p: *const u8) -> u8 {{\n    // SAFETY: not good enough.\n    unsafe {{ *p }}\n}}\n"
        );
        let v = unsafe_scan(&second, true);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, Some(11));
        let second_extern =
            format!("{FFI_FIXTURE}extern \"C\" {{\n    fn close(fd: i32) -> i32;\n}}\n");
        assert_eq!(unsafe_scan(&second_extern, true).len(), 1);
    }

    #[test]
    fn unsafe_scan_wants_a_safety_comment_and_ignores_comments_strings_and_tests() {
        let bare = FFI_FIXTURE.replace("// SAFETY:", "// Trust me:");
        let v = unsafe_scan(&bare, true);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("SAFETY"));
        let benign = "\
// unsafe and extern in a comment\n\
fn f() -> &'static str { \"unsafe extern\" }\n\
#[cfg(test)]\n\
mod tests {\n\
    fn t(p: *const u8) -> u8 { unsafe { *p } }\n\
}\n";
        assert!(unsafe_scan(benign, false).is_empty());
        // An FFI file with its call gone must hand the exemption back.
        assert_eq!(unsafe_scan(benign, true).len(), 1);
    }

    #[test]
    fn only_the_ffi_crate_may_downgrade_forbid_to_deny() {
        assert_eq!(
            unsafe_code_attribute("fgcache-net"),
            "#![deny(unsafe_code)]"
        );
        for name in ["fgcache-core", "fgcache-cluster", "xtask", "fgcache"] {
            assert_eq!(unsafe_code_attribute(name), "#![forbid(unsafe_code)]");
        }
        // The exemption is load-bearing: the file exists and is scanned
        // as the FFI file, with its one block, on the real tree.
        let root = workspace_root();
        let net: Vec<Member> = workspace_members(&root)
            .into_iter()
            .filter(|m| m.name == FFI_CRATE)
            .collect();
        let text = fs::read_to_string(net[0].src_dir.join(FFI_FILE)).unwrap();
        assert!(unsafe_scan(&text, true).is_empty());
        assert_eq!(unsafe_scan(&text, false).len(), 2);
    }

    #[test]
    fn socket_scan_flags_use_but_not_comments_or_tests() {
        let src = "\
use std::net::TcpStream;\n\
// a comment mentioning std::net is fine\n\
fn f() {}\n\
#[cfg(test)]\n\
mod tests {\n\
    use std::net::TcpListener;\n\
}\n";
        let mut v = Vec::new();
        scan_socket_use(Path::new("x.rs"), src, &mut v);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, Some(1));
    }

    #[test]
    fn socket_confinement_exempts_the_net_crate() {
        let root = workspace_root();
        let members = workspace_members(&root);
        let net: Vec<&Member> = members.iter().filter(|m| m.name == "fgcache-net").collect();
        assert_eq!(net.len(), 1, "fgcache-net must be a workspace member");
        // Sanity: the net crate really does use sockets, so the exemption
        // is load-bearing rather than vacuous.
        let server = net[0].src_dir.join("server.rs");
        let text = fs::read_to_string(server).unwrap();
        assert!(text.contains(concat!("std::ne", "t")));
    }

    #[test]
    fn socket_confinement_covers_the_cluster_crate() {
        let root = workspace_root();
        let cluster: Vec<Member> = workspace_members(&root)
            .into_iter()
            .filter(|m| m.name == "fgcache-cluster")
            .collect();
        assert_eq!(
            cluster.len(),
            1,
            "fgcache-cluster must be a workspace member"
        );
        // The cluster crate reaches peers via injected Transports only —
        // its sources must scan clean, and the scan must actually run
        // (no exemption): a seeded socket use at a cluster-like path is
        // flagged by the same scanner the check applies to the crate.
        let mut v = Vec::new();
        check_socket_confinement(&cluster, &mut v);
        assert!(v.is_empty(), "cluster must not touch sockets: {v:?}");
        let seeded = "use std::net::TcpStream;\nfn dial() {}\n";
        scan_socket_use(Path::new("crates/cluster/src/node.rs"), seeded, &mut v);
        assert_eq!(v.len(), 1, "a socket use in cluster code must be flagged");
    }

    #[test]
    fn lock_scan_flags_single_line_chain() {
        let src = "fn f(m: &std::sync::Mutex<u32>) { let _ = m.lock().unwrap(); }\n";
        let mut v = Vec::new();
        scan_lock_unwrap(Path::new("x.rs"), src, &mut v);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, Some(1));
        assert!(
            v[0].to_string().contains("lock discipline") || v[0].to_string().contains("expect")
        );
    }

    #[test]
    fn lock_scan_flags_chain_split_across_lines() {
        let src = "\
fn f(m: &std::sync::Mutex<u32>) {\n\
    let _ = m\n\
        .lock()\n\
        .unwrap();\n\
}\n";
        let mut v = Vec::new();
        scan_lock_unwrap(Path::new("x.rs"), src, &mut v);
        assert_eq!(v.len(), 1, "{v:?}");
        // The violation points at the `.lock()` line.
        assert_eq!(v[0].line, Some(3));
    }

    #[test]
    fn lock_scan_allows_expect_and_skips_tests_and_comments() {
        let src = "\
fn f(m: &std::sync::Mutex<u32>) {\n\
    let _ = m.lock().expect(\"shard poisoned\");\n\
    // commentary: .lock().unwrap() is forbidden\n\
}\n\
#[cfg(test)]\n\
mod tests {\n\
    fn t(m: &std::sync::Mutex<u32>) { m.lock().unwrap(); }\n\
}\n";
        let mut v = Vec::new();
        scan_lock_unwrap(Path::new("x.rs"), src, &mut v);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn lock_scan_catches_violation_after_mid_file_test_module() {
        // Regression: the old line scan truncated at the first
        // `#[cfg(test)]` and never saw library code below it.
        let src = "\
#[cfg(test)]\n\
mod tests {\n\
    fn t(m: &std::sync::Mutex<u32>) { m.lock().unwrap(); }\n\
}\n\
fn f(m: &std::sync::Mutex<u32>) {\n\
    let _ = m.lock().unwrap();\n\
}\n";
        let mut v = Vec::new();
        scan_lock_unwrap(Path::new("x.rs"), src, &mut v);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, Some(6));
    }

    #[test]
    fn lock_scan_ignores_chain_inside_string_literal() {
        let src = "fn f() -> &'static str { \"call .lock().unwrap() they said\" }\n";
        let mut v = Vec::new();
        scan_lock_unwrap(Path::new("x.rs"), src, &mut v);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn lock_scan_survives_comment_between_calls() {
        let src = "\
fn f(m: &std::sync::Mutex<u32>) {\n\
    let _ = m\n\
        .lock()\n\
        // why would anyone write this\n\
        .unwrap();\n\
}\n";
        let mut v = Vec::new();
        scan_lock_unwrap(Path::new("x.rs"), src, &mut v);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, Some(3));
    }

    #[test]
    fn socket_scan_ignores_string_and_sees_past_test_module() {
        let src = "\
fn f() -> &'static str { \"std::net is mentioned here\" }\n\
#[cfg(test)]\n\
mod tests {}\n\
use std::net::TcpStream;\n";
        let mut v = Vec::new();
        scan_socket_use(Path::new("x.rs"), src, &mut v);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, Some(4));
    }

    /// Runs one tokenizer-based scanner over fixture source text.
    fn scan_fixture(
        src: &str,
        scan: impl Fn(&Path, &[Token], &mut Vec<Violation>),
    ) -> Vec<Violation> {
        let mut v = Vec::new();
        scan(Path::new("fixture.rs"), &code_tokens(src), &mut v);
        v
    }

    #[test]
    fn seqcst_ban_flags_code_not_comments_or_tests() {
        // Assembled at runtime so this test file never contains the
        // banned token itself.
        let banned = "Seq\u{43}st";
        let src = format!(
            "// Ordering::{banned} in a comment is fine\n\
             fn f(a: &std::sync::atomic::AtomicU64) {{\n\
                 a.store(1, Ordering::{banned});\n\
             }}\n\
             #[cfg(test)]\n\
             mod tests {{\n\
                 fn t(a: &std::sync::atomic::AtomicU64) {{ a.load(Ordering::{banned}); }}\n\
             }}\n"
        );
        let mut v = Vec::new();
        for t in code_tokens(&src) {
            if t.kind == TokenKind::Ident && t.text == banned {
                v.push(t.line);
            }
        }
        assert_eq!(v, vec![3]);
    }

    #[test]
    fn lock_loop_order_flags_reverse_iteration() {
        let src = "\
fn snapshot(&self) {\n\
    for i in (0..self.shards.len()).rev() {\n\
        let _guard = self.shard(i);\n\
    }\n\
}\n";
        let v = scan_fixture(src, scan_lock_loops);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, Some(2));
        assert!(v[0].to_string().contains("ascending"));
    }

    #[test]
    fn lock_loop_order_accepts_ascending_and_unrelated_rev() {
        let src = "\
fn ok(&self) {\n\
    for i in 0..self.shards.len() {\n\
        let _guard = self.shard(i);\n\
    }\n\
    for x in self.names.iter().rev() {\n\
        println!(\"{x}\");\n\
    }\n\
}\n";
        let v = scan_fixture(src, scan_lock_loops);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn id_narrowing_flags_each_truncating_pattern() {
        let src = "\
fn f(file: FileId, id: u64) {\n\
    let a = file.as_u64() as u32;\n\
    let b = file.0 as usize;\n\
    let c = id as u16;\n\
}\n";
        let v = scan_fixture(src, scan_id_narrowing);
        assert_eq!(v.len(), 3, "{v:?}");
        assert!(v[0].to_string().contains("try_from"));
    }

    #[test]
    fn id_narrowing_accepts_hashes_and_checked_helper() {
        let src = "\
fn f(file: FileId, id: u64) -> Option<u32> {\n\
    let pos = mix64(id) as usize;\n\
    let n = values.len() as u32;\n\
    let d = seq.wrapping_sub(pos) as i64;\n\
    u32::try_from(file.as_u64()).ok()\n\
}\n";
        let v = scan_fixture(src, scan_id_narrowing);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn analyze_passes_on_this_workspace() {
        let root = workspace_root();
        let members = workspace_members(&root);
        let mut violations = Vec::new();
        check_seqcst_ban(&members, &mut violations);
        check_lock_loop_order(&members, &mut violations);
        check_id_narrowing(&members, &mut violations);
        let rendered: Vec<String> = violations.iter().map(Violation::to_string).collect();
        assert!(rendered.is_empty(), "violations: {rendered:#?}");
    }

    #[test]
    fn soak_seed_schedule_is_deterministic_and_distinct() {
        let r1: Vec<u64> = (0..5).map(|i| splitmix64(8 + i)).collect();
        let r1_again: Vec<u64> = (0..5).map(|i| splitmix64(8 + i)).collect();
        let r2: Vec<u64> = (0..5).map(|i| splitmix64(16 + i)).collect();
        assert_eq!(r1, r1_again);
        assert_ne!(r1, r2);
    }

    #[test]
    fn parse_minutes_accepts_and_rejects() {
        let args = |s: &[&str]| s.iter().map(|a| a.to_string()).collect::<Vec<_>>();
        assert_eq!(parse_minutes(&args(&[])), Ok(None));
        assert_eq!(parse_minutes(&args(&["--minutes", "3"])), Ok(Some(3)));
        assert!(parse_minutes(&args(&["--minutes"])).is_err());
        assert!(parse_minutes(&args(&["--minutes", "soon"])).is_err());
    }

    #[test]
    fn allowlist_rejects_external_crates() {
        let tmp = std::env::temp_dir().join("xtask-allowlist-test");
        let crate_dir = tmp.join("crates").join("demo");
        fs::create_dir_all(crate_dir.join("src")).unwrap();
        fs::write(
            tmp.join("Cargo.toml"),
            "[package]\nname = \"demo-root\"\n[dependencies]\nserde = \"1\"\n",
        )
        .unwrap();
        fs::write(
            crate_dir.join("Cargo.toml"),
            "[package]\nname = \"demo\"\n[dependencies]\ndemo-root = \"0.1\"\n",
        )
        .unwrap();
        fs::write(crate_dir.join("src").join("lib.rs"), "").unwrap();
        let members = workspace_members(&tmp);
        let allowed: Vec<String> = members.iter().map(|m| m.name.clone()).collect();
        let mut violations = Vec::new();
        check_dependency_allowlist(&tmp, &members, &allowed, &mut violations);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].to_string().contains("serde"));
        fs::remove_dir_all(&tmp).ok();
    }
}
