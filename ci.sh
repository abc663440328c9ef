#!/usr/bin/env sh
# The canonical local quality gate. Every step must pass before a push.
#
# Flags:
#   --miri   also run the nightly Miri job (visibly skipped when the
#            nightly Miri toolchain is not installed on this host).
set -eu

run_miri=0
for arg in "$@"; do
    case "$arg" in
        --miri) run_miri=1 ;;
        *) echo "ci.sh: unknown flag: $arg" >&2; exit 2 ;;
    esac
done

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Dangling and private intra-doc links fail the gate. Cargo's warning
# that the `fgcache` lib and the `fgcache-cli` bin share the doc output
# path (cargo#6313) is Cargo's, not a rustdoc lint, so it does not fail
# this step: both targets are still documented and linted, and only the
# rendered target/doc/fgcache/ page is one or the other.
echo "==> RUSTDOCFLAGS=\"-D warnings\" cargo doc --workspace --no-deps"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo run -p xtask -- lint"
cargo run -p xtask -- lint

echo "==> cargo run -p xtask -- analyze (atomics / lock-discipline gate)"
cargo run -p xtask -- analyze

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> model checker: cargo test -q -p fgcache-types --features fgcache_model"
cargo test -q -p fgcache-types --features fgcache_model

echo "==> model checker: cargo test -q -p fgcache-net --features fgcache_model --lib"
cargo test -q -p fgcache-net --features fgcache_model --lib

echo "==> loopback smoke: TCP replay vs in-process calls in a release build (byte-exact)"
cargo test -q --release --test net_differential

echo "==> cluster smoke: 3-process TCP fleet with mid-replay join/leave (byte-exact vs oracle)"
./target/release/fgcache bench-cluster --nodes 3 --events 6000 --seed 2002

echo "==> planner validation: Che prediction vs streamed LRU simulator (2pp tolerance gate)"
./target/release/fgcache plan --validate true --events 10000000 --seed 2002

echo "==> benchmark/check.sh (the standalone benchmark package: fmt, clippy, tests, smoke run of every workload)"
./benchmark/check.sh

echo "==> cargo run -p xtask -- fuzz"
cargo run -p xtask -- fuzz

if [ "$run_miri" -eq 1 ]; then
    if cargo +nightly miri --version >/dev/null 2>&1; then
        echo "==> miri: cargo +nightly miri test -q -p fgcache-types --lib"
        cargo +nightly miri test -q -p fgcache-types --lib
    else
        echo "==> miri: SKIPPED — nightly Miri is not installed on this host"
        echo "    (install with: rustup toolchain install nightly --component miri)"
    fi
fi

echo "ci.sh: all steps passed"
