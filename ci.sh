#!/usr/bin/env sh
# The canonical local quality gate. Every step must pass before a push.
set -eu

if [ $# -gt 0 ]; then
    echo "ci.sh: takes no flags, got: $*" >&2
    exit 2
fi

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Dangling and private intra-doc links fail the gate. The `fgcache-cli`
# bin is not documented (`doc = false`): it shares the name `fgcache`
# with the facade lib, so target/doc/fgcache/ is the lib's page and the
# bin's intra-doc links go unchecked.
echo "==> RUSTDOCFLAGS=\"-D warnings\" cargo doc --workspace --no-deps"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo run -p xtask -- lint"
cargo run -p xtask -- lint

echo "==> cargo run -p xtask -- analyze (SeqCst ban, ascending lock loops, checked id narrowing)"
cargo run -p xtask -- analyze

echo "==> cargo build --release --workspace"
cargo build --release --workspace

# The committed reproduction record: a change to any reproduced number
# shows as a diff here, and the commit that causes it must explain it.
echo "==> reproduction record: repro all into results/, then git diff --exit-code -- results/"
./target/release/repro all > results/repro_all.txt
git diff --exit-code -- results/

echo "==> cargo test -q --workspace"
cargo test -q --workspace

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

echo "ci.sh: all steps passed"
