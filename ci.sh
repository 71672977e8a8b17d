#!/usr/bin/env bash
# Tier-1 verification: release build, byte-identical exhibits, full test
# suite, lint-clean clippy.
# Run from the repository root. Any failure fails the script.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release
# The exhibits are deterministic (seed 1997, any worker count), so the
# committed capture must be reproduced byte for byte. A row may change
# only with a bug fix, re-captured and listed in EXPERIMENTS.md
# "Known deviations". ~15 s on 2 cores.
target/release/all_exhibits | diff -u exhibits_output.txt - \
    || { echo "ci: all_exhibits differs from exhibits_output.txt" >&2; exit 1; }
# The benchmark is a package of its own outside the workspace; building
# it here makes a crates/* API change that breaks it fail CI.
cargo build --release --offline --manifest-path perfbench/Cargo.toml
# Its tests replay each workload at tiny scale; the `replicate` replay
# asserts every fused lane equals its solo run bit for bit.
cargo test --release --offline -q --manifest-path perfbench/Cargo.toml
cargo test -q
cargo clippy --all-targets -- -D warnings

# Source-level invariant gate: the per-file rules (determinism,
# no-alloc, panic-hygiene, float-totality, header-conformance), the
# semantic tier (transitive no-alloc/determinism over the call graph,
# crate-layering enforcement, StateNeeds-vs-usage verification), and
# the dataflow tier (divide budgets, loop-alloc freedom, grow-once
# workspaces, demand monomorphism), and the mirror tier (normalized
# float-op skeleton equivalence across every `mirrors(group)` kernel
# pair — a reordered float expression fails here, not at a bench-time
# bit gate; see DESIGN.md §10). Exits nonzero on any unwaived finding;
# waivers are inline and carry reasons. The tool must stay cheap enough
# to run on every build — the driver runs the tiers on threads, so the
# full four-tier pass gets a 20 s budget, tighter than the old
# sequential three-tier 30 s.
lint_start=$SECONDS
cargo run --release -q -p dses-lint -- --workspace --semantic --dataflow --mirrors
lint_elapsed=$((SECONDS - lint_start))
echo "ci: four-tier lint took ${lint_elapsed}s"
if [ "$lint_elapsed" -gt 20 ]; then
    echo "ci: lint exceeded the 20s budget" >&2
    exit 1
fi

echo "ci: all checks passed"
