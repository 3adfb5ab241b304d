#!/usr/bin/env sh
# Tier-1 verification: hermetic release build + full test suite.
#
# The workspace has zero external dependencies (see "Hermetic builds" in
# README.md), so this must succeed on a machine with no network access
# and no ~/.cargo/registry cache. --offline turns any accidental
# reintroduction of a registry dependency into an immediate, explicit
# failure instead of a hang.
set -eu

cd "$(dirname "$0")/.."

# The release build must be warning-free: a helper that lost its last
# caller shows up as a dead_code warning here, so the public-surface
# guard (tests/public_surface.rs) cannot be met by making dead code
# private. Cargo replays a fresh crate's cached warnings, so this holds
# on a built tree too.
echo "==> cargo build --release (offline, warnings fail)"
build_log=$(mktemp)
status=0
cargo build --release --workspace --offline 2>"$build_log" || status=$?
cat "$build_log" >&2
warnings=$(grep -c '^warning' "$build_log" || true)
rm -f "$build_log"
test "$status" -eq 0 || exit "$status"
if [ "$warnings" -gt 0 ]; then
    echo "verify: the release build printed compiler warnings" >&2
    exit 1
fi

echo "==> cargo test (offline)"
cargo test -q --workspace --offline

# Second pass with the parallel executor engaged: BOOTERS_THREADS=4 makes
# every booters-par fan-out (country fits, duration scans, the scenario
# suite, packet synthesis, store/query chunk decode, serve shard drains)
# run on real worker threads, so CI exercises the determinism contract on
# the parallel code path, not just the threads=1 sequential fallback.
echo "==> cargo test (offline, BOOTERS_THREADS=4)"
BOOTERS_THREADS=4 cargo test -q --workspace --offline

# Third pass with a deliberately tiny storage budget: 64 KiB holds only a
# few thousand packets, so every booters-store consumer that reads
# SpillConfig::default() (the engine-trace classification golden in
# tests/flow_backends.rs among them) is forced through the spill-to-disk
# external sort and k-way merge instead of the in-RAM fast path. Outputs
# must not change.
echo "==> cargo test (offline, BOOTERS_STORE_BUDGET=65536)"
BOOTERS_STORE_BUDGET=65536 cargo test -q --workspace --offline

# Artifact-level determinism: every file `repro all` writes (it names
# each on stderr as "wrote <path>") must be byte-for-byte identical at
# four threads and at one. On a multi-core host the default run steps
# the market on the booters-par stage thread while the caller observes;
# BOOTERS_THREADS=1 runs the interleaved loop, so the diff covers both
# sides of the pipeline.
echo "==> repro all artifact diff (default vs 4 threads vs 1 thread, offline)"
REPRO="cargo run -q --release --offline -p booters-bench --bin repro --"
ref=$(mktemp -d)
$REPRO all >/dev/null 2>"$ref/log"
sed -n 's/^wrote //p' "$ref/log" > "$ref/files"
test -s "$ref/files" || { echo "verify: repro all wrote no artifacts" >&2; exit 1; }
while read -r f; do cp "$f" "$ref/"; done < "$ref/files"
for combo in "BOOTERS_THREADS=4" "BOOTERS_THREADS=1"; do
    env $combo $REPRO all >/dev/null 2>&1
    while read -r f; do
        cmp "$ref/$(basename "$f")" "$f" || {
            echo "verify: $(basename "$f") differs under $combo" >&2
            exit 1
        }
    done < "$ref/files"
done
rm -rf "$ref"

# Golden pass: `repro all`'s Table 1/2 at the default seed and scale must
# match bench_e2e/golden/ (read only here), the goldens the end-to-end
# benchmark's `paper` warm-up checks. An output change that moves Table 1
# or 2 fails CI here, not first when the benchmark next runs.
echo "==> repro all Table 1/2 vs bench_e2e/golden (offline)"
for table in table1 table2; do
    cmp "out/$table.txt" "bench_e2e/golden/$table.txt" || {
        echo "verify: out/$table.txt differs from bench_e2e/golden/$table.txt" >&2
        exit 1
    }
done

# Fourth pass with metrics recording on: the observability contract
# (DESIGN.md §5e) says BOOTERS_OBS=1 may never change an output byte, so
# the full suite — every golden included — must pass with the registry
# recording spans and counters on all hot paths.
echo "==> cargo test (offline, BOOTERS_OBS=1)"
BOOTERS_OBS=1 cargo test -q --workspace --offline

# API docs must build warning-free (missing docs and broken intra-doc
# links are denied), and every doc example must run.
echo "==> cargo doc (offline, warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace --quiet

echo "==> cargo test --doc (offline)"
cargo test -q --doc --workspace --offline

# Smoke the run-report renderer: a small-scale instrumented run must
# produce non-empty self-contained HTML and Markdown reports.
echo "==> repro report smoke (offline, scale 0.02)"
$REPRO --scale 0.02 report >/dev/null
test -s out/report.html || { echo "verify: out/report.html missing or empty" >&2; exit 1; }
test -s out/report.md   || { echo "verify: out/report.md missing or empty" >&2; exit 1; }

# Fifth pass: the query engine at the artifact level. `repro query` runs
# canned pushdown queries (zone-map pruning, late materialization) over a
# many-chunk store and writes the report and the weekly panel.
# BOOTERS_THREADS=4 puts the per-chunk decode fan-out on real worker
# threads. The backends' equivalence with in-memory flow grouping is
# pinned on packet batches by tests/flow_backends.rs, which every
# cargo test pass above runs.
echo "==> repro query smoke (offline, BOOTERS_THREADS=4)"
BOOTERS_THREADS=4 $REPRO query >/dev/null
test -s out/query.txt || { echo "verify: out/query.txt missing or empty" >&2; exit 1; }
test -s out/query_panel.csv || { echo "verify: out/query_panel.csv missing or empty" >&2; exit 1; }

# Sixth pass: the scenario-composition contract (DESIGN.md §5j) at the
# artifact level. `repro scenarios` runs all eight built-in intervention
# scenarios (scenarios/*.scn) plus the shockless baseline end-to-end —
# simulate, observe, refit — and writes the cross-scenario comparison
# artifacts. Those must be byte-identical across thread counts (at one
# thread the market and the observer run interleaved, from two they
# overlap on the booters-par stage); the scenario_suite golden test
# pins the same contract in-process, the market_golden test pins every
# market week of the paper run and of each scenario's run, and the scn
# parser tests pin the DSL round-trip and diagnostics.
echo "==> scenario goldens (offline, scn parser + market + suite byte-identity)"
cargo test -q --offline --test scenario_suite --test market_golden
cargo test -q --offline -p booters-market --test scn
echo "==> repro scenarios artifact diff (default vs 4 threads vs 1 thread, offline, scale 0.02)"
$REPRO --scale 0.02 scenarios >/dev/null
test -s out/scenarios.txt || { echo "verify: out/scenarios.txt missing or empty" >&2; exit 1; }
cp out/scenario_summary.csv out/scenario_summary.ref.csv
cp out/scenario_coefficients.csv out/scenario_coefficients.ref.csv
for combo in "BOOTERS_THREADS=4" "BOOTERS_THREADS=1"; do
    env $combo $REPRO --scale 0.02 scenarios >/dev/null
    cmp out/scenario_summary.ref.csv out/scenario_summary.csv || {
        echo "verify: scenario summary differs under $combo" >&2
        exit 1
    }
    cmp out/scenario_coefficients.ref.csv out/scenario_coefficients.csv || {
        echo "verify: scenario coefficients differ under $combo" >&2
        exit 1
    }
done
rm -f out/scenario_summary.ref.csv out/scenario_coefficients.ref.csv

# Seventh pass: the end-to-end benchmark's own checks. bench_e2e/ is a
# separate Cargo workspace built from these crates by path; its self-tests
# cover the metric readers and the layer accounting, and run the binary's
# `paper` workload at both trace levels, whose warm-up must reproduce the
# Table 1/2 goldens in bench_e2e/golden/ — so a program change that breaks
# the benchmark fails here, not only when the benchmark is next run.
echo "==> bench_e2e self-tests (offline)"
cargo test --release --offline --manifest-path bench_e2e/Cargo.toml

echo "==> verify: OK"
