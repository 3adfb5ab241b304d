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

echo "==> cargo build --release (offline)"
cargo build --release --workspace --offline

echo "==> cargo test (offline)"
cargo test -q --workspace --offline

# Second pass with the parallel executor engaged: BOOTERS_THREADS=4 makes
# every booters-par fan-out (country fits, packet synthesis, flow
# grouping, window scans) run on real worker threads, so CI exercises the
# determinism contract on the parallel code path, not just the
# threads=1 sequential fallback.
echo "==> cargo test (offline, BOOTERS_THREADS=4)"
BOOTERS_THREADS=4 cargo test -q --workspace --offline

# Third pass with a deliberately tiny storage budget: 64 KiB holds only a
# few thousand packets, so every booters-store consumer that reads
# SpillConfig::default() (engine-trace classification goldens, scenario
# spill sinks) is forced through the spill-to-disk external sort and
# k-way merge instead of the in-RAM fast path. Outputs must not change.
echo "==> cargo test (offline, BOOTERS_STORE_BUDGET=65536)"
BOOTERS_STORE_BUDGET=65536 cargo test -q --workspace --offline

# Fourth pass: BOOTERS_PAR_MIN_ITEMS=1 disables the small-work sequential
# cutoff, so even tiny fan-outs (eight Table-2 countries, short window
# scans) go through the worker pool. Combined with BOOTERS_THREADS=4 this
# runs the seeded golden suite on the pool branch that the cutoff would
# normally skip — the goldens must stay byte-identical either way.
echo "==> seeded goldens (offline, BOOTERS_PAR_MIN_ITEMS=1, BOOTERS_THREADS=4)"
BOOTERS_PAR_MIN_ITEMS=1 BOOTERS_THREADS=4 \
    cargo test -q --offline --test smoke_seeded --test par_invariance

# Fifth pass with every byte-level fast kernel (SWAR varint decode,
# slice-by-8 CRC-32, radix grouping sort, coarse fan-outs) forced back to
# its scalar reference implementation. DESIGN.md §5f: kernel selection is
# an implementation detail — the goldens must stay byte-identical with
# the oracles in charge, at one thread and at four.
echo "==> seeded goldens (offline, BOOTERS_SCALAR_KERNELS=1)"
BOOTERS_SCALAR_KERNELS=1 \
    cargo test -q --offline --test smoke_seeded --test store_equivalence --test par_invariance
BOOTERS_SCALAR_KERNELS=1 BOOTERS_THREADS=4 \
    cargo test -q --offline --test smoke_seeded --test store_equivalence --test par_invariance

# Artifact-level kernel check: render Table 1 with the fast kernels, then
# again with the scalar oracles, and require the written artifacts to be
# byte-for-byte identical.
echo "==> table1 artifact diff (fast kernels vs scalar oracles)"
cargo run --release --offline -p booters-bench --bin repro_table1 >/dev/null
cp out/table1.txt out/table1.fast.txt
BOOTERS_SCALAR_KERNELS=1 \
    cargo run --release --offline -p booters-bench --bin repro_table1 >/dev/null
cmp out/table1.fast.txt out/table1.txt || {
    echo "verify: table1 artifact differs between fast kernels and scalar oracles" >&2
    exit 1
}
rm -f out/table1.fast.txt

# Sixth pass with metrics recording on: the observability contract
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
echo "==> repro_report smoke (offline, scale 0.02)"
cargo run --release --offline -p booters-core --bin repro_report -- 0.02 >/dev/null
test -s out/report.html || { echo "verify: out/report.html missing or empty" >&2; exit 1; }
test -s out/report.md   || { echo "verify: out/report.md missing or empty" >&2; exit 1; }

# Seventh pass: the streaming-equivalence contract (DESIGN.md §5g) at the
# artifact level. repro_serve runs the full-packet chain through the batch
# pipeline and the booters-serve streaming node, writes both renderings,
# and asserts them equal in-process; cmp re-checks the written bytes here
# so a broken artifact writer can't mask a divergence. BOOTERS_THREADS=4
# puts the shard fan-out on real worker threads.
echo "==> repro_serve smoke: streaming vs batch artifact diff (offline, scale 0.05, BOOTERS_THREADS=4)"
BOOTERS_THREADS=4 \
    cargo run --release --offline -p booters-bench --bin repro_serve -- 0.05 >/dev/null
cmp out/table1.batch.txt out/table1.serve.txt || {
    echo "verify: streaming Table 1 differs from the batch pipeline" >&2
    exit 1
}
cmp out/table2.batch.txt out/table2.serve.txt || {
    echo "verify: streaming Table 2 differs from the batch pipeline" >&2
    exit 1
}
test -s out/serve.txt || { echo "verify: out/serve.txt missing or empty" >&2; exit 1; }

# Eighth pass: the pushdown-equivalence contract (DESIGN.md §5h) at the
# artifact level. repro_query runs the full-packet chain through the
# batch pipeline and the booters-query scratch-store path (zone-map
# pruning, late materialization), writes both renderings, and asserts
# them equal in-process; cmp re-checks the written bytes here so a
# broken artifact writer can't mask a divergence. BOOTERS_THREADS=4 puts
# the per-chunk decode fan-out on real worker threads.
echo "==> repro_query smoke: pushdown vs batch artifact diff (offline, scale 0.05, BOOTERS_THREADS=4)"
BOOTERS_THREADS=4 \
    cargo run --release --offline -p booters-bench --bin repro_query -- 0.05 >/dev/null
cmp out/table1.qbatch.txt out/table1.query.txt || {
    echo "verify: query-backed Table 1 differs from the batch pipeline" >&2
    exit 1
}
cmp out/table2.qbatch.txt out/table2.query.txt || {
    echo "verify: query-backed Table 2 differs from the batch pipeline" >&2
    exit 1
}
test -s out/query.txt || { echo "verify: out/query.txt missing or empty" >&2; exit 1; }
test -s out/query_panel.csv || { echo "verify: out/query_panel.csv missing or empty" >&2; exit 1; }

# Ninth pass: the cache-coherence contract (DESIGN.md §5i). With an
# 8 MiB decoded-chunk cache budget, every store read may be served from
# the cache — and nothing is allowed to change. The golden suites must
# pass unchanged, and the repro_query artifacts must be byte-identical
# to the cache-off run pass eight just wrote.
echo "==> seeded goldens (offline, BOOTERS_CACHE_BYTES=8388608, BOOTERS_THREADS=4)"
BOOTERS_CACHE_BYTES=8388608 BOOTERS_THREADS=4 \
    cargo test -q --offline --test smoke_seeded --test store_equivalence \
    --test query_equivalence --test obs_golden
echo "==> repro_query smoke: cached vs uncached artifact diff (offline, scale 0.05, BOOTERS_CACHE_BYTES=8388608)"
cp out/table1.query.txt out/table1.nocache.txt
cp out/table2.query.txt out/table2.nocache.txt
BOOTERS_CACHE_BYTES=8388608 BOOTERS_THREADS=4 \
    cargo run --release --offline -p booters-bench --bin repro_query -- 0.05 >/dev/null
cmp out/table1.nocache.txt out/table1.query.txt || {
    echo "verify: query-backed Table 1 differs with the decoded-chunk cache on" >&2
    exit 1
}
cmp out/table2.nocache.txt out/table2.query.txt || {
    echo "verify: query-backed Table 2 differs with the decoded-chunk cache on" >&2
    exit 1
}
cmp out/table1.qbatch.txt out/table1.query.txt || {
    echo "verify: cached query-backed Table 1 differs from the batch pipeline" >&2
    exit 1
}
rm -f out/table1.nocache.txt out/table2.nocache.txt

# Tenth pass: the scenario-composition contract (DESIGN.md §5j) at the
# artifact level. repro_scenarios runs all eight built-in intervention
# scenarios (scenarios/*.scn) plus the shockless baseline end-to-end —
# simulate, observe, refit — and writes the cross-scenario comparison
# artifacts. Those must be byte-identical across thread counts and with
# the scalar kernel oracles in charge; the scenario_suite golden test
# pins the same contract in-process, and the scn parser tests pin the
# DSL round-trip and diagnostics.
echo "==> scenario goldens (offline, scn parser + suite byte-identity)"
cargo test -q --offline --test scenario_suite
cargo test -q --offline -p booters-market --test scn
echo "==> repro_scenarios artifact diff (threads 1/4 x fast/scalar, offline, scale 0.02)"
cargo run --release --offline -p booters-core --bin repro_scenarios -- 0.02 >/dev/null
test -s out/scenarios.txt || { echo "verify: out/scenarios.txt missing or empty" >&2; exit 1; }
cp out/scenario_summary.csv out/scenario_summary.ref.csv
cp out/scenario_coefficients.csv out/scenario_coefficients.ref.csv
for combo in "BOOTERS_THREADS=4" "BOOTERS_SCALAR_KERNELS=1" "BOOTERS_THREADS=4 BOOTERS_SCALAR_KERNELS=1"; do
    env $combo cargo run --release --offline -p booters-core --bin repro_scenarios -- 0.02 >/dev/null
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

# Eleventh pass: the end-to-end benchmark's own checks. bench_e2e/ is a
# separate Cargo workspace built from these crates by path; its self-tests
# cover the metric readers and the layer accounting, and run the binary's
# `paper` workload at both trace levels, whose warm-up must reproduce the
# Table 1/2 goldens in bench_e2e/golden/ — so a program change that breaks
# the benchmark fails here, not only when the benchmark is next run.
echo "==> bench_e2e self-tests (offline)"
cargo test --release --offline --manifest-path bench_e2e/Cargo.toml

echo "==> verify: OK"
