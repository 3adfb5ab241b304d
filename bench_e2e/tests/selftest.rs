//! Self-tests of the benchmark's own machinery: the tail-percentile rule,
//! the CPU and peak-memory readers, error accounting, the layer
//! accounting, and the result line against `BENCHMARK.json`.
//!
//! Run with `cargo test --release --offline --manifest-path bench_e2e/Cargo.toml`.

use booters_e2e_bench::measure::{
    cpu_seconds, parse_stat_cpu_seconds, parse_vm_hwm_mb, peak_rss_mb, tail, DigestBook,
    Tally, TAIL_BEYOND,
};
use booters_e2e_bench::trace::{check_accounting, self_times_ms, OpTrace};
use booters_e2e_bench::workload::{measure_op, OpOutput};
use booters_obs::{Snapshot, SpanStat};
use std::process::Command;

fn output(body: &str) -> OpOutput {
    OpOutput {
        artifacts: vec![("table1.txt", body.to_string())],
        scenario: None,
        fit: None,
        suite: None,
    }
}

#[test]
fn tail_is_the_highest_percentile_with_ten_ops_beyond_it() {
    assert!(
        tail(&[1.0; TAIL_BEYOND]).is_none(),
        "ten samples leave none beyond"
    );
    let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
    let t = tail(&hundred).unwrap();
    assert_eq!(
        (t.percentile, t.value, t.beyond, t.count),
        (90, 90.0, 10, 100)
    );
    let eleven: Vec<f64> = (1..=11).rev().map(f64::from).collect();
    let t = tail(&eleven).unwrap();
    assert_eq!((t.percentile, t.value, t.beyond), (9, 1.0, 10));
    for n in TAIL_BEYOND + 1..600 {
        let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let t = tail(&xs).unwrap();
        assert!(t.beyond >= TAIL_BEYOND, "n={n}: {t:?}");
        // One percentile higher would leave fewer than ten beyond.
        let next_rank = ((t.percentile as usize + 1) * n).div_ceil(100);
        assert!(
            n - next_rank < TAIL_BEYOND,
            "n={n}: p{} is not the highest",
            t.percentile
        );
        assert_eq!(t.value, xs[n - t.beyond - 1]);
    }
}

#[test]
fn cpu_reader_parses_stat_and_advances_with_work() {
    let stat =
        "4242 (a (tricky) name) R 1 4242 4242 0 -1 4194304 100 0 0 0 250 50 0 0 20 0 3 0 1 2 3";
    assert_eq!(parse_stat_cpu_seconds(stat), Some(3.0));
    assert_eq!(parse_stat_cpu_seconds("garbage"), None);
    // Spin until the reader shows 0.2 CPU seconds; a reader stuck at its
    // first value would spin out the ten-second wall limit instead.
    let before = cpu_seconds().expect("/proc/self/stat readable");
    let t = std::time::Instant::now();
    let mut x = 0u64;
    while cpu_seconds().unwrap() - before < 0.2 {
        assert!(
            t.elapsed().as_secs() < 10,
            "CPU reader did not advance while spinning"
        );
        for _ in 0..100_000 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
    }
    assert!(
        t.elapsed().as_secs_f64() >= 0.19,
        "0.2 CPU seconds took less wall time"
    );
}

#[test]
fn rss_reader_parses_status_and_sees_a_large_allocation() {
    let status = "Name:\tbench\nVmPeak:\t  99999 kB\nVmHWM:\t   10240 kB\nVmRSS:\t    5120 kB\n";
    assert_eq!(parse_vm_hwm_mb(status), Some(10.0));
    assert_eq!(parse_vm_hwm_mb("VmRSS: 1 kB"), None);
    let before = peak_rss_mb().expect("/proc/self/status readable");
    let block = vec![1u8; 64 << 20];
    std::hint::black_box(&block);
    let after = peak_rss_mb().unwrap();
    assert!(
        after >= before.max(60.0),
        "peak {after} MiB after touching 64 MiB (was {before})"
    );
}

#[test]
fn errors_panics_and_changed_digests_count_as_failed_ops() {
    let mut tally = Tally::default();
    let mut book = DigestBook::default();
    assert!(measure_op("ok", 1, &mut tally, &mut book, || Ok(output("a"))).is_some());
    assert!(measure_op("err", 2, &mut tally, &mut book, || Err("boom".into())).is_none());
    assert!(measure_op("panic", 3, &mut tally, &mut book, || panic!("kaboom")).is_none());
    // Same seed as the first op, different bytes: a corrupted repeat.
    assert!(measure_op("corrupt", 1, &mut tally, &mut book, || Ok(output("b"))).is_none());
    assert!(measure_op("repeat", 1, &mut tally, &mut book, || Ok(output("a"))).is_some());
    assert_eq!((tally.attempted, tally.failed), (5, 3));
    assert_eq!(tally.error_rate(), 0.6);
    assert!(tally.failures[0].contains("boom"));
    assert!(tally.failures[1].contains("kaboom"));
    assert!(tally.failures[2].contains("differs from earlier repeat"));
}

fn stat(ms: u64) -> SpanStat {
    SpanStat {
        count: 1,
        total_ns: ms * 1_000_000,
    }
}

#[test]
fn self_times_account_for_the_op() {
    let mut snap = Snapshot::default();
    for (path, ms) in [
        ("op", 100),
        ("op/core.simulate", 41),
        ("op/core.simulate/simulate", 40),
        ("op/core.simulate/simulate/group", 9),
        ("op/pipeline.table2", 57),
        ("op/pipeline.table2/fit", 56),
        ("fit", 7), // a pool worker's span: outside the op's tree
    ] {
        snap.spans.insert(path.to_string(), stat(ms));
    }
    let selfs = self_times_ms(&snap.spans, "op");
    assert_eq!(selfs["op"], 2.0);
    assert_eq!(selfs["op/core.simulate/simulate"], 31.0);
    assert!(!selfs.contains_key("fit"));
    let t = OpTrace::from_snapshot(9, &snap, 0.1);
    // Root 2 ms, plus the wrappers' own 1 ms each.
    assert_eq!(t.unattributed_ms, 4.0);
    assert_eq!(t.layers["glm"], 56.0);
    assert_eq!(t.layers["netsim.group"], 9.0);
    assert_eq!(t.layers["core"], 31.0);
    assert_eq!((t.layers["pipeline"], t.layers["other"]), (1.0, 1.0));
    assert_eq!((t.fits, t.call_fits["pipeline.table2"]), (2, 1));
    assert!(check_accounting(std::slice::from_ref(&t)).is_ok());

    // Program work moved out of the `fit` span into the call's own time:
    // the root's time is unchanged, but 10% of the op is now outside the
    // crate layers.
    snap.spans.insert("op/pipeline.table2/fit".into(), stat(50));
    let bad = OpTrace::from_snapshot(9, &snap, 0.1);
    assert_eq!(bad.unattributed_ms, 10.0);
    let err = check_accounting(std::slice::from_ref(&bad)).unwrap_err();
    assert!(err.contains("10.0%"), "{err}");
    // The check reads the median op, so one bad op among good ones passes.
    assert!(check_accounting(&[t.clone(), bad.clone(), t.clone()]).is_ok());
    assert!(check_accounting(&[t, bad.clone(), bad]).is_err());

    // A child outlasting its parent breaks the accounting.
    snap.spans.insert("op/pipeline.table2/fit".into(), stat(60));
    let overlap = OpTrace::from_snapshot(9, &snap, 0.1);
    assert!(check_accounting(&[overlap]).unwrap_err().contains("overlap"));
    assert!(check_accounting(&[]).is_err());
}

/// Quoted names following `key` in a JSON text (`"key": "name"`).
fn names_after(text: &str, key: &str) -> Vec<String> {
    text.split(&format!("\"{key}\": \""))
        .skip(1)
        .map(|s| s[..s.find('"').unwrap()].to_string())
        .collect()
}

/// Metric names of a benchmark result line, in order.
fn result_metrics(line: &str) -> Vec<String> {
    line.split(": {\"value\"")
        .map(|s| s.rsplit('"').nth(1).unwrap_or_default().to_string())
        .take(line.matches(": {\"value\"").count())
        .collect()
}

#[test]
fn result_lines_report_exactly_the_declared_metrics() {
    let manifest = env!("CARGO_MANIFEST_DIR");
    let declared = std::fs::read_to_string(format!("{manifest}/../BENCHMARK.json")).unwrap();
    let (e2e, per_layer) = declared.split_at(declared.find("\"per_layer\"").unwrap());
    let e2e = &e2e[e2e.find("\"end_to_end\"").unwrap()..];
    for (trace, want) in [
        ("0", names_after(e2e, "name")),
        ("1", names_after(per_layer, "name")),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_booters-e2e-bench"))
            .args([
                "--workload",
                "paper",
                "--seed",
                "3",
                "--seconds",
                "0.1",
                "--trace",
                trace,
            ])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8(out.stdout).unwrap();
        let last = stdout.lines().last().unwrap();
        assert!(last.starts_with("{\"correct\": true, "), "{last}");
        assert_eq!(result_metrics(last), want, "trace {trace}");
    }
}

#[test]
fn malformed_arguments_exit_without_a_result() {
    for args in [&["--workload", "nope"][..], &["--seed", "x"], &[]] {
        let out = Command::new(env!("CARGO_BIN_EXE_booters-e2e-bench"))
            .args(args)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2));
        assert!(out.stdout.is_empty());
    }
}
