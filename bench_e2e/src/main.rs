//! End-to-end benchmark: the command-line entry point.
//!
//! ```text
//! cargo run --release --offline --manifest-path bench_e2e/Cargo.toml -- \
//!     --workload <paper|scenario_suite|full_packets> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` runs the closed loop with observability off and reports the
//! end-to-end metrics; `--trace 1` is the separate traced run that reports
//! the per-layer metrics. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.

use booters_e2e_bench::measure::{peak_rss_mb, reference_kernel_s, tail, DigestBook, Tally};
use booters_e2e_bench::trace::{
    check_accounting, isolated_fit_ms, op_markets, replay_config, replay_flows, replay_market,
    OpTrace, ACCOUNTING_TOLERANCE, CRATE_LAYERS, REPLAY_SPILL_BUDGET,
};
use booters_stats::describe::median;
use booters_e2e_bench::workload::{measure_op, Sample, Workload, REPRO_SEED};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// Child processes timed from spawn to their first timed op; `setup_s`
/// is the median of their host-normalised times.
const SETUP_PROBES: usize = 15;

/// The reference kernel's time on a quiet host. `setup_s` is set-up time
/// scaled to a host on which the kernel takes this long.
const REF_NOMINAL_S: f64 = 0.004;

/// Fewest timed ops per run, so the tail rule has ten ops beyond it.
const MIN_OPS: usize = 12;

/// Repetitions of the isolated-fit probe.
const ISOLATED_FIT_REPS: usize = 25;

/// Share of `--seconds` the traced run spends in its interleaved op
/// loop; the layer replays take the rest.
const TRACED_LOOP_SHARE: f64 = 0.8;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_probe: bool,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut setup_probe = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--setup-probe" {
            setup_probe = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(parse_u64(&value).ok_or("--seed takes an integer")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or("--seconds takes a positive number")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        setup_probe,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            eprintln!(
                "usage: bench_e2e --workload <paper|scenario_suite|full_packets> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    // Load rules: every run pins the executor to the machine's cores,
    // before anything reads the variable, and measures with
    // observability off unless tracing.
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::env::set_var("BOOTERS_THREADS", threads.to_string());
    booters_obs::set_enabled(false);

    let w = args.workload;
    let seeds = w.seeds(args.seed);
    let mut tally = Tally::default();
    let mut book = DigestBook::default();
    if args.setup_probe {
        setup(w, &seeds, &mut tally, &mut book, false);
        println!("ready");
        return if tally.failed == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    println!(
        "workload {} (threads {threads}, {} s): seeds {}",
        w.name(),
        args.seconds,
        seeds
            .iter()
            .map(|s| format!("{s:#x}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let metrics = if args.trace {
        traced_run(&args, &seeds, &mut tally, &mut book)
    } else {
        end_to_end_run(&args, &seeds, &mut tally, &mut book)
    };
    let Some(metrics) = metrics else {
        for f in &tally.failures {
            eprintln!("failed: {f}");
        }
        return ExitCode::FAILURE;
    };
    for (seed, digest) in book.entries() {
        println!("digest {} seed={seed:#x} {digest:016x}", w.name());
    }
    for f in &tally.failures {
        println!("failed: {f}");
    }
    println!(
        "error_rate = {} ({} of {} ops failed)",
        tally.error_rate(),
        tally.failed,
        tally.attempted
    );
    println!("{}", result_json(&tally, &metrics));
    ExitCode::SUCCESS
}

/// A reported metric: name, value, unit.
type Metric = (&'static str, f64, &'static str);

fn result_json(tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            // JSON has no NaN or infinity; an unmeasurable value is null.
            let v = if value.is_finite() {
                format!("{value}")
            } else {
                "null".into()
            };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

fn print_metric(m: &Metric, note: &str) {
    println!("{:<28} {:>14.6} {:<6} {note}", m.0, m.1, m.2);
}

/// Table 1 and Table 2 as `repro_all` writes them at `REPRO_SEED`.
const GOLDEN_TABLES: [(&str, &str); 2] = [
    ("table1.txt", include_str!("../golden/table1.txt")),
    ("table2.txt", include_str!("../golden/table2.txt")),
];

/// The set-up every run pays before its first timed op: derive the
/// inputs and run one untimed, checked warm-up op. The `paper` warm-up
/// renders `repro_all`'s seed and must reproduce its Table 1 and Table 2
/// byte for byte; `announce` prints the comparison's outcome.
fn setup(
    w: Workload,
    seeds: &[u64],
    tally: &mut Tally,
    book: &mut DigestBook,
    announce: bool,
) -> Option<Sample> {
    let seed = w.warmup_seed(seeds);
    let sample = measure_op(
        &format!("warm-up seed {seed:#x}"),
        seed,
        tally,
        book,
        || w.run(seed),
    )?;
    if seed == REPRO_SEED {
        let differ: Vec<&str> = GOLDEN_TABLES
            .iter()
            .filter(|(name, golden)| sample.output.artifact(name) != Some(*golden))
            .map(|(name, _)| *name)
            .collect();
        if !differ.is_empty() {
            tally.fail(format!(
                "{} at seed {REPRO_SEED:#x} differ from repro_all's",
                differ.join(" and ")
            ));
        }
        if announce {
            let verdict = if differ.is_empty() {
                "match"
            } else {
                "DIFFER from"
            };
            println!("golden: Table 1 and Table 2 at seed {REPRO_SEED:#x} {verdict} repro_all's");
        }
    }
    Some(sample)
}

/// Time one set-up in a fresh process: from spawn until the child has
/// finished its set-up and would start its first timed op.
fn probe_setup(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let mut child = Command::new(exe)
        .args([
            "--workload",
            args.workload.name(),
            "--seed",
            &args.seed.to_string(),
            "--seconds",
            &args.seconds.to_string(),
            "--trace",
            "0",
            "--setup-probe",
        ])
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| e.to_string())?;
    let mut line = String::new();
    let read = BufReader::new(child.stdout.take().expect("piped stdout")).read_line(&mut line);
    let elapsed = t0.elapsed().as_secs_f64();
    let status = child.wait().map_err(|e| e.to_string())?;
    read.map_err(|e| e.to_string())?;
    if !status.success() || line.trim() != "ready" {
        return Err(format!("set-up probe failed ({status})"));
    }
    Ok(elapsed)
}

/// Wall and CPU seconds of one successful op, and of the reference kernel
/// run right after it (zero where no reference ran).
struct Timing {
    wall_s: f64,
    cpu_s: f64,
    ref_s: f64,
}

impl Timing {
    fn of(s: &Sample) -> Timing {
        Timing {
            wall_s: s.wall_s,
            cpu_s: s.cpu_s,
            ref_s: 0.0,
        }
    }
}

/// Run one set-up probe under the tally, keeping its time.
fn run_probe(args: &Args, tally: &mut Tally, setups: &mut Vec<f64>) {
    tally.attempted += 1;
    match probe_setup(args) {
        Ok(s) => setups.push(s),
        Err(e) => tally.fail(e),
    }
}

/// Run ops cycling through `seeds` until `seconds` have passed and at
/// least `min_ops` ran, timing the reference kernel after each. Between
/// ops, the [`SETUP_PROBES`] set-up probes run at even intervals over
/// the run, so they sample the host's states as the ops do. Returns the
/// op timings and the probes' set-up seconds. Each op's output is
/// dropped once checked, so the process's peak memory is one op's, not
/// the run's.
fn closed_loop(
    args: &Args,
    seeds: &[u64],
    tally: &mut Tally,
    book: &mut DigestBook,
) -> (Vec<Timing>, Vec<f64>) {
    let w = args.workload;
    let t0 = Instant::now();
    let mut timings = Vec::new();
    let mut setups = Vec::with_capacity(SETUP_PROBES);
    let mut probes = 0;
    let mut i = 0;
    while i < MIN_OPS || t0.elapsed().as_secs_f64() < args.seconds {
        let probe_due = probes as f64 * args.seconds / SETUP_PROBES as f64;
        if probes < SETUP_PROBES && t0.elapsed().as_secs_f64() >= probe_due {
            run_probe(args, tally, &mut setups);
            probes += 1;
        }
        let seed = seeds[i % seeds.len()];
        let label = format!("op {i} seed {seed:#x}");
        if let Some(s) = measure_op(&label, seed, tally, book, || w.run(seed)) {
            timings.push(Timing {
                ref_s: reference_kernel_s(),
                ..Timing::of(&s)
            });
        }
        i += 1;
    }
    for _ in probes..SETUP_PROBES {
        run_probe(args, tally, &mut setups);
    }
    (timings, setups)
}

fn end_to_end_run(
    args: &Args,
    seeds: &[u64],
    tally: &mut Tally,
    book: &mut DigestBook,
) -> Option<Vec<Metric>> {
    setup(args.workload, seeds, tally, book, true);
    let (samples, setups) = closed_loop(args, seeds, tally, book);
    if samples.is_empty() || setups.is_empty() {
        return None;
    }
    for x in &setups { println!("probe_dbg {x}"); }
    let walls: Vec<f64> = samples.iter().map(|s| s.wall_s).collect();
    let n = samples.len() as f64;
    let tail = tail(&walls)?;
    let sum = |f: fn(&Timing) -> f64| samples.iter().map(f).sum::<f64>();
    // The gated timings are in reference-kernel units: op time divided by
    // the time of the fixed reference kernel run between ops. The shared
    // host's speed drifts by up to 1.8x over minutes; the ratio cancels
    // most of that drift, which seconds alone cannot (README.md,
    // Steadiness). The times in seconds are printed beside them.
    let metrics = vec![
        ("op_ref_mean", sum(|t| t.wall_s) / sum(|t| t.ref_s), "ref"),
        ("cpu_ref_per_op", sum(|t| t.cpu_s) / sum(|t| t.ref_s), "ref"),
        ("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN), "MiB"),
        ("setup_s", median(&setups), "s"),
    ];
    let notes = [
        "mean op wall time / mean reference-kernel time".to_string(),
        "mean op user+system CPU, all threads / mean reference-kernel time".to_string(),
        "VmHWM".to_string(),
        format!(
            "median of {SETUP_PROBES} set-up processes, scaled to a {:.0} ms reference kernel",
            1e3 * REF_NOMINAL_S
        ),
    ];
    let printed: [(Metric, String); 6] = [
        (
            ("op_s_p50", median(&walls), "s"),
            format!("median of {} ops", samples.len()),
        ),
        (
            ("op_s_tail", tail.value, "s"),
            format!(
                "p{} of {} ops, {} beyond it",
                tail.percentile, tail.count, tail.beyond
            ),
        ),
        (
            ("op_s_mean", sum(|t| t.wall_s) / n, "s"),
            format!("mean of {} ops", samples.len()),
        ),
        (
            ("cpu_s_per_op", sum(|t| t.cpu_s) / n, "s"),
            "user+system CPU, all threads".to_string(),
        ),
        (
            ("ref_ms", 1e3 * sum(|t| t.ref_s) / n, "ms"),
            "mean reference-kernel time".to_string(),
        ),
        (
            ("setup_s_wall", median(&setups), "s"),
            format!("median of {SETUP_PROBES} set-up processes, unscaled"),
        ),
    ];
    for (m, note) in &printed {
        print_metric(m, &format!("{note} (printed only)"));
    }
    for (m, note) in metrics.iter().zip(&notes) {
        print_metric(m, note);
    }
    Some(metrics)
}

fn traced_run(
    args: &Args,
    seeds: &[u64],
    tally: &mut Tally,
    book: &mut DigestBook,
) -> Option<Vec<Metric>> {
    let w = args.workload;
    let s = args.seconds;
    let warm = setup(w, seeds, tally, book, true)?;

    // Three modes interleaved op by op, so host drift hits them alike:
    // untraced at the pinned thread count (the baseline for the tracing
    // overhead, the single-thread speed-up and the CPU utilisation);
    // untraced on one thread, whose digests the shared digest book holds
    // to the pinned-thread ones (the determinism contract); and traced,
    // followed at once by the op's markets stepped alone, so the market
    // time subtracted from the op's `simulate` time sees the same host.
    let mut market_weeks = 0;
    let mut untraced = Vec::new();
    let mut single = Vec::new();
    let mut traces: Vec<OpTrace> = Vec::new();
    let t0 = Instant::now();
    let mut i = 0;
    while i < 3 * seeds.len() || t0.elapsed().as_secs_f64() < TRACED_LOOP_SHARE * s {
        let seed = seeds[(i / 3) % seeds.len()];
        let label = format!("op {i} seed {seed:#x}");
        let run = || w.run(seed);
        match i % 3 {
            0 => untraced.extend(
                measure_op(&label, seed, tally, book, run)
                    .as_ref()
                    .map(Timing::of),
            ),
            1 => single.extend(
                booters_par::with_threads(1, || measure_op(&label, seed, tally, book, run))
                    .as_ref()
                    .map(Timing::of),
            ),
            _ => {
                booters_obs::set_enabled(true);
                booters_obs::reset();
                let sample = measure_op(&label, seed, tally, book, run);
                let snap = booters_obs::snapshot();
                booters_obs::set_enabled(false);
                if let Some(sample) = sample {
                    let mut t = OpTrace::from_snapshot(seed, &snap, sample.wall_s);
                    (t.market_ms, market_weeks) = replay_market(&op_markets(w, seed));
                    traces.push(t);
                }
            }
        }
        i += 1;
    }
    let wall_med = |xs: &[Timing]| median(&xs.iter().map(|x| x.wall_s).collect::<Vec<_>>());
    // Traced like the ops, so it compares with their mean fit time.
    booters_obs::set_enabled(true);
    let fit_isolated = isolated_fit_ms(&warm.output, ISOLATED_FIT_REPS);
    booters_obs::set_enabled(false);
    if traces.is_empty() || untraced.is_empty() || single.is_empty() {
        return None;
    }
    tally.attempted += 1;
    if let Err(e) = check_accounting(&traces) {
        tally.fail(format!("layer accounting: {e}"));
    }

    // Flow layers: replay the full-packet chain through every backend.
    let scratch = scratch_dir();
    tally.attempted += 1;
    let replay = std::fs::create_dir_all(&scratch)
        .map_err(|e| e.to_string())
        .and_then(|_| replay_flows(&replay_config(w, seeds[0]), &scratch));
    let _ = std::fs::remove_dir_all(&scratch);
    if let Some(parent) = scratch.parent() {
        // Removed only when no concurrent run still uses it.
        let _ = std::fs::remove_dir(parent);
    }
    let replay = match replay {
        Ok(r) => {
            if !r.mismatches.is_empty() {
                tally.fail(format!(
                    "flow backends disagree: {}",
                    r.mismatches.join("; ")
                ));
            } else if w == Workload::FullPackets {
                // The full_packets warm-up ran the replay's own seed.
                let observed = warm
                    .output
                    .scenario
                    .as_ref()
                    .map(|sc| sc.honeypot.global.values());
                if observed != Some(r.observed.as_slice()) {
                    tally.fail("flow replay's observed series differs from the op's".into());
                }
            }
            r
        }
        Err(e) => {
            tally.fail(format!("flow replay: {e}"));
            return None;
        }
    };
    tally.attempted += 1;
    let fit_isolated = match fit_isolated {
        Ok(v) => v,
        Err(e) => {
            tally.fail(format!("isolated fit: {e}"));
            f64::NAN
        }
    };

    let med = |f: &dyn Fn(&OpTrace) -> f64| median(&traces.iter().map(f).collect::<Vec<_>>());
    let layer = |name: &'static str| move |t: &OpTrace| t.layers.get(name).copied().unwrap_or(0.0);
    let count = |name: &'static str| move |t: &OpTrace| t.counter(name) as f64;
    let traced_ms = med(&|t| t.wall_ms);
    let untraced_ms = 1e3 * wall_med(&untraced);
    let cpu: f64 = untraced.iter().map(|x| x.cpu_s).sum();
    let wall: f64 = untraced.iter().map(|x| x.wall_s).sum();
    let market_step_ms = med(&|t| t.market_ms);
    let ratio = |a: f64, b: f64| if a + b > 0.0 { a / (a + b) } else { f64::NAN };
    let fits_in =
        |call: &'static str| move |t: &OpTrace| t.call_fits.get(call).copied().unwrap_or(0) as f64;

    let metrics: Vec<Metric> = vec![
        ("market.step_ms", market_step_ms, "ms"),
        ("market.weeks", market_weeks as f64, "count"),
        (
            "market.step_us_per_week",
            1e3 * market_step_ms / market_weeks as f64,
            "us",
        ),
        ("core.simulate_ms", med(&|t| t.simulate_ms), "ms"),
        ("core.observe_ms", med(&|t| t.simulate_self_ms - t.market_ms), "ms"),
        ("netsim.commands", replay.commands as f64, "count"),
        ("netsim.packets", replay.packets as f64, "count"),
        ("netsim.synth_ms", replay.synth_ms, "ms"),
        ("netsim.group_ms", replay.group_ms, "ms"),
        ("netsim.classify_ms", replay.classify_ms, "ms"),
        ("netsim.flows", replay.flows as f64, "count"),
        (
            "netsim.attack_yield",
            replay.attacks as f64 / replay.commands as f64,
            "ratio",
        ),
        ("pipeline.self_ms", med(&layer("pipeline")), "ms"),
        ("glm.fit_ms", med(&|t| t.fit_ms), "ms"),
        ("glm.fits", med(&|t| t.fits as f64), "count"),
        (
            "glm.fits.fit_global",
            med(&fits_in("pipeline.fit_global")),
            "count",
        ),
        ("glm.fits.table2", med(&fits_in("pipeline.table2")), "count"),
        ("glm.fits.detect", med(&fits_in("pipeline.detect")), "count"),
        (
            "glm.fits.ablation",
            med(&fits_in("pipeline.ablation")),
            "count",
        ),
        (
            "glm.fits.country_detail",
            med(&fits_in("pipeline.country_detail")),
            "count",
        ),
        (
            "glm.fits.run_suite",
            med(&fits_in("pipeline.run_suite")),
            "count",
        ),
        ("glm.negbin_fits", med(&count("glm.negbin_fits")), "count"),
        (
            "glm.fit_ms_mean",
            med(&|t| t.fit_ms / t.fits.max(1) as f64),
            "ms",
        ),
        ("glm.fit_ms_isolated", fit_isolated, "ms"),
        (
            "glm.irls_iterations_per_fit",
            med(&|t| {
                t.counter("glm.irls_iterations") as f64 / t.counter("glm.irls_fits").max(1) as f64
            }),
            "count",
        ),
        (
            "glm.warm_start_hit_ratio",
            med(&|t| {
                ratio(
                    t.counter("glm.warm_start_hits") as f64,
                    t.counter("glm.warm_start_retries") as f64,
                )
            }),
            "ratio",
        ),
        ("report.render_ms", med(&layer("report")), "ms"),
        ("par.cpu_util", cpu / wall, "ratio"),
        (
            "par.pool_dispatches",
            med(&count("par.pool_dispatches")),
            "count",
        ),
        (
            "par.seq_fallbacks",
            med(&count("par.seq_fallbacks")),
            "count",
        ),
        (
            "par.speedup_1t",
            wall_med(&single) / wall_med(&untraced),
            "ratio",
        ),
        ("store.group_ms", replay.store_ms, "ms"),
        ("store.spill_runs", replay.spill_runs as f64, "count"),
        ("query.group_ms", replay.query_ms, "ms"),
        (
            "query.chunks_decoded",
            replay.chunks_decoded as f64,
            "count",
        ),
        (
            "query.prune_ratio",
            replay.chunks_pruned as f64 / replay.chunks_total.max(1) as f64,
            "ratio",
        ),
        ("serve.group_ms", replay.serve_ms, "ms"),
        (
            "serve.refits",
            (replay.serve.refits_warm + replay.serve.refits_full) as f64,
            "count",
        ),
        (
            "serve.backpressure",
            replay.serve.backpressure_events as f64,
            "count",
        ),
        (
            "obs.overhead_pct",
            100.0 * (traced_ms / untraced_ms - 1.0),
            "%",
        ),
        ("trace.op_ms", traced_ms, "ms"),
        ("trace.unattributed_ms", med(&|t| t.unattributed_ms), "ms"),
    ];
    for m in &metrics {
        print_metric(m, "");
    }
    print_breakdown(w, &traces);
    println!(
        "determinism: {} single-thread ops reproduced the {}-thread digests",
        single.len(),
        std::env::var("BOOTERS_THREADS").unwrap_or_default()
    );
    println!(
        "flow replay ({}): {} weeks, {} batches agreed across in-memory, store (budget {} KiB), query and serve",
        if w == Workload::FullPackets { "the op's own chain" } else { "full-packet chain on this workload's market; not on the op's path" },
        replay.weeks,
        replay.batches - replay.mismatches.len() as u64,
        REPLAY_SPILL_BUDGET >> 10
    );
    Some(metrics)
}

/// Per-layer self-time table of the median traced op, and each public
/// call's time and fit count.
fn print_breakdown(w: Workload, traces: &[OpTrace]) {
    let med = |f: &dyn Fn(&OpTrace) -> f64| median(&traces.iter().map(f).collect::<Vec<_>>());
    let op_ms = med(&|t| t.op_ms);
    println!(
        "layer self time per traced op (median of {} ops, op span {op_ms:.3} ms):",
        traces.len()
    );
    let mut names: Vec<&'static str> = traces
        .iter()
        .flat_map(|t| t.layers.keys().copied())
        .collect();
    names.sort_unstable();
    names.dedup();
    for name in names {
        let (v, label) = match name {
            "core" => (
                med(&|t| t.layers.get("core").copied().unwrap_or(0.0) - t.market_ms),
                "core (observation)",
            ),
            n if CRATE_LAYERS.contains(&n) => (med(&|t| t.layers.get(n).copied().unwrap_or(0.0)), n),
            n => (
                med(&|t| t.layers.get(n).copied().unwrap_or(0.0)),
                match n {
                    "pipeline" => "pipeline (wrapper)",
                    "report" => "report (wrapper)",
                    _ => "other (wrapper)",
                },
            ),
        };
        println!("  {label:<22} {v:>10.3} ms {:>6.1}%", 100.0 * v / op_ms);
    }
    let market = med(&|t| t.market_ms);
    println!(
        "  {:<22} {market:>10.3} ms {:>6.1}%  (stepped alone)",
        "market",
        100.0 * market / op_ms
    );
    let un = med(&|t| t.unattributed_ms);
    println!(
        "  {:<22} {un:>10.3} ms {:>6.1}%  (root + wrappers; tolerance {:.0}%)",
        "unattributed",
        100.0 * un / op_ms,
        100.0 * ACCOUNTING_TOLERANCE
    );
    println!("public calls of a {} op (median ms, fit spans):", w.name());
    let mut calls: Vec<String> = traces
        .iter()
        .flat_map(|t| t.call_ms.keys().cloned())
        .collect();
    calls.sort();
    calls.dedup();
    for call in calls {
        let ms = med(&|t| t.call_ms.get(&call).copied().unwrap_or(0.0));
        let fits = med(&|t| t.call_fits.get(&call).copied().unwrap_or(0) as f64);
        println!("  {call:<26} {ms:>10.3} ms {fits:>5} fits");
    }
}

/// Scratch directory for the replay's spill runs and store files,
/// inside the benchmark's own directory.
fn scratch_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("scratch")
        .join(std::process::id().to_string())
}
