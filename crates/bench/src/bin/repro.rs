//! Regenerate the paper's artifacts, the run report, the scenario suite
//! and the store/query demos: one binary over the artifact registry
//! (`booters_core::artifacts`).
//!
//! Usage: `cargo run --release -p booters-bench --bin repro -- [--scale S] TARGET…`
//!
//! Targets:
//! * `all` — every registry artifact (Tables 1–3, Figures 1–8 and the
//!   §3/§4 side analyses) from one simulation at `REPRO_SEED`;
//! * an artifact key or file name (`table1`, `fig4`, `summary.txt`, …)
//!   — that artifact alone, with the same bytes `all` writes;
//! * `report` — an instrumented run rendered to `out/report.html` and
//!   `out/report.md` (manifest, span timings, metric totals, every
//!   registry artifact, the scenario suite, the `BENCH_*.json` records);
//! * `scenarios` — the built-in intervention-scenario suite
//!   (`scenario_summary.csv`, `scenario_coefficients.csv`,
//!   `scenarios.txt`);
//! * `store` — ingest throughput and compression of the chunk store;
//! * `query` — canned pushdown queries and the weekly panel.
//!
//! `--scale` defaults to 0.25 for the paper artifacts and the report and
//! to the suite's own 0.05 for `scenarios`. An unknown target fails
//! before anything runs; every error is printed and exits non-zero.

use booters_bench::{run_scenario, write_artifact, DEFAULT_SCALE, REPRO_SEED};
use booters_core::artifacts::{lookup, render, ArtifactSpec, RunContext, REGISTRY};
use booters_core::runreport::{
    parse_bench_lines, render_html, render_markdown, BenchRecord, ReportInput, RunManifest,
    ScenarioSection,
};
use booters_core::scenarios::{run_builtin_suite, ScenarioRunConfig};
use booters_netsim::{AttackCommand, Engine, EngineConfig, SensorPacket, UdpProtocol, VictimAddr};
use booters_query::{Predicate, QueryEngine, WEEK_SECS};
use booters_store::{ChunkWriter, PACKET_BYTES};
use std::error::Error;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

type Result<T> = std::result::Result<T, Box<dyn Error>>;

const USAGE: &str =
    "usage: repro [--scale S] <all | report | scenarios | store | query | ARTIFACT>...";

/// Environment settings that change which code paths a run takes,
/// surfaced in the report manifest.
const ENV_KNOBS: [&str; 3] = ["BOOTERS_THREADS", "BOOTERS_STORE_BUDGET", "BOOTERS_OBS"];

/// Workspace crates listed in the report manifest (one shared version).
const CRATES: [&str; 14] = [
    "booters-linalg",
    "booters-stats",
    "booters-timeseries",
    "booters-glm",
    "booters-netsim",
    "booters-market",
    "booters-core",
    "booters-par",
    "booters-store",
    "booters-obs",
    "booters-serve",
    "booters-query",
    "booters-testkit",
    "booters-bench",
];

fn main() -> ExitCode {
    match run(std::env::args().skip(1).collect()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("repro: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: Vec<String>) -> Result<()> {
    let mut scale = None;
    let mut targets = Vec::new();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        if arg == "--scale" {
            let v = args.next().ok_or("--scale needs a value")?;
            match v.parse::<f64>() {
                Ok(s) if s.is_finite() && s > 0.0 => scale = Some(s),
                _ => return Err(format!("--scale must be a positive number, not `{v}`").into()),
            }
        } else {
            targets.push(arg);
        }
    }
    if targets.is_empty() {
        return Err(USAGE.into());
    }

    // Resolve every target before any work, so a typo fails fast.
    let mut wanted: Vec<&ArtifactSpec> = Vec::new();
    for t in &targets {
        let specs: Vec<&ArtifactSpec> = match t.as_str() {
            "all" => REGISTRY.iter().collect(),
            "report" | "scenarios" | "store" | "query" => Vec::new(),
            name => vec![lookup(name)?],
        };
        for s in specs {
            if !wanted.iter().any(|w| w.file == s.file) {
                wanted.push(s);
            }
        }
    }

    if !wanted.is_empty() {
        let scale = scale.unwrap_or(DEFAULT_SCALE);
        eprintln!("simulating July 2014 - April 2019 at scale {scale} ...");
        let scenario = run_scenario(scale);
        for artifact in render(&RunContext::new(&scenario, scale), wanted)? {
            write_artifact(&artifact.name, &artifact.body)?;
        }
    }
    for t in &targets {
        match t.as_str() {
            "report" => report(scale.unwrap_or(DEFAULT_SCALE))?,
            "scenarios" => scenarios(scale)?,
            "store" => write_artifact("store.txt", &store_report()?).map(drop)?,
            "query" => query()?,
            _ => {}
        }
    }
    Ok(())
}

/// The built-in intervention-scenario suite (`scenarios/*.scn`, see
/// `SCENARIOS.md`), each refitted against its own shock windows.
fn scenarios(scale: Option<f64>) -> Result<()> {
    let mut cfg = ScenarioRunConfig::default();
    cfg.scale = scale.unwrap_or(cfg.scale);
    eprintln!("running the built-in scenarios + baseline at scale {} ...", cfg.scale);
    let suite = run_builtin_suite(&cfg)?;
    write_artifact("scenario_summary.csv", &suite.summary_csv())?;
    write_artifact("scenario_coefficients.csv", &suite.coefficients_csv())?;
    write_artifact("scenarios.txt", &suite.details_text())?;
    Ok(())
}

/// One instrumented run of every registry artifact and the scenario
/// suite, rendered with its manifest, span timings and metric totals.
/// Wall-clock fields make the report itself not byte-reproducible; the
/// embedded artifacts are.
fn report(scale: f64) -> Result<()> {
    booters_obs::set_enabled(true);
    booters_obs::reset();
    let started = Instant::now();
    eprintln!("simulating July 2014 - April 2019 at scale {scale} ...");
    let scenario = run_scenario(scale);
    let artifacts = {
        booters_obs::span!("report");
        render(&RunContext::new(&scenario, scale), REGISTRY)?
    };
    eprintln!("running the built-in intervention-scenario suite ...");
    let scenarios = {
        booters_obs::span!("scenario_suite");
        let suite = run_builtin_suite(&ScenarioRunConfig::default())?;
        ScenarioSection {
            summary_csv: suite.summary_csv(),
            coefficients_csv: suite.coefficients_csv(),
            trajectories: suite.trajectories(),
        }
    };
    let env = ENV_KNOBS
        .iter()
        .map(|k| (k.to_string(), std::env::var(k).unwrap_or_else(|_| "(default)".into())))
        .collect();
    let crates = CRATES
        .iter()
        .map(|n| (n.to_string(), env!("CARGO_PKG_VERSION").to_string()))
        .collect();
    let input = ReportInput {
        manifest: RunManifest {
            seed: REPRO_SEED,
            scale,
            env,
            crates,
            wall_ns: started.elapsed().as_nanos() as u64,
        },
        snapshot: booters_obs::snapshot(),
        artifacts,
        scenarios: Some(scenarios),
        bench: bench_trajectory(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")),
    };
    write_artifact("report.html", &render_html(&input))?;
    write_artifact("report.md", &render_markdown(&input))?;
    println!(
        "report: {} artifacts, {} bench records, {} spans, {} counters",
        input.artifacts.len(),
        input.bench.len(),
        input.snapshot.spans.len(),
        input.snapshot.counters.len()
    );
    Ok(())
}

/// Every `BENCH_*.json` record at the workspace root, in file-name order.
fn bench_trajectory(root: &Path) -> Vec<BenchRecord> {
    let mut files: Vec<String> = std::fs::read_dir(root)
        .map(|rd| {
            rd.filter_map(|e| e.ok()?.file_name().into_string().ok())
                .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
                .collect()
        })
        .unwrap_or_default();
    files.sort();
    files
        .iter()
        .filter_map(|name| Some(parse_bench_lines(name, &std::fs::read_to_string(root.join(name)).ok()?)))
        .flatten()
        .collect()
}

/// A synthetic engine trace: `n` five-minute attacks on `25.x.y.1`
/// victims, one every `spacing` seconds.
fn trace(n: u32, spacing: u64, victim_rows: u32, pps: u32) -> Vec<SensorPacket> {
    let cmds: Vec<AttackCommand> = (0..n)
        .map(|i| AttackCommand {
            time: spacing * i as u64,
            victim: VictimAddr::from_octets(25, (i % 9) as u8, (i / victim_rows) as u8, 1),
            protocol: UdpProtocol::ALL[i as usize % UdpProtocol::ALL.len()],
            duration_secs: 300,
            packets_per_second: pps,
            booter: i % 31,
            avoids_honeypots: i % 5 == 0,
        })
        .collect();
    Engine::new(EngineConfig::default()).simulate_attacks_batch(&cmds)
}

fn temp_store(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("booters-repro-{tag}-{}.bstore", std::process::id()))
}

/// Ingest throughput and compression of one engine trace through the
/// columnar chunk writer. Includes wall times, so not byte-reproducible.
fn store_report() -> Result<String> {
    let packets = trace(600, 500, 9, 50_000);
    let raw = (packets.len() * PACKET_BYTES) as f64 / 1e6;
    let path = temp_store("store");
    let start = Instant::now();
    let written = ChunkWriter::create(&path).and_then(|mut w| {
        w.push_all(&packets)?;
        w.finish()
    });
    let secs = start.elapsed().as_secs_f64();
    let _ = std::fs::remove_file(&path);
    let meta = written?;
    Ok(format!(
        "ingest: {} packets ({raw:.1} MB raw) in {secs:.3}s -> {:.1} MB/s, {:.0} packets/s\n\
         on disk: {:.1} MB across {} chunks, compression x{:.2}\n",
        meta.packets,
        raw / secs,
        meta.packets as f64 / secs,
        meta.file_bytes as f64 / 1e6,
        meta.chunks,
        meta.compression_ratio(),
    ))
}

/// Canned pushdown queries (time window, victim prefix, protocol set)
/// over a store chunked small enough to give them plenty to prune, and
/// the weekly `(week × country × protocol)` panel.
fn query() -> Result<()> {
    let path = temp_store("query");
    let result = ChunkWriter::with_capacity(&path, 1024)
        .and_then(|mut w| {
            w.push_all(&trace(400, 3 * WEEK_SECS / 400, 40, 20_000))?;
            w.finish()
        })
        .and_then(|_| canned_queries(&QueryEngine::open(&path)?));
    let _ = std::fs::remove_file(&path);
    let (report, panel) = result?;
    write_artifact("query_panel.csv", &panel)?;
    write_artifact("query.txt", &report)?;
    Ok(())
}

fn canned_queries(eng: &QueryEngine) -> std::result::Result<(String, String), booters_store::StoreError> {
    let mut report = format!(
        "canned pushdown queries over {} chunks / {} packets:\n",
        eng.chunk_count(),
        eng.total_packets()
    );
    let prefix = |b| Predicate::all().with_prefix24(VictimAddr::from_octets(25, b, 0, 0));
    let canned = [
        ("week 1 only (time window)", Predicate::all().with_time(WEEK_SECS, 2 * WEEK_SECS)),
        ("one /24 victim prefix", prefix(3)),
        ("DNS + NTP reflectors", Predicate::all().with_protocols(&[UdpProtocol::Dns, UdpProtocol::Ntp])),
        (
            "prefix x protocol x window",
            prefix(1).with_time(0, WEEK_SECS).with_protocols(&[UdpProtocol::Dns]),
        ),
        ("off the trace (all pruned)", Predicate::all().with_time(9 * WEEK_SECS, 10 * WEEK_SECS)),
    ];
    for (name, pred) in &canned {
        let (n, st) = eng.count(pred)?;
        let pruned = 100.0 * st.chunks_pruned as f64 / st.chunks_total.max(1) as f64;
        let _ = writeln!(
            report,
            "  {name}: {n} rows; pruned {}/{} chunks ({pruned:.0}%), {} covered, {} decoded",
            st.chunks_pruned, st.chunks_total, st.chunks_covered, st.chunks_decoded,
        );
    }
    let (panel, st) = eng.group_by_week(&Predicate::all())?;
    let _ = writeln!(
        report,
        "weekly panel: {} cells over {} weeks from {} rows (no row materialization)",
        panel.cells.len(),
        panel.weeks().len(),
        st.rows_scanned,
    );
    Ok((report, panel.to_csv()))
}

