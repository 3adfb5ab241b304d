//! Instruments of the traced run: the span tree of one traced op and its
//! per-layer self-time accounting, the market replay, the flow-path
//! replay through every backend, and the isolated-fit probe.

use crate::workload::{scenario_config, suite_config, OpOutput, Workload, FULL_PACKETS_PER_WEEK};
use booters_core::pipeline::{fit_global, fit_series, PipelineConfig};
use booters_core::scenario::{Fidelity, ScenarioConfig};
use booters_market::calibration::Calibration;
use booters_market::commands::commands_for_week;
use booters_market::market::{sample_binomial, MarketConfig, MarketSim};
use booters_market::scn::builtin_scenarios;
use booters_market::shocks::ScenarioSpec;
use booters_netsim::{group_flows_par, Country, Engine, FlowClass, UdpProtocol, VictimKey};
use booters_obs::{Snapshot, SpanStat};
use booters_query::{Predicate, QueryEngine};
use booters_serve::{ServeConfig, ServeNode, ServeStats};
use booters_stats::describe::median;
use booters_store::{ChunkWriter, SpillConfig, SpillGrouper};
use booters_testkit::rngs::StdRng;
use booters_testkit::SeedableRng;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Root span of every op (opened by [`crate::workload::measure_op`]).
pub const OP_SPAN: &str = "op";

/// Largest share of the median traced op's root span that the crate
/// layers' self times may leave unattributed.
pub const ACCOUNTING_TOLERANCE: f64 = 0.05;

/// The layers that are crates: the self time of the program's own spans.
/// The benchmark's wrapper spans (`pipeline`, `report`, `other`) are not
/// among them, so program work outside the program's spans is
/// unattributed.
pub const CRATE_LAYERS: [&str; 4] = ["core", "netsim.synth", "netsim.group", "glm"];

/// The layer a span's self time belongs to, from the span's own name
/// (the last component of its path). Program spans name the crate's work
/// and give a crate layer; benchmark spans name the public call they wrap
/// and give a wrapper bucket.
pub fn layer_of(path: &str) -> &'static str {
    let leaf = path.rsplit('/').next().unwrap_or(path);
    match leaf {
        "simulate" => "core",
        "synthesize_batch" => "netsim.synth",
        "group" => "netsim.group",
        "fit" => "glm",
        "report.render" => "report",
        l if l.starts_with("pipeline.") => "pipeline",
        _ => "other",
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Self time in ms of every span path in the subtree of `root`: its
/// total minus the totals of its direct children. Spans opened on pool
/// worker threads start their own trees and are not in the subtree; the
/// waiting caller's span covers their wall time.
pub fn self_times_ms(spans: &BTreeMap<String, SpanStat>, root: &str) -> BTreeMap<String, f64> {
    let prefix = format!("{root}/");
    let in_tree = |p: &str| p == root || p.starts_with(&prefix);
    let mut out: BTreeMap<String, f64> = spans
        .iter()
        .filter(|(p, _)| in_tree(p))
        .map(|(p, s)| (p.clone(), ms(s.total_ns)))
        .collect();
    for (path, stat) in spans.iter().filter(|(p, _)| in_tree(p)) {
        if let Some((parent, _)) = path.rsplit_once('/') {
            if let Some(v) = out.get_mut(parent) {
                *v -= ms(stat.total_ns);
            }
        }
    }
    out
}

/// One traced op, broken down by layer.
#[derive(Debug, Clone, Default)]
pub struct OpTrace {
    /// The op's seed.
    pub seed: u64,
    /// Wall time of the op as the benchmark timed it.
    pub wall_ms: f64,
    /// Time of the op's root span, which the layers must account for.
    pub op_ms: f64,
    /// Self time per layer and wrapper bucket (`core` still includes the
    /// market step).
    pub layers: BTreeMap<&'static str, f64>,
    /// The op time no crate layer covers: the root span's own time plus
    /// the wrapper buckets' self times.
    pub unattributed_ms: f64,
    /// The most negative self time of any span (a child outlasting its
    /// parent means spans overlap, and the accounting cannot hold).
    pub min_self_ms: f64,
    /// Total time of each public call the op made (top-level spans).
    pub call_ms: BTreeMap<String, f64>,
    /// `fit` spans inside each public call.
    pub call_fits: BTreeMap<String, u64>,
    /// `fit` spans anywhere, pool workers included.
    pub fits: u64,
    /// Total time inside `fit` spans.
    pub fit_ms: f64,
    /// Total time inside `simulate` spans.
    pub simulate_ms: f64,
    /// Self time of `simulate` spans (observation plus market step).
    pub simulate_self_ms: f64,
    /// The op's markets stepped alone, right after the op.
    pub market_ms: f64,
    /// Every counter the op raised.
    pub counters: BTreeMap<String, u64>,
}

impl OpTrace {
    /// Break down one op from the snapshot taken right after it (the
    /// registry is reset before each traced op).
    pub fn from_snapshot(seed: u64, snap: &Snapshot, wall_s: f64) -> OpTrace {
        let selfs = self_times_ms(&snap.spans, OP_SPAN);
        let mut t = OpTrace {
            seed,
            wall_ms: wall_s * 1e3,
            op_ms: snap.spans.get(OP_SPAN).map_or(0.0, |s| ms(s.total_ns)),
            unattributed_ms: selfs.get(OP_SPAN).copied().unwrap_or(0.0),
            counters: snap.counters.clone(),
            ..OpTrace::default()
        };
        for (path, &self_ms) in &selfs {
            t.min_self_ms = t.min_self_ms.min(self_ms);
            if path != OP_SPAN {
                let layer = layer_of(path);
                *t.layers.entry(layer).or_insert(0.0) += self_ms;
                if !CRATE_LAYERS.contains(&layer) {
                    t.unattributed_ms += self_ms;
                }
            }
            if path.ends_with("/simulate") {
                t.simulate_self_ms += self_ms;
            }
        }
        for (path, stat) in &snap.spans {
            let leaf = path.rsplit('/').next().unwrap_or(path);
            if leaf == "fit" {
                t.fits += stat.count;
            }
            let Some(rest) = path.strip_prefix("op/") else {
                continue;
            };
            let call = rest.split('/').next().unwrap_or(rest).to_string();
            if rest == call {
                t.call_ms.insert(call.clone(), ms(stat.total_ns));
            }
            match leaf {
                "fit" => {
                    *t.call_fits.entry(call).or_insert(0) += stat.count;
                    t.fit_ms += ms(stat.total_ns);
                }
                "simulate" => t.simulate_ms += ms(stat.total_ns),
                _ => {}
            }
        }
        t
    }

    /// A counter's value, 0 when the op never raised it.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// The layer-accounting check over the traced ops: no span's children
/// outlast it, and in the median op the crate layers' self times cover
/// the root span within [`ACCOUNTING_TOLERANCE`]. The median keeps one
/// op stalled inside a wrapper from failing the run.
pub fn check_accounting(traces: &[OpTrace]) -> Result<(), String> {
    if traces.is_empty() || traces.iter().any(|t| t.op_ms <= 0.0) {
        return Err("an op recorded no root span".into());
    }
    if let Some(t) = traces.iter().find(|t| t.min_self_ms < -0.01 * t.op_ms) {
        return Err(format!(
            "a span's children outlast it by {:.3} ms: spans overlap",
            -t.min_self_ms
        ));
    }
    let share = median(
        &traces
            .iter()
            .map(|t| t.unattributed_ms / t.op_ms)
            .collect::<Vec<_>>(),
    );
    if share > ACCOUNTING_TOLERANCE {
        return Err(format!(
            "{:.1}% of the median op is outside the crate layers (tolerance {:.0}%)",
            100.0 * share,
            100.0 * ACCOUNTING_TOLERANCE
        ));
    }
    Ok(())
}

/// The market configurations one op steps: one for `paper` and
/// `full_packets`; the baseline plus each built-in scenario for the suite
/// (as `booters_core::scenarios::run_scenario` builds them).
pub fn op_markets(w: Workload, seed: u64) -> Vec<MarketConfig> {
    match w {
        Workload::Paper => vec![scenario_config(seed, Fidelity::Aggregate).market],
        Workload::FullPackets => vec![
            scenario_config(
                seed,
                Fidelity::FullPackets {
                    per_week: FULL_PACKETS_PER_WEEK,
                },
            )
            .market,
        ],
        Workload::ScenarioSuite => {
            let cfg = suite_config(seed);
            std::iter::once(ScenarioSpec::baseline())
                .chain(builtin_scenarios())
                .map(|spec| MarketConfig {
                    scale: cfg.scale,
                    seed: cfg.seed,
                    scenario: Some(spec),
                    ..MarketConfig::default()
                })
                .collect()
        }
    }
}

/// Step every market of an op to its end: `(wall ms, weeks stepped)`.
pub fn replay_market(configs: &[MarketConfig]) -> (f64, u64) {
    let t0 = Instant::now();
    let mut weeks = 0u64;
    for cfg in configs {
        let mut sim = MarketSim::new(cfg.clone());
        while std::hint::black_box(sim.step()).is_some() {
            weeks += 1;
        }
    }
    (t0.elapsed().as_secs_f64() * 1e3, weeks)
}

/// Spill budget of the replay's out-of-core grouper: small enough that
/// every week spills.
pub const REPLAY_SPILL_BUDGET: usize = 64 << 10;

/// What the flow-path replay did, summed over weeks.
#[derive(Debug, Clone, Default)]
pub struct FlowReplay {
    /// Weeks stepped.
    pub weeks: u64,
    /// Weeks with at least one command: the packet batches replayed.
    pub batches: u64,
    /// Attack commands expanded.
    pub commands: u64,
    /// Sensor packets synthesised.
    pub packets: u64,
    /// Flows grouped in memory.
    pub flows: u64,
    /// Flows classified as attacks in memory.
    pub attacks: u64,
    /// `Engine::simulate_attacks_batch` time.
    pub synth_ms: f64,
    /// `group_flows_par` time.
    pub group_ms: f64,
    /// Attack/scan classification time.
    pub classify_ms: f64,
    /// `SpillGrouper` push + finish time.
    pub store_ms: f64,
    /// `ChunkWriter` write + `QueryEngine::weekly_attacks` time.
    pub query_ms: f64,
    /// `ServeNode` intake + epoch close time.
    pub serve_ms: f64,
    /// Spill runs the out-of-core grouper wrote.
    pub spill_runs: u64,
    /// Chunks the query planner considered.
    pub chunks_total: u64,
    /// Chunks pruned by zone maps.
    pub chunks_pruned: u64,
    /// Chunks read and decoded.
    pub chunks_decoded: u64,
    /// The serve node's counters at the end.
    pub serve: ServeStats,
    /// Batches on which the four backends' attack counts differ.
    pub mismatches: Vec<String>,
    /// The observed global weekly series the replay produced.
    pub observed: Vec<f64>,
}

/// The `full_packets` chain replayed from outside, week by week:
/// `commands_for_week` → `Engine::simulate_attacks_batch` →
/// `group_flows_par` + classify, with each identical packet batch also
/// fed to a `SpillGrouper` (small budget), a `ChunkWriter` →
/// `QueryEngine::weekly_attacks` scratch store, and a long-running
/// `ServeNode` closed once per week. The observation RNG is advanced
/// exactly as `Scenario::try_run` advances it, so the replay's observed
/// series equals the scenario's at the same configuration. Scratch files
/// go under `scratch` and are removed.
pub fn replay_flows(config: &ScenarioConfig, scratch: &Path) -> Result<FlowReplay, String> {
    let Fidelity::FullPackets { per_week } = config.fidelity else {
        return Err("flow replay needs a full-packet configuration".into());
    };
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let mut sim = MarketSim::new(config.market.clone());
    let mut engine = Engine::new(config.engine);
    let mut rng = StdRng::seed_from_u64(config.observe_seed);
    let mut node = ServeNode::new(ServeConfig {
        epoch_start: config.market.calibration.scenario_start,
        ..ServeConfig::default()
    });
    let mut r = FlowReplay::default();
    while let Some(out) = sim.step() {
        r.weeks += 1;
        let week_end = (out.week as u64 + 1) * 7 * 86_400;
        let cmds = commands_for_week(&out, sim.population().booters(), &mut rng, per_week);
        let mut attacks = 0usize;
        if !cmds.is_empty() {
            r.batches += 1;
            r.commands += cmds.len() as u64;
            let t = Instant::now();
            let packets = engine.simulate_attacks_batch(&cmds);
            r.synth_ms += t.elapsed().as_secs_f64() * 1e3;
            r.packets += packets.len() as u64;

            let t = Instant::now();
            let flows = group_flows_par(&packets, VictimKey::ByIp);
            r.group_ms += t.elapsed().as_secs_f64() * 1e3;
            let t = Instant::now();
            attacks = flows
                .iter()
                .filter(|f| f.classify() == FlowClass::Attack)
                .count();
            r.classify_ms += t.elapsed().as_secs_f64() * 1e3;
            r.flows += flows.len() as u64;
            r.attacks += attacks as u64;

            let t = Instant::now();
            let mut spill = SpillGrouper::new(SpillConfig {
                budget_bytes: REPLAY_SPILL_BUDGET,
                key: VictimKey::ByIp,
                dir: Some(scratch.to_path_buf()),
                ..SpillConfig::default()
            });
            spill.push_all(&packets).map_err(|e| err(&e))?;
            let grouped = spill.finish().map_err(|e| err(&e))?;
            let store_attacks = grouped
                .flows
                .iter()
                .filter(|f| f.classify() == FlowClass::Attack)
                .count();
            r.store_ms += t.elapsed().as_secs_f64() * 1e3;
            r.spill_runs += grouped.stats.spill_runs as u64;

            let t = Instant::now();
            let path = scratch.join(format!("week_{}.bstore", out.week));
            let queried = (|| {
                let mut w = ChunkWriter::create(&path)?;
                w.push_all(&packets)?;
                w.finish()?;
                QueryEngine::open(&path)?.weekly_attacks(&Predicate::all(), VictimKey::ByIp)
            })();
            let _ = std::fs::remove_file(&path);
            let (weeks, qstats) = queried.map_err(|e| err(&e))?;
            let query_attacks: u64 = weeks.values().sum();
            r.query_ms += t.elapsed().as_secs_f64() * 1e3;
            r.chunks_total += qstats.chunks_total;
            r.chunks_pruned += qstats.chunks_pruned;
            r.chunks_decoded += qstats.chunks_decoded;

            let t = Instant::now();
            for p in &packets {
                node.ingest(p).map_err(|e| err(&e))?;
            }
            let served = node.close_epoch_at(week_end).map_err(|e| err(&e))?;
            let serve_attacks = served
                .iter()
                .filter(|f| f.classify() == FlowClass::Attack)
                .count();
            r.serve_ms += t.elapsed().as_secs_f64() * 1e3;

            if store_attacks != attacks
                || query_attacks != attacks as u64
                || serve_attacks != attacks
            {
                r.mismatches.push(format!(
                    "week {}: attacks in-memory {attacks}, store {store_attacks}, query {query_attacks}, serve {serve_attacks}",
                    out.week
                ));
            }
        } else {
            node.close_epoch_at(week_end).map_err(|e| err(&e))?;
        }
        let rate = if cmds.is_empty() {
            1.0
        } else {
            (attacks as f64 / cmds.len() as f64).min(1.0)
        };
        // Thin every cell in `Scenario::try_run`'s order so the RNG stays
        // in step with the scenario's.
        let mut observed = 0u64;
        for country in Country::ALL {
            for pi in 0..UdpProtocol::ALL.len() {
                observed +=
                    sample_binomial(&mut rng, out.country_protocol[country.index()][pi], rate);
            }
        }
        r.observed.push(observed as f64);
        engine.maintain(out.week as u64 * 7 * 86_400);
    }
    r.serve = node.stats();
    Ok(r)
}

/// The configuration the flow replay runs for a workload's seed: the
/// `full_packets` op's own for `paper` and `full_packets` (same market);
/// the suite's baseline market at full-packet fidelity for the suite.
pub fn replay_config(w: Workload, seed: u64) -> ScenarioConfig {
    let fidelity = Fidelity::FullPackets {
        per_week: FULL_PACKETS_PER_WEEK,
    };
    match w {
        Workload::Paper | Workload::FullPackets => scenario_config(seed, fidelity),
        Workload::ScenarioSuite => ScenarioConfig {
            market: op_markets(w, seed).swap_remove(0),
            fidelity,
            ..ScenarioConfig::default()
        },
    }
}

/// Median wall ms of the op's global fit repeated `reps` times on its
/// own: `fit_global` on the op's dataset, or for the suite the first
/// scenario's global fit (`fit_series` on its series and shock windows).
pub fn isolated_fit_ms(out: &OpOutput, reps: usize) -> Result<f64, String> {
    let cal = Calibration::default();
    let cfg = PipelineConfig::default();
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        if let Some(s) = &out.scenario {
            std::hint::black_box(fit_global(&s.honeypot, &cal, &cfg).map_err(|e| e.to_string())?);
        } else {
            let o = out
                .suite
                .as_ref()
                .and_then(|s| s.outcomes.first())
                .ok_or("op output has no global fit")?;
            std::hint::black_box(
                fit_series(&o.weekly, &o.windows, &cfg).map_err(|e| e.to_string())?,
            );
        }
        times.push(t.elapsed().as_secs_f64() * 1e3);
    }
    Ok(median(&times))
}
