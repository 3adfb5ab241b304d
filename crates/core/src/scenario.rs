//! End-to-end scenario: market → honeypot observation → datasets.
//!
//! The market simulator produces ground-truth weekly attack volumes; the
//! honeypot layer observes them with booter-dependent coverage (honest
//! booters ≈ full coverage, honeypot-avoiding booters only when their scan
//! filter leaks). Three fidelities trade packet-level realism against
//! runtime:
//!
//! * [`Fidelity::Aggregate`] — one coverage probe per (booter, week)
//!   through the real [`booters_netsim::Engine`]; per-cell counts are then
//!   binomially thinned at the measured weekly rate. Fast enough for the
//!   full five-year, paper-scale run.
//! * [`Fidelity::PacketSampled`] — expands a bounded sample of actual
//!   [`booters_netsim::AttackCommand`]s per week and asks the engine per
//!   command; the observed fraction scales the cells.
//! * [`Fidelity::FullPackets`] — the whole measurement chain: spoofed
//!   packets, sensor logs, 15-minute flow grouping, attack/scan
//!   classification. Use on short windows.

use crate::datasets::{CounterHistory, HoneypotDataset, SelfReportDataset};
use booters_market::commands::commands_for_week;
use booters_market::market::{sample_binomial, MarketConfig, MarketSim, WeekOutput};
use booters_market::Booter;
use booters_netsim::flow::{FlowClass, VictimKey};
use booters_netsim::{
    group_flows_par, AttackCommand, Country, Engine, EngineConfig, UdpProtocol, VictimAddr,
};
use booters_query::{Predicate, QueryConfig, QueryEngine, QueryStats};
use booters_serve::{ServeConfig, ServeError, ServeNode, ServeStats};
use booters_store::{ChunkWriter, SpillConfig, SpillGrouper, SpillStats, StoreError};
use booters_timeseries::Date;
use booters_testkit::rngs::StdRng;
use booters_testkit::SeedableRng;
use std::collections::BTreeMap;

/// A scenario run failure: either backing subsystem can refuse.
#[derive(Debug)]
pub enum ScenarioError {
    /// The on-disk spill store failed (I/O, corruption).
    Store(StoreError),
    /// The streaming ingest service failed (late packet, shard panic).
    Serve(ServeError),
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::Store(e) => write!(f, "scenario store backend: {e}"),
            ScenarioError::Serve(e) => write!(f, "scenario streaming backend: {e}"),
        }
    }
}

impl std::error::Error for ScenarioError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScenarioError::Store(e) => Some(e),
            ScenarioError::Serve(e) => Some(e),
        }
    }
}

impl From<StoreError> for ScenarioError {
    fn from(e: StoreError) -> Self {
        ScenarioError::Store(e)
    }
}

impl From<ServeError> for ScenarioError {
    fn from(e: ServeError) -> Self {
        ScenarioError::Serve(e)
    }
}

/// Observation fidelity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fidelity {
    /// Booter-week coverage probes + binomial thinning (default).
    Aggregate,
    /// Per-command observation decisions on a sample of commands per week.
    PacketSampled {
        /// Commands expanded per week.
        per_week: usize,
    },
    /// Full packet generation and flow classification.
    FullPackets {
        /// Commands expanded per week (packet-level cost per command).
        per_week: usize,
    },
}

/// Scenario configuration.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Market configuration (calibration, scale, seed).
    pub market: MarketConfig,
    /// Honeypot engine configuration.
    pub engine: EngineConfig,
    /// Observation fidelity.
    pub fidelity: Fidelity,
    /// Seed for the observation layer's RNG.
    pub observe_seed: u64,
    /// First week of the self-report scrape (the collection began
    /// November 2017).
    pub selfreport_start: Date,
    /// When set, [`Fidelity::FullPackets`] weeks stream their packet
    /// batches through the out-of-core spill grouper (booters-store)
    /// instead of grouping in RAM. The resulting datasets are
    /// byte-identical to the in-memory path at every budget and thread
    /// count — only the memory ceiling changes. Ignored by the other
    /// fidelities (they never materialise packets).
    pub store: Option<SpillConfig>,
    /// When set (and `store` is not), [`Fidelity::FullPackets`] weeks
    /// stream their packet batches through one long-running
    /// [`booters_serve::ServeNode`]: sharded intake, watermark-driven
    /// incremental grouping, an epoch close per week, and rolling
    /// warm-started NB2 refits as each week's watermark lands. The
    /// resulting datasets are byte-identical to the in-memory path at
    /// every shard/queue/thread/kernel setting (golden-tested in
    /// `tests/serve_equivalence.rs`). Ignored by the other fidelities.
    pub serve: Option<ServeConfig>,
    /// When set (and neither `store` nor `serve` is), each
    /// [`Fidelity::FullPackets`] week writes its packet batch to a
    /// scratch columnar store file and recovers the week's attack flows
    /// through the [`booters_query`] predicate-pushdown engine (zone-map
    /// planning, late materialization) instead of grouping the in-RAM
    /// batch directly. The resulting datasets are byte-identical to the
    /// in-memory path at every thread/kernel setting (golden-tested in
    /// `tests/query_equivalence.rs`). Ignored by the other fidelities.
    pub query: Option<QueryConfig>,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            market: MarketConfig::default(),
            engine: EngineConfig::default(),
            fidelity: Fidelity::Aggregate,
            observe_seed: 0x0B5E,
            selfreport_start: Date::new(2017, 11, 6),
            store: None,
            serve: None,
            query: None,
        }
    }
}

/// A fully simulated and observed scenario.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The honeypot-observed dataset (what the paper analyses in §4).
    pub honeypot: HoneypotDataset,
    /// Ground truth commanded volumes (for coverage/validation work —
    /// the paper never sees this).
    pub ground_truth: HoneypotDataset,
    /// The booter self-report dataset (§4.3).
    pub selfreport: SelfReportDataset,
    /// Raw weekly market outputs.
    pub weeks: Vec<WeekOutput>,
    /// Spill/merge counters accumulated across all store-backed weeks;
    /// `None` when the in-memory path ran (no `store` configured or the
    /// fidelity never materialises packets).
    pub store_stats: Option<SpillStats>,
    /// Streaming-ingest counters from the long-running serve node;
    /// `None` unless the streaming backend ran (`serve` configured with
    /// [`Fidelity::FullPackets`]).
    pub serve_stats: Option<ServeStats>,
    /// Planner/scan accounting accumulated across all query-backed
    /// weeks (chunks pruned vs decoded, rows scanned vs returned);
    /// `None` unless the query backend ran (`query` configured with
    /// [`Fidelity::FullPackets`]).
    pub query_stats: Option<QueryStats>,
}

impl Scenario {
    /// Run a scenario to completion.
    ///
    /// # Panics
    /// If a configured on-disk store fails (spill-file I/O) or a
    /// configured streaming backend fails; use [`Scenario::try_run`] to
    /// handle [`ScenarioError`] instead. Without a `store` or `serve`
    /// backend configured this never panics.
    pub fn run(config: ScenarioConfig) -> Scenario {
        Scenario::try_run(config).expect("scenario backend failed")
    }

    /// Run a scenario to completion, surfacing store and streaming
    /// backend errors.
    pub fn try_run(config: ScenarioConfig) -> Result<Scenario, ScenarioError> {
        booters_obs::span!("simulate");
        let cal_start = config.market.calibration.scenario_start;
        let cal_end = config.market.calibration.scenario_end;
        let mut sim = MarketSim::new(config.market.clone());
        let mut observer = Observer::new(&config);

        let mut ground_truth = HoneypotDataset::new(cal_start, cal_end);
        let sr_start = config.selfreport_start.week_start();
        let mut counters: BTreeMap<u32, CounterHistory> = BTreeMap::new();
        let n_weeks_total = sim.n_weeks();
        let sr_weeks = ((cal_end.week_start().days_since(sr_start)) / 7).max(0) as usize;
        let mut deaths = booters_timeseries::WeeklySeries::zeros(sr_start, sr_weeks);
        let mut resurrections = booters_timeseries::WeeklySeries::zeros(sr_start, sr_weeks);
        let mut births = booters_timeseries::WeeklySeries::zeros(sr_start, sr_weeks);

        let mut weeks = Vec::with_capacity(n_weeks_total);
        while let Some(out) = sim.step() {
            observer.observe_week(&out, sim.population().booters())?;
            record_ground_truth(&mut ground_truth, &out);

            // --- self-report scrape -------------------------------------
            let monday = out.monday;
            if monday >= sr_start {
                let sr_week = (monday.days_since(sr_start) / 7) as usize;
                for (id, c) in &out.displayed_counters {
                    counters.entry(*id).or_default().insert(sr_week, *c);
                }
                if sr_week < sr_weeks {
                    deaths.set(sr_week, out.lifecycle.deaths as f64);
                    resurrections.set(sr_week, out.lifecycle.resurrections as f64);
                    births.set(sr_week, out.lifecycle.births as f64);
                }
            }

            weeks.push(out);
            booters_obs::counter_add("core.weeks_simulated", 1);
        }

        Ok(Scenario {
            honeypot: observer.honeypot,
            ground_truth,
            selfreport: SelfReportDataset {
                start: sr_start,
                counters,
                deaths,
                resurrections,
                births,
            },
            weeks,
            store_stats: observer.store_stats,
            serve_stats: observer.serve_node.map(|n| n.stats()),
            query_stats: observer.query_stats,
        })
    }
}

/// Run `config`'s market through the honeypot and return only what the
/// honeypot observed — no ground truth, no self-report scrape, no raw
/// weeks. Each market week is dropped as soon as it is observed, so the
/// heap holds one [`HoneypotDataset`] rather than a whole [`Scenario`].
///
/// The observation is [`Scenario::try_run`]'s own (both drive the same
/// observer), so the result equals `Scenario::try_run(config)?.honeypot`
/// bit for bit at every fidelity, thread count and kernel selection.
///
/// Opens no `simulate` span of its own: the scenario suite observes
/// several markets at once and times that whole phase as one span.
pub fn observe_honeypot(config: ScenarioConfig) -> Result<HoneypotDataset, ScenarioError> {
    let mut sim = MarketSim::new(config.market.clone());
    let mut observer = Observer::new(&config);
    while let Some(out) = sim.step() {
        observer.observe_week(&out, sim.population().booters())?;
        booters_obs::counter_add("core.weeks_simulated", 1);
    }
    Ok(observer.honeypot)
}

/// The observation half of a scenario run: the honeypot engine, the
/// observation RNG, the full-packet backend state and the observed
/// dataset. Both drivers ([`Scenario::try_run`] and
/// [`observe_honeypot`]) feed it the same market weeks, so they share
/// the coverage measurement, the binomial thinning and the
/// observation-RNG draw order by construction.
struct Observer<'c> {
    config: &'c ScenarioConfig,
    engine: Engine,
    rng: StdRng,
    honeypot: HoneypotDataset,
    /// One long-running streaming node for the whole scenario: flows and
    /// weekly refits accumulate across weeks, exactly as a live
    /// deployment would see them. The store backend wins if both are
    /// configured (they are alternative full-packet sinks).
    serve_node: Option<ServeNode>,
    store_stats: Option<SpillStats>,
    query_stats: Option<QueryStats>,
}

impl<'c> Observer<'c> {
    fn new(config: &'c ScenarioConfig) -> Observer<'c> {
        let cal = &config.market.calibration;
        Observer {
            config,
            engine: Engine::new(config.engine),
            rng: StdRng::seed_from_u64(config.observe_seed),
            honeypot: HoneypotDataset::new(cal.scenario_start, cal.scenario_end),
            serve_node: match (&config.store, &config.serve) {
                (None, Some(sc)) => Some(ServeNode::new(ServeConfig {
                    // Stream time 0 is the scenario start; anchor the
                    // rolling weekly model there.
                    epoch_start: cal.scenario_start,
                    ..sc.clone()
                })),
                _ => None,
            },
            store_stats: None,
            query_stats: None,
        }
    }

    /// Observe one market week: measure the week's coverage rate at the
    /// configured fidelity, thin every country×protocol cell at that
    /// rate into the honeypot dataset, then age the engine's state.
    fn observe_week(&mut self, out: &WeekOutput, booters: &[Booter]) -> Result<(), ScenarioError> {
        let rate = self.coverage_rate(out, booters)?;
        self.thin_week(out, rate);
        self.engine.maintain(out.week as u64 * 7 * 86_400);
        Ok(())
    }

    fn coverage_rate(
        &mut self,
        out: &WeekOutput,
        booters: &[Booter],
    ) -> Result<f64, ScenarioError> {
        let engine = &mut self.engine;
        Ok(match self.config.fidelity {
            Fidelity::Aggregate => coverage_rate_aggregate(engine, out, booters),
            Fidelity::PacketSampled { per_week } => {
                let cmds = commands_for_week(out, booters, &mut self.rng, per_week);
                if cmds.is_empty() {
                    1.0
                } else {
                    let seen = cmds.iter().filter(|c| engine.would_observe(c)).count();
                    seen as f64 / cmds.len() as f64
                }
            }
            Fidelity::FullPackets { per_week } => {
                let cmds = commands_for_week(out, booters, &mut self.rng, per_week);
                match (&self.config.store, &mut self.serve_node, &self.config.query) {
                    (Some(spill), _, _) => {
                        let (rate, stats) = full_packet_rate_store(engine, &cmds, spill.clone())?;
                        self.store_stats.get_or_insert_with(SpillStats::default).absorb(&stats);
                        rate
                    }
                    (None, Some(node), _) => {
                        let week_end = (out.week as u64 + 1) * 7 * 86_400;
                        full_packet_rate_serve(engine, &cmds, node, week_end)?
                    }
                    (None, None, Some(qcfg)) => {
                        let (rate, stats) = full_packet_rate_query(engine, &cmds, qcfg)?;
                        self.query_stats.get_or_insert_with(QueryStats::default).absorb(&stats);
                        rate
                    }
                    (None, None, None) => full_packet_rate(engine, &cmds),
                }
            }
        })
    }

    /// Thin every cell at the measured weekly coverage rate and rebuild
    /// the aggregates from the thinned cells so all views stay
    /// consistent.
    fn thin_week(&mut self, out: &WeekOutput, rate: f64) {
        let honeypot = &mut self.honeypot;
        let n_protocols = UdpProtocol::ALL.len();
        let mut observed_global = 0u64;
        for country in Country::ALL {
            let ci = country.index();
            let mut country_total = 0u64;
            for pi in 0..n_protocols {
                let seen = sample_binomial(&mut self.rng, out.country_protocol[ci][pi], rate);
                country_total += seen;
                honeypot.by_protocol[pi].add_event(out.monday, seen as f64);
                honeypot.country_protocol[ci * n_protocols + pi]
                    .add_event(out.monday, seen as f64);
            }
            honeypot.by_country[ci].add_event(out.monday, country_total as f64);
            observed_global += country_total;
        }
        honeypot.global.add_event(out.monday, observed_global as f64);
    }
}

/// Record one week's commanded volumes, unthinned, into the ground-truth
/// dataset.
fn record_ground_truth(truth: &mut HoneypotDataset, out: &WeekOutput) {
    let n_protocols = UdpProtocol::ALL.len();
    for country in Country::ALL {
        let ci = country.index();
        for pi in 0..n_protocols {
            let cell = out.country_protocol[ci][pi] as f64;
            truth.by_protocol[pi].add_event(out.monday, cell);
            truth.country_protocol[ci * n_protocols + pi].add_event(out.monday, cell);
        }
        truth.by_country[ci].add_event(out.monday, out.country_counts[ci] as f64);
    }
    truth.global.add_event(out.monday, out.total as f64);
}

/// Aggregate fidelity: probe the engine once per (booter, week) with a
/// representative command and weight by the booter's attack volume.
fn coverage_rate_aggregate(
    engine: &mut Engine,
    out: &WeekOutput,
    booters: &[Booter],
) -> f64 {
    let week_time = out.week as u64 * 7 * 86_400;
    let mut commanded = 0u64;
    let mut observed = 0u64;
    for (id, attacks) in &out.booter_attacks {
        if *attacks == 0 {
            continue;
        }
        let Some(b) = booters.iter().find(|b| b.id == *id) else {
            commanded += attacks;
            observed += attacks; // new entrant this week: honest default
            continue;
        };
        let protocol = b.protocols.first().copied().unwrap_or(UdpProtocol::Ldap);
        let probe = AttackCommand {
            time: week_time,
            victim: VictimAddr::from_octets(25, 0, 0, 1),
            protocol,
            duration_secs: 300,
            packets_per_second: 50_000,
            booter: b.id,
            avoids_honeypots: b.avoids_honeypots,
        };
        commanded += attacks;
        if engine.would_observe(&probe) {
            observed += attacks;
        }
    }
    if commanded == 0 {
        1.0
    } else {
        observed as f64 / commanded as f64
    }
}

/// Full-packet fidelity: simulate every sampled command's packets, group
/// flows, classify, and return the fraction of commands recovered as
/// attacks. Packet synthesis and flow grouping both fan out over the
/// `booters-par` executor; the result is identical at every thread count.
fn full_packet_rate(engine: &mut Engine, cmds: &[AttackCommand]) -> f64 {
    if cmds.is_empty() {
        return 1.0;
    }
    let packets = engine.simulate_attacks_batch(cmds);
    booters_obs::span!("group");
    let flows = group_flows_par(&packets, VictimKey::ByIp);
    let attacks = flows
        .iter()
        .filter(|f| f.classify() == FlowClass::Attack)
        .count();
    (attacks as f64 / cmds.len() as f64).min(1.0)
}

/// Out-of-core twin of [`full_packet_rate`]: the engine streams the batch
/// into a [`SpillGrouper`] sink (never holding the full trace in RAM) and
/// flows come from the external sort/merge. Engine RNG draw order and the
/// produced flows match the in-memory path exactly, so the observed
/// datasets are byte-identical at every budget and thread count.
fn full_packet_rate_store(
    engine: &mut Engine,
    cmds: &[AttackCommand],
    spill: SpillConfig,
) -> Result<(f64, SpillStats), StoreError> {
    if cmds.is_empty() {
        return Ok((1.0, SpillStats::default()));
    }
    let mut grouper = SpillGrouper::new(SpillConfig {
        key: VictimKey::ByIp, // must match full_packet_rate's grouping
        ..spill
    });
    engine.simulate_attacks_batch_into(cmds, &mut grouper);
    booters_obs::span!("group");
    let out = grouper.finish()?;
    let attacks = out
        .flows
        .iter()
        .filter(|f| f.classify() == FlowClass::Attack)
        .count();
    Ok(((attacks as f64 / cmds.len() as f64).min(1.0), out.stats))
}

/// Streaming twin of [`full_packet_rate`]: the engine streams the batch
/// into the long-running [`ServeNode`] sink (sharded intake, watermark
/// grouping), and closing the week's epoch yields the flows. The batch
/// pipeline groups each full-packet week in isolation, so an epoch
/// close per week makes the streamed flow sets — and every rate and
/// table derived from them — byte-identical to the in-memory path
/// (DESIGN.md §5g). The watermark lands on the week boundary, closing
/// the week for the node's rolling warm-started refit.
fn full_packet_rate_serve(
    engine: &mut Engine,
    cmds: &[AttackCommand],
    node: &mut ServeNode,
    week_end: u64,
) -> Result<f64, ServeError> {
    if !cmds.is_empty() {
        engine.simulate_attacks_batch_into(cmds, node);
        if let Some(e) = node.sink_error() {
            return Err(e.clone());
        }
    }
    booters_obs::span!("group");
    let flows = node.close_epoch_at(week_end)?;
    if cmds.is_empty() {
        // Mirror full_packet_rate's empty-week convention exactly.
        return Ok(1.0);
    }
    let attacks = flows
        .iter()
        .filter(|f| f.classify() == FlowClass::Attack)
        .count();
    Ok((attacks as f64 / cmds.len() as f64).min(1.0))
}

/// Query-backed twin of [`full_packet_rate`]: the engine streams the
/// week's batch into a scratch columnar store file, then recovers the
/// attack flows through the predicate-pushdown [`QueryEngine`] instead
/// of grouping the in-RAM batch. The scan uses [`Predicate::all()`] —
/// the in-memory path groups *every* packet the batch produced, so the
/// query path must too — and batch output is time-ordered, satisfying
/// `weekly_attacks`' ingest-order requirement. Engine RNG draw order is
/// untouched (`simulate_attacks_batch_into` draws identically to
/// `simulate_attacks_batch`), so the observed datasets are
/// byte-identical at every thread and kernel setting.
fn full_packet_rate_query(
    engine: &mut Engine,
    cmds: &[AttackCommand],
    qcfg: &QueryConfig,
) -> Result<(f64, QueryStats), StoreError> {
    if cmds.is_empty() {
        return Ok((1.0, QueryStats::default()));
    }
    let path = qcfg.scratch_path();
    let result = (|| {
        let mut w = ChunkWriter::with_capacity(&path, qcfg.chunk_capacity)?;
        engine.simulate_attacks_batch_into(cmds, &mut w);
        w.finish()?;
        let q = QueryEngine::open(&path)?;
        booters_obs::span!("group");
        let (weeks, stats) = q.weekly_attacks(&Predicate::all(), VictimKey::ByIp)?;
        let attacks: u64 = weeks.values().sum();
        Ok(((attacks as f64 / cmds.len() as f64).min(1.0), stats))
    })();
    let _ = std::fs::remove_file(&path);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use booters_market::calibration::Calibration;

    fn small_config(fidelity: Fidelity) -> ScenarioConfig {
        let cal = Calibration {
            // Short window for tests: one year around the Xmas2018 event.
            scenario_start: Date::new(2018, 6, 4),
            scenario_end: Date::new(2019, 4, 1),
            ..Calibration::default()
        };
        ScenarioConfig {
            market: MarketConfig {
                calibration: cal,
                scale: 0.01,
                seed: 11,
                ..MarketConfig::default()
            },
            fidelity,
            ..ScenarioConfig::default()
        }
    }

    #[test]
    fn aggregate_scenario_produces_consistent_datasets() {
        let s = Scenario::run(small_config(Fidelity::Aggregate));
        assert!(s.honeypot.global.total() > 0.0);
        // Observed never exceeds ground truth.
        for (o, g) in s
            .honeypot
            .global
            .values()
            .iter()
            .zip(s.ground_truth.global.values())
        {
            assert!(o <= g, "observed {o} > truth {g}");
        }
        // Per-country sums equal the global series week by week.
        for i in 0..s.honeypot.global.len() {
            let sum: f64 = s.honeypot.by_country.iter().map(|c| c.get(i)).sum();
            assert!((sum - s.honeypot.global.get(i)).abs() < 1e-9, "week {i}");
            let psum: f64 = s.honeypot.by_protocol.iter().map(|c| c.get(i)).sum();
            assert!((psum - s.honeypot.global.get(i)).abs() < 1e-9, "week {i} protocols");
        }
    }

    #[test]
    fn coverage_is_high_but_not_total() {
        let s = Scenario::run(small_config(Fidelity::Aggregate));
        let rate = s.honeypot.global.total() / s.ground_truth.global.total();
        assert!(rate > 0.6 && rate < 1.0, "rate={rate}");
    }

    #[test]
    fn packet_sampled_fidelity_agrees_with_aggregate() {
        let agg = Scenario::run(small_config(Fidelity::Aggregate));
        let pkt = Scenario::run(small_config(Fidelity::PacketSampled { per_week: 300 }));
        let ra = agg.honeypot.global.total() / agg.ground_truth.global.total();
        let rp = pkt.honeypot.global.total() / pkt.ground_truth.global.total();
        assert!((ra - rp).abs() < 0.15, "aggregate={ra} sampled={rp}");
    }

    #[test]
    fn full_packet_fidelity_runs_the_whole_chain() {
        let mut cfg = small_config(Fidelity::FullPackets { per_week: 40 });
        // Even shorter window: 8 weeks.
        cfg.market.calibration.scenario_start = Date::new(2018, 9, 3);
        cfg.market.calibration.scenario_end = Date::new(2018, 10, 29);
        let s = Scenario::run(cfg);
        let rate = s.honeypot.global.total() / s.ground_truth.global.total();
        assert!(rate > 0.5, "rate={rate}");
    }

    #[test]
    fn store_backed_full_packets_matches_in_memory_bit_for_bit() {
        let mut cfg = small_config(Fidelity::FullPackets { per_week: 40 });
        // Short window: 8 weeks (as the in-memory full-packet test).
        cfg.market.calibration.scenario_start = Date::new(2018, 9, 3);
        cfg.market.calibration.scenario_end = Date::new(2018, 10, 29);
        let baseline = Scenario::run(cfg.clone());
        assert!(baseline.store_stats.is_none());

        let mut store_cfg = cfg;
        store_cfg.store = Some(SpillConfig {
            budget_bytes: 32 << 10, // tiny: forces many spill runs
            ..SpillConfig::default()
        });
        let s = Scenario::run(store_cfg);
        let stats = s.store_stats.expect("store path ran");
        assert!(stats.spill_runs >= 3, "spill_runs={}", stats.spill_runs);
        assert!(stats.packets > 0);
        assert_eq!(s.honeypot.global.values(), baseline.honeypot.global.values());
        assert_eq!(
            s.ground_truth.global.values(),
            baseline.ground_truth.global.values()
        );
        for (a, b) in s
            .honeypot
            .by_protocol
            .iter()
            .zip(baseline.honeypot.by_protocol.iter())
        {
            assert_eq!(a.values(), b.values());
        }
    }

    #[test]
    fn serve_backed_full_packets_matches_in_memory_bit_for_bit() {
        let mut cfg = small_config(Fidelity::FullPackets { per_week: 40 });
        // Short window: 8 weeks (as the in-memory full-packet test).
        cfg.market.calibration.scenario_start = Date::new(2018, 9, 3);
        cfg.market.calibration.scenario_end = Date::new(2018, 10, 29);
        let baseline = Scenario::run(cfg.clone());
        assert!(baseline.serve_stats.is_none());

        let mut serve_cfg = cfg;
        serve_cfg.serve = Some(ServeConfig {
            shards: 3,
            queue_capacity: 64, // tiny: intake backpressure must engage
            ..ServeConfig::default()
        });
        let s = Scenario::run(serve_cfg);
        let stats = s.serve_stats.expect("streaming path ran");
        assert!(stats.packets > 0);
        assert_eq!(stats.grouped, stats.packets, "every packet was grouped");
        assert!(stats.weeks_closed >= 8, "weeks_closed={}", stats.weeks_closed);
        assert!(stats.epochs >= 8, "epochs={}", stats.epochs);
        assert!(
            stats.backpressure_events > 0,
            "tiny queues should exercise typed backpressure"
        );
        assert_eq!(stats.late_packets, 0);
        assert_eq!(s.honeypot.global.values(), baseline.honeypot.global.values());
        assert_eq!(
            s.ground_truth.global.values(),
            baseline.ground_truth.global.values()
        );
        for (a, b) in s
            .honeypot
            .by_protocol
            .iter()
            .zip(baseline.honeypot.by_protocol.iter())
        {
            assert_eq!(a.values(), b.values());
        }
    }

    #[test]
    fn query_backed_full_packets_matches_in_memory_bit_for_bit() {
        let mut cfg = small_config(Fidelity::FullPackets { per_week: 40 });
        // Short window: 8 weeks (as the in-memory full-packet test).
        cfg.market.calibration.scenario_start = Date::new(2018, 9, 3);
        cfg.market.calibration.scenario_end = Date::new(2018, 10, 29);
        let baseline = Scenario::run(cfg.clone());
        assert!(baseline.query_stats.is_none());

        let mut query_cfg = cfg;
        query_cfg.query = Some(QueryConfig {
            chunk_capacity: 256, // tiny: every week spans several chunks
            ..QueryConfig::default()
        });
        let s = Scenario::run(query_cfg);
        let stats = s.query_stats.expect("query path ran");
        assert!(stats.scans >= 8, "scans={}", stats.scans);
        assert!(stats.chunks_total > 8, "chunks_total={}", stats.chunks_total);
        assert_eq!(
            stats.rows_returned, stats.rows_scanned,
            "Predicate::all() keeps every scanned row"
        );
        assert_eq!(s.honeypot.global.values(), baseline.honeypot.global.values());
        assert_eq!(
            s.ground_truth.global.values(),
            baseline.ground_truth.global.values()
        );
        for (a, b) in s
            .honeypot
            .by_protocol
            .iter()
            .zip(baseline.honeypot.by_protocol.iter())
        {
            assert_eq!(a.values(), b.values());
        }
    }

    #[test]
    fn serve_shard_fault_surfaces_as_a_typed_scenario_error() {
        let mut cfg = small_config(Fidelity::FullPackets { per_week: 4 });
        cfg.market.calibration.scenario_start = Date::new(2018, 9, 3);
        cfg.market.calibration.scenario_end = Date::new(2018, 9, 17);
        cfg.serve = Some(ServeConfig {
            shards: 2,
            fault_panic_shard: Some(0),
            ..ServeConfig::default()
        });
        let err = Scenario::try_run(cfg).map(|_| ()).unwrap_err();
        assert!(
            matches!(err, ScenarioError::Serve(ServeError::ShardPanic { shard: 0 })),
            "expected a typed shard panic, got {err:?}"
        );
    }

    #[test]
    fn selfreport_counters_are_scraped_weekly() {
        let s = Scenario::run(small_config(Fidelity::Aggregate));
        assert!(s.selfreport.counters.len() > 20, "{} booters", s.selfreport.counters.len());
        // Counter histories are non-decreasing except wipes (rare).
        let mut violations = 0;
        let mut total = 0;
        for h in s.selfreport.counters.values() {
            let vals: Vec<u64> = h.values().copied().collect();
            for w in vals.windows(2) {
                total += 1;
                if w[1] < w[0] {
                    violations += 1;
                }
            }
        }
        assert!(total > 200);
        assert!((violations as f64) < 0.05 * total as f64);
    }

    #[test]
    fn lifecycle_series_show_xmas_death_spike() {
        let s = Scenario::run(small_config(Fidelity::Aggregate));
        let xmas_week = s
            .selfreport
            .deaths
            .index_of(Date::new(2018, 12, 17))
            .unwrap();
        assert!(
            s.selfreport.deaths.get(xmas_week) >= 7.0,
            "deaths={}",
            s.selfreport.deaths.get(xmas_week)
        );
        // Typical weeks are quiet.
        let quiet: usize = (0..s.selfreport.deaths.len())
            .filter(|&i| s.selfreport.deaths.get(i) <= 3.0)
            .count();
        assert!(quiet * 10 >= s.selfreport.deaths.len() * 7);
    }

    #[test]
    fn scenario_is_deterministic() {
        let a = Scenario::run(small_config(Fidelity::Aggregate));
        let b = Scenario::run(small_config(Fidelity::Aggregate));
        assert_eq!(a.honeypot.global.values(), b.honeypot.global.values());
    }
}
