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
use booters_market::commands::commands_for_week_with;
use booters_market::market::{sample_binomial, MarketConfig, MarketSim, WeekOutput};
use booters_market::BooterTraits;
use booters_netsim::flow::{FlowClass, VictimKey};
use booters_netsim::{AttackCommand, Country, Engine, EngineConfig, UdpProtocol, VictimAddr};
use booters_timeseries::Date;
use booters_testkit::rngs::StdRng;
use booters_testkit::SeedableRng;
use std::collections::BTreeMap;

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
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            market: MarketConfig::default(),
            engine: EngineConfig::default(),
            fidelity: Fidelity::Aggregate,
            observe_seed: 0x0B5E,
            selfreport_start: Date::new(2017, 11, 6),
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
}

impl Scenario {
    /// Run a scenario to completion.
    pub fn run(config: ScenarioConfig) -> Scenario {
        booters_obs::span!("simulate");
        let cal_start = config.market.calibration.scenario_start;
        let cal_end = config.market.calibration.scenario_end;
        let sim = MarketSim::new(config.market.clone());

        let mut ground_truth = HoneypotDataset::new(cal_start, cal_end);
        let sr_start = config.selfreport_start.week_start();
        let mut counters: BTreeMap<u32, CounterHistory> = BTreeMap::new();
        let n_weeks_total = sim.n_weeks();
        let sr_weeks = ((cal_end.week_start().days_since(sr_start)) / 7).max(0) as usize;
        let mut deaths = booters_timeseries::WeeklySeries::zeros(sr_start, sr_weeks);
        let mut resurrections = booters_timeseries::WeeklySeries::zeros(sr_start, sr_weeks);
        let mut births = booters_timeseries::WeeklySeries::zeros(sr_start, sr_weeks);

        let mut weeks = Vec::with_capacity(n_weeks_total);
        let honeypot = observe_market(&config, sim, |out| {
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

            // Kept as a copy made on this thread. From two threads up the
            // week's vectors were allocated on the market's stage thread
            // (DESIGN.md §5b); dropping them here gives them back to the
            // stage's allocator, which reuses them for the next weeks
            // instead of growing its own heap.
            weeks.push(out.clone());
        });

        Scenario {
            honeypot,
            ground_truth,
            selfreport: SelfReportDataset {
                start: sr_start,
                counters,
                deaths,
                resurrections,
                births,
            },
            weeks,
        }
    }

    /// [`Scenario::run`] in the `Result` form the end-to-end benchmark
    /// (`bench_e2e/`) calls; a scenario run cannot fail.
    pub fn try_run(config: ScenarioConfig) -> Result<Scenario, std::convert::Infallible> {
        Ok(Scenario::run(config))
    }
}

/// Run `config`'s market through the honeypot and return only what the
/// honeypot observed — no ground truth, no self-report scrape, no raw
/// weeks. Each market week is dropped as soon as it is observed, so the
/// heap holds one [`HoneypotDataset`] rather than a whole [`Scenario`].
///
/// The observation is [`Scenario::run`]'s own (both drive the same
/// observer), so the result equals `Scenario::run(config).honeypot`
/// bit for bit at every fidelity and thread count.
///
/// Opens no `simulate` span of its own: the scenario suite observes
/// several markets at once and times that whole phase as one span.
pub fn observe_honeypot(config: ScenarioConfig) -> HoneypotDataset {
    let sim = MarketSim::new(config.market.clone());
    observe_market(&config, sim, drop)
}

/// What crosses from the market stage to the observer, in order: the
/// traits of each booter as it is born, then the output of the week that
/// bore it. Births travel inside the hand-off's batches rather than in a
/// small vector per week, which this thread would free: with such a
/// vector a two-thread run took up to twice as long, most likely because
/// the allocator's per-thread cache hands a freed block back to this
/// thread's next allocation, inside the stage's heap beside memory the
/// stage writes (DESIGN.md §5b).
enum FromMarket {
    Born(BooterTraits),
    Week(WeekOutput),
}

/// The one driver loop of both [`Scenario::run`] and
/// [`observe_honeypot`]: step `sim` to its end, observe every week, then
/// hand the week to `each`, and return the observed dataset.
///
/// The market steps on the `booters-par` stage thread while this thread
/// observes (`booters_par::pipeline`; at one thread, the interleaved
/// loop). The two share no state. The observer reads only each week's
/// output and, of each booter, its id and the [`BooterTraits`] fixed at
/// spawn, so it works from a mirror of those traits grown by each
/// booter's birth instead of the live population. The population only
/// grows and a booter's id is its index, so the mirror holds the right
/// booter's traits at every index the observer looks up, and every output
/// is the interleaved loop's to the bit (DESIGN.md §5j).
fn observe_market(
    config: &ScenarioConfig,
    mut sim: MarketSim,
    mut each: impl FnMut(WeekOutput),
) -> HoneypotDataset {
    let mut observer = Observer::new(config);
    // Booters whose traits have been sent, and the week stepped but not
    // yet sent.
    let mut sent = 0;
    let mut stepped = None;
    let mut traits: Vec<BooterTraits> = Vec::new();
    booters_par::pipeline(
        || loop {
            if let Some(booter) = sim.population().booters().get(sent) {
                sent += 1;
                return Some(FromMarket::Born(booter.traits()));
            }
            if let Some(out) = stepped.take() {
                return Some(FromMarket::Week(out));
            }
            stepped = Some(sim.step()?);
        },
        |item| match item {
            FromMarket::Born(t) => traits.push(t),
            FromMarket::Week(out) => {
                debug_assert!(
                    out.booter_attacks.iter().all(|&(id, _)| (id as usize) < traits.len()),
                    "week {}: a booter attacked before its birth reached the observer",
                    out.week
                );
                observer.observe_week(&out, &traits);
                booters_obs::counter_add("core.weeks_simulated", 1);
                each(out);
            }
        },
    );
    observer.honeypot
}

/// The observation half of a scenario run: the honeypot engine, the
/// observation RNG and the observed dataset. Both drivers
/// ([`Scenario::run`] and [`observe_honeypot`]) feed it the same market
/// weeks, so they share the coverage measurement, the binomial thinning
/// and the observation-RNG draw order by construction.
struct Observer<'c> {
    config: &'c ScenarioConfig,
    engine: Engine,
    rng: StdRng,
    honeypot: HoneypotDataset,
}

impl<'c> Observer<'c> {
    fn new(config: &'c ScenarioConfig) -> Observer<'c> {
        let cal = &config.market.calibration;
        Observer {
            config,
            engine: Engine::new(config.engine),
            rng: StdRng::seed_from_u64(config.observe_seed),
            honeypot: HoneypotDataset::new(cal.scenario_start, cal.scenario_end),
        }
    }

    /// Observe one market week: measure the week's coverage rate at the
    /// configured fidelity, thin every country×protocol cell at that
    /// rate into the honeypot dataset, then age the engine's state.
    /// `traits` holds each booter's traits at the index equal to its id.
    fn observe_week(&mut self, out: &WeekOutput, traits: &[BooterTraits]) {
        let rate = self.coverage_rate(out, traits);
        self.thin_week(out, rate);
        self.engine.maintain(out.week as u64 * 7 * 86_400);
    }

    fn coverage_rate(&mut self, out: &WeekOutput, traits: &[BooterTraits]) -> f64 {
        let engine = &mut self.engine;
        let avoids = |id: u32| traits.get(id as usize).map(|t| t.avoids_honeypots);
        match self.config.fidelity {
            Fidelity::Aggregate => coverage_rate_aggregate(engine, out, traits),
            Fidelity::PacketSampled { per_week } => {
                let cmds = commands_for_week_with(out, avoids, &mut self.rng, per_week);
                if cmds.is_empty() {
                    1.0
                } else {
                    let seen = cmds.iter().filter(|c| engine.would_observe(c)).count();
                    seen as f64 / cmds.len() as f64
                }
            }
            Fidelity::FullPackets { per_week } => {
                let cmds = commands_for_week_with(out, avoids, &mut self.rng, per_week);
                full_packet_rate(engine, &cmds)
            }
        }
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
/// `traits` holds each booter's traits at the index equal to its id.
fn coverage_rate_aggregate(engine: &mut Engine, out: &WeekOutput, traits: &[BooterTraits]) -> f64 {
    let week_time = out.week as u64 * 7 * 86_400;
    let mut commanded = 0u64;
    let mut observed = 0u64;
    for (id, attacks) in &out.booter_attacks {
        if *attacks == 0 {
            continue;
        }
        let Some(b) = traits.get(*id as usize) else {
            commanded += attacks;
            observed += attacks; // new entrant this week: honest default
            continue;
        };
        let protocol = b.first_protocol.unwrap_or(UdpProtocol::Ldap);
        let probe = AttackCommand {
            time: week_time,
            victim: VictimAddr::from_octets(25, 0, 0, 1),
            protocol,
            duration_secs: 300,
            packets_per_second: 50_000,
            booter: *id,
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
/// attacks. Each command's synthesis and grouping run as one task on the
/// `booters-par` executor, and the week's packets are never gathered into
/// one trace; the flows are exactly those of grouping that trace, so the
/// result is identical at every thread count.
fn full_packet_rate(engine: &mut Engine, cmds: &[AttackCommand]) -> f64 {
    if cmds.is_empty() {
        return 1.0;
    }
    let flows = engine.simulate_attack_flows(cmds, VictimKey::ByIp);
    let attacks = flows
        .iter()
        .filter(|f| f.classify() == FlowClass::Attack)
        .count();
    (attacks as f64 / cmds.len() as f64).min(1.0)
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

    /// The observer's traits mirror draws the same commands as the live
    /// population, week by week (both consume the same RNG stream).
    #[test]
    fn the_traits_mirror_draws_the_live_populations_commands() {
        let cfg = small_config(Fidelity::Aggregate);
        let mut sim = MarketSim::new(cfg.market.clone());
        let mut traits: Vec<BooterTraits> = Vec::new();
        let (mut live_rng, mut mirror_rng) = (StdRng::seed_from_u64(3), StdRng::seed_from_u64(3));
        let mut attributed = 0;
        while let Some(out) = sim.step() {
            let booters = sim.population().booters();
            traits.extend(booters[traits.len()..].iter().map(booters_market::Booter::traits));
            let live = booters_market::commands::commands_for_week(&out, booters, &mut live_rng, 40);
            let avoids = |id: u32| traits.get(id as usize).map(|t| t.avoids_honeypots);
            let mirror = commands_for_week_with(&out, avoids, &mut mirror_rng, 40);
            assert_eq!(live, mirror, "week {}", out.week);
            attributed += live.iter().filter(|c| c.booter != 0).count();
        }
        assert!(attributed > 0, "no command was attributed to a booter");
    }
}
