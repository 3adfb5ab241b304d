//! The weekly market simulation loop.
//!
//! Each week the simulator: applies any structural shock to the booter
//! population, draws per-country attack counts from the calibrated NB2
//! demand model, decomposes them into protocols, allocates the global
//! volume across alive booters (with displacement emerging from weight
//! renormalisation), and updates the self-reported counters.

use crate::booter::BooterState;
use crate::calibration::Calibration;
use crate::demand::DemandPlan;
use crate::lifecycle::{LifecycleWeek, MarketShock, Population};
use crate::shocks::ScenarioSpec;
use booters_netsim::Country;
use booters_stats::dist::{standard_normal_sample, NegativeBinomial, Poisson};
use booters_timeseries::Date;
use booters_testkit::rngs::StdRng;
use booters_testkit::{Rng, SeedableRng};

/// Market simulation configuration.
#[derive(Debug, Clone)]
pub struct MarketConfig {
    /// Calibration bundle (paper-derived constants).
    pub calibration: Calibration,
    /// RNG seed — every run is deterministic given the seed.
    pub seed: u64,
    /// Volume multiplier. 1.0 reproduces the paper's absolute scale
    /// (~30k–170k attacks/week); tests use small values for speed. Scaling
    /// only shifts the model constant, leaving every other coefficient
    /// untouched.
    pub scale: f64,
    /// Standard deviation of per-booter weekly log-share noise (booters
    /// are "fairly unstable", §4.3).
    pub booter_noise_sd: f64,
    /// Fraction of a booter's attacks visible in its self-report counter
    /// (self-reports include non-UDP-reflection attacks; observation is a
    /// different channel than the honeypots).
    pub selfreport_factor: f64,
    /// When set, the paper's hard-wired intervention history is replaced
    /// by this scenario spec: demand follows the counterfactual baseline
    /// plus the spec's demand-side shocks, and population dynamics apply
    /// the spec's structural shocks instead of [`MarketShock`]s. `None`
    /// (the default) reproduces the paper exactly.
    pub scenario: Option<ScenarioSpec>,
}

impl Default for MarketConfig {
    fn default() -> Self {
        MarketConfig {
            calibration: Calibration::default(),
            seed: 0xB007_5EED,
            scale: 1.0,
            booter_noise_sd: 0.45,
            selfreport_factor: 0.5,
            scenario: None,
        }
    }
}

/// Output of one simulated week.
#[derive(Debug, Clone)]
pub struct WeekOutput {
    /// Week index since scenario start.
    pub week: usize,
    /// Monday of the week.
    pub monday: Date,
    /// Attacks per victim country (indexed by [`Country::index`]).
    pub country_counts: [u64; 12],
    /// Attacks per protocol (indexed by `UdpProtocol::index` in
    /// `booters-netsim`).
    pub protocol_counts: [u64; 10],
    /// Joint country × protocol breakdown.
    pub country_protocol: [[u64; 10]; 12],
    /// Attacks performed by each alive booter this week.
    pub booter_attacks: Vec<(u32, u64)>,
    /// Counters displayed by self-reporting, alive booters after this week.
    pub displayed_counters: Vec<(u32, u64)>,
    /// Lifecycle tallies for Figure 8.
    pub lifecycle: LifecycleWeek,
    /// Global total (sum over countries).
    pub total: u64,
}

/// The market simulator.
#[derive(Debug)]
pub struct MarketSim {
    config: MarketConfig,
    /// The calibration and scenario, compiled once for stepping.
    plan: DemandPlan,
    rng: StdRng,
    population: Population,
    week: usize,
    monday: Date,
    end: Date,
}

impl MarketSim {
    /// Create a simulator positioned at the scenario start.
    pub fn new(config: MarketConfig) -> MarketSim {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let population = Population::new(&mut rng);
        let monday = config.calibration.scenario_start.week_start();
        let end = config.calibration.scenario_end.week_start();
        let plan = DemandPlan::new(&config.calibration, config.scenario.as_ref());
        MarketSim {
            config,
            plan,
            rng,
            population,
            week: 0,
            monday,
            end,
        }
    }

    /// Total number of weeks in the scenario.
    pub fn n_weeks(&self) -> usize {
        (self.end.days_since(self.config.calibration.scenario_start.week_start()) / 7) as usize
    }

    /// Borrow the population (e.g. for avoidance flags).
    pub fn population(&self) -> &Population {
        &self.population
    }

    /// Which structural shock (if any) lands in the week of `monday`.
    fn shock_for(&self, monday: Date) -> Option<MarketShock> {
        let in_week = |d: Date| d.week_start() == monday;
        if in_week(Date::new(2018, 4, 24)) {
            Some(MarketShock::WebstresserTakedown)
        } else if in_week(Date::new(2018, 12, 19)) {
            Some(MarketShock::Xmas2018)
        } else if in_week(Date::new(2019, 3, 4)) {
            Some(MarketShock::ReturnOfTheMajor)
        } else {
            None
        }
    }

    /// Simulate one week. Returns `None` once the scenario is exhausted.
    pub fn step(&mut self) -> Option<WeekOutput> {
        if self.monday >= self.end {
            return None;
        }
        let monday = self.monday;
        let cal = &self.config.calibration;

        // 1. Population dynamics and shocks. Scenario runs swap both the
        // structural-shock source and the demand model; both arms consume
        // the same RNG stream (DESIGN.md §5j).
        let lifecycle = match self.plan.shocks() {
            None => {
                let shock = self.shock_for(monday);
                self.population.step(&mut self.rng, self.week, shock)
            }
            Some(shocks) => {
                let structural = shocks.structural_for(monday.to_days());
                self.population
                    .step_scenario(&mut self.rng, self.week, structural)
            }
        };

        // 2. Per-country counts from the calibrated NB2 model.
        let week = self.plan.week(monday);
        let mut country_counts = [0u64; 12];
        let mut country_protocol = [[0u64; 10]; 12];
        let mut protocol_counts = [0u64; 10];
        for &country in Country::ALL.iter() {
            let log_mu = self.plan.log_intensity(country, &week);
            let mu = log_mu.exp() * self.config.scale;
            let count = if mu < 0.5 {
                0
            } else {
                NegativeBinomial::new(mu, cal.global.dispersion).sample(&mut self.rng)
            };
            country_counts[country.index()] = count;

            // 3. Protocol decomposition.
            let split = sample_multinomial(&mut self.rng, count, week.protocol_weights(country));
            for (i, &n) in split.iter().enumerate() {
                country_protocol[country.index()][i] = n;
                protocol_counts[i] += n;
            }
        }
        let total: u64 = country_counts.iter().sum();

        // 4. Booter allocation with lognormal share noise.
        let noise_sd = self.config.booter_noise_sd;
        let mut weights: Vec<(usize, f64)> = Vec::new();
        for (idx, b) in self.population.booters().iter().enumerate() {
            if b.is_alive() {
                let noise = (noise_sd * standard_normal_sample(&mut self.rng)).exp();
                weights.push((idx, b.weight * noise));
            }
        }
        let weight_sum: f64 = weights.iter().map(|(_, w)| w).sum();
        let mut booter_attacks = Vec::with_capacity(weights.len());
        if weight_sum > 0.0 {
            let probs: Vec<f64> = weights.iter().map(|(_, w)| w / weight_sum).collect();
            let alloc = sample_multinomial(&mut self.rng, total, &probs);
            for ((idx, _), n) in weights.iter().zip(alloc) {
                let b = &mut self.population.booters_mut()[*idx];
                let reported = (n as f64 * self.config.selfreport_factor).round() as u64;
                b.record_attacks(reported);
                booter_attacks.push((b.id, n));
            }
        }

        // 5. Database wipes and displayed counters.
        let mut displayed_counters = Vec::new();
        for b in self.population.booters_mut() {
            if b.state == BooterState::Alive && b.wipe_prob > 0.0
                && self.rng.gen::<f64>() < b.wipe_prob {
                    b.wipe();
                }
        }
        for b in self.population.booters() {
            if let Some(c) = b.displayed_counter() {
                displayed_counters.push((b.id, c));
            }
        }

        let out = WeekOutput {
            week: self.week,
            monday,
            country_counts,
            protocol_counts,
            country_protocol,
            booter_attacks,
            displayed_counters,
            lifecycle,
            total,
        };
        self.week += 1;
        self.monday = self.monday.add_days(7);
        Some(out)
    }

    /// Run the whole scenario.
    pub fn run(mut self) -> Vec<WeekOutput> {
        let mut out = Vec::with_capacity(self.n_weeks());
        while let Some(w) = self.step() {
            out.push(w);
        }
        out
    }
}

/// Multinomial sample: distribute `n` items over `weights` (need not be
/// normalised). Uses sequential conditional binomials; each binomial uses
/// an exact Bernoulli loop for small n, a Poisson approximation for rare
/// events and a normal approximation for large counts.
pub fn sample_multinomial(rng: &mut StdRng, n: u64, weights: &[f64]) -> Vec<u64> {
    let mut out = vec![0u64; weights.len()];
    let mut remaining = n;
    let mut weight_left: f64 = weights.iter().sum();
    for (i, &w) in weights.iter().enumerate() {
        if remaining == 0 || weight_left <= 0.0 {
            break;
        }
        if i == weights.len() - 1 {
            out[i] = remaining;
            break;
        }
        let p = (w / weight_left).clamp(0.0, 1.0);
        let draw = sample_binomial(rng, remaining, p);
        out[i] = draw;
        remaining -= draw;
        weight_left -= w;
    }
    out
}

/// Binomial(n, p) sample with regime-appropriate approximations.
pub fn sample_binomial(rng: &mut StdRng, n: u64, p: f64) -> u64 {
    if p <= 0.0 || n == 0 {
        return 0;
    }
    if p >= 1.0 {
        return n;
    }
    let np = n as f64 * p;
    let var = np * (1.0 - p);
    if n <= 64 {
        let mut k = 0;
        for _ in 0..n {
            if rng.gen::<f64>() < p {
                k += 1;
            }
        }
        k
    } else if np < 30.0 {
        // Rare-event regime: Poisson approximation.
        Poisson::new(np.max(1e-9)).sample(rng).min(n)
    } else if n as f64 - np < 30.0 {
        // Symmetric rare regime on the other side.
        n - Poisson::new((n as f64 - np).max(1e-9)).sample(rng).min(n)
    } else {
        // CLT regime.
        let draw = np + var.sqrt() * standard_normal_sample(rng);
        draw.round().clamp(0.0, n as f64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_config(scale: f64) -> MarketConfig {
        MarketConfig {
            scale,
            seed: 42,
            ..MarketConfig::default()
        }
    }

    #[test]
    fn scenario_covers_the_paper_range() {
        let sim = MarketSim::new(test_config(0.01));
        // July 2014 – April 2019 is ~247 weeks.
        assert!((240..255).contains(&sim.n_weeks()), "weeks={}", sim.n_weeks());
    }

    #[test]
    fn totals_are_consistent() {
        let mut sim = MarketSim::new(test_config(0.01));
        for _ in 0..30 {
            let w = sim.step().unwrap();
            assert_eq!(w.total, w.country_counts.iter().sum::<u64>());
            assert_eq!(w.total, w.protocol_counts.iter().sum::<u64>());
            let joint: u64 = w.country_protocol.iter().flatten().sum();
            assert_eq!(w.total, joint);
            let allocated: u64 = w.booter_attacks.iter().map(|(_, n)| n).sum();
            assert_eq!(w.total, allocated, "booter allocation must conserve attacks");
        }
    }

    #[test]
    fn run_is_deterministic_for_a_seed() {
        let a = MarketSim::new(test_config(0.005)).run();
        let b = MarketSim::new(test_config(0.005)).run();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.total, y.total);
            assert_eq!(x.country_counts, y.country_counts);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut c = test_config(0.005);
        let a = MarketSim::new(c.clone()).run();
        c.seed = 43;
        let b = MarketSim::new(c).run();
        assert!(a.iter().zip(&b).any(|(x, y)| x.total != y.total));
    }

    #[test]
    fn growth_emerges_within_the_window() {
        let out = MarketSim::new(test_config(0.01)).run();
        let avg = |from: Date, to: Date| {
            let vals: Vec<u64> = out
                .iter()
                .filter(|w| w.monday >= from && w.monday < to)
                .map(|w| w.total)
                .collect();
            vals.iter().sum::<u64>() as f64 / vals.len() as f64
        };
        let y2016 = avg(Date::new(2016, 6, 1), Date::new(2016, 10, 1));
        let y2018 = avg(Date::new(2018, 8, 1), Date::new(2018, 12, 1));
        assert!(y2018 > 1.8 * y2016, "2016={y2016} 2018={y2018}");
    }

    #[test]
    fn xmas_shock_drops_totals() {
        // Raw weekly means are confounded by seasonality and the
        // overlapping Mirai window, so contrast the Xmas2018 window with
        // the immediate recovery once the 10-week window lapses.
        let out = MarketSim::new(test_config(0.01)).run();
        let avg = |from: Date, to: Date| {
            let vals: Vec<u64> = out
                .iter()
                .filter(|w| w.monday >= from && w.monday < to)
                .map(|w| w.total)
                .collect();
            vals.iter().sum::<u64>() as f64 / vals.len().max(1) as f64
        };
        let during = avg(Date::new(2018, 12, 24), Date::new(2019, 2, 18));
        let after = avg(Date::new(2019, 2, 25), Date::new(2019, 3, 25));
        assert!(during < 0.80 * after, "during={during} after={after}");
    }

    #[test]
    fn us_is_the_biggest_victim_country() {
        let out = MarketSim::new(test_config(0.01)).run();
        let mut per_country = [0u64; 12];
        for w in &out {
            for (i, &c) in w.country_counts.iter().enumerate() {
                per_country[i] += c;
            }
        }
        let us = per_country[Country::Us.index()];
        for (i, &c) in per_country.iter().enumerate() {
            if i != Country::Us.index() {
                assert!(us >= c, "US beaten by index {i}");
            }
        }
    }

    #[test]
    fn displayed_counters_grow_except_wipes() {
        let mut sim = MarketSim::new(test_config(0.01));
        let mut last: std::collections::HashMap<u32, u64> = std::collections::HashMap::new();
        let mut decreases = 0;
        let mut observations = 0;
        for _ in 0..100 {
            let w = sim.step().unwrap();
            for (id, c) in &w.displayed_counters {
                if let Some(&prev) = last.get(id) {
                    observations += 1;
                    if *c < prev {
                        decreases += 1;
                    }
                }
                last.insert(*id, *c);
            }
        }
        assert!(observations > 1000);
        // Wipes are rare.
        assert!((decreases as f64) < 0.02 * observations as f64, "decreases={decreases}");
    }

    #[test]
    fn scenario_runs_are_deterministic_and_conserve() {
        let mut cfg = test_config(0.005);
        cfg.scenario = crate::scn::builtin_scenarios()
            .into_iter()
            .find(|s| s.name == "xmas2018");
        let a = MarketSim::new(cfg.clone()).run();
        let b = MarketSim::new(cfg).run();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.total, y.total);
            assert_eq!(x.country_counts, y.country_counts);
            let allocated: u64 = x.booter_attacks.iter().map(|(_, n)| n).sum();
            assert_eq!(x.total, allocated);
        }
    }

    #[test]
    fn payment_friction_scenario_suppresses_demand_vs_baseline() {
        let run = |spec: ScenarioSpec| {
            let mut cfg = test_config(0.01);
            cfg.scenario = Some(spec);
            MarketSim::new(cfg).run()
        };
        let baseline = run(ScenarioSpec::baseline());
        let friction = run(
            crate::scn::builtin_scenarios()
                .into_iter()
                .find(|s| s.name == "payment_friction")
                .unwrap(),
        );
        // Same seed, same RNG stream: only the demand delta differs.
        let window = |out: &[WeekOutput]| -> u64 {
            out.iter()
                .filter(|w| {
                    w.monday >= Date::new(2017, 6, 5) && w.monday < Date::new(2017, 12, 4)
                })
                .map(|w| w.total)
                .sum()
        };
        let b = window(&baseline);
        let f = window(&friction);
        assert!(
            (f as f64) < 0.75 * b as f64,
            "friction={f} baseline={b}"
        );
    }

    #[test]
    fn multinomial_conserves_and_distributes() {
        let mut rng = StdRng::seed_from_u64(7);
        let weights = [0.5, 0.3, 0.2];
        let out = sample_multinomial(&mut rng, 100_000, &weights);
        assert_eq!(out.iter().sum::<u64>(), 100_000);
        assert!((out[0] as f64 - 50_000.0).abs() < 1500.0, "{out:?}");
        assert!((out[2] as f64 - 20_000.0).abs() < 1500.0, "{out:?}");
    }

    #[test]
    fn binomial_regimes_are_unbiased() {
        let mut rng = StdRng::seed_from_u64(11);
        // Small-n exact regime.
        let mean_small: f64 =
            (0..2000).map(|_| sample_binomial(&mut rng, 20, 0.3) as f64).sum::<f64>() / 2000.0;
        assert!((mean_small - 6.0).abs() < 0.25, "small={mean_small}");
        // Poisson regime.
        let mean_poisson: f64 = (0..2000)
            .map(|_| sample_binomial(&mut rng, 100_000, 1e-4) as f64)
            .sum::<f64>()
            / 2000.0;
        assert!((mean_poisson - 10.0).abs() < 0.4, "poisson={mean_poisson}");
        // Normal regime.
        let mean_normal: f64 = (0..2000)
            .map(|_| sample_binomial(&mut rng, 10_000, 0.4) as f64)
            .sum::<f64>()
            / 2000.0;
        assert!((mean_normal - 4000.0).abs() < 6.0, "normal={mean_normal}");
    }

    #[test]
    fn booter_market_concentrates_after_xmas() {
        let out = MarketSim::new(test_config(0.01)).run();
        // Top-booter share of total attacks over a multi-week window
        // (single weeks are dominated by the lognormal share noise).
        let top_share = |from: Date, to: Date| {
            let mut per_booter: std::collections::HashMap<u32, u64> = Default::default();
            let mut total = 0u64;
            for w in out.iter().filter(|w| w.monday >= from && w.monday < to) {
                for (id, n) in &w.booter_attacks {
                    *per_booter.entry(*id).or_insert(0) += n;
                    total += n;
                }
            }
            *per_booter.values().max().unwrap_or(&0) as f64 / total.max(1) as f64
        };
        let post = top_share(Date::new(2019, 1, 7), Date::new(2019, 3, 4));
        let pre = top_share(Date::new(2018, 10, 1), Date::new(2018, 12, 10));
        assert!(post > 0.35, "post-Xmas top share = {post}");
        assert!(post > pre, "pre={pre} post={post}");
    }
}
