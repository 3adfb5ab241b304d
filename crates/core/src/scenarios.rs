//! Cross-scenario intervention evaluation: run the full pipeline once
//! per [`ScenarioSpec`] and compare the outcomes.
//!
//! Each scenario replaces the paper's hard-wired intervention history
//! with a composed shock programme (`booters_market::shocks`), simulates
//! the market under it, observes it through the honeypot layer at
//! [`Fidelity::Aggregate`], and refits the §4 interrupted-time-series
//! NB2 models — globally and for the Table 2 countries — against the
//! scenario's own shock windows. A shockless [`ScenarioSpec::baseline`]
//! run anchors the comparisons: every scenario's total attack volume is
//! reported as a delta against it, computed on the *same seed and RNG
//! stream*, so the delta isolates the intervention programme.
//!
//! All renderers emit fixed-precision text, and every quantity upstream
//! is bit-identical across `BOOTERS_THREADS` and kernel selections
//! (DESIGN.md §5b/§5j), so suite outputs are byte-stable goldens —
//! pinned in `tests/scenario_suite.rs` and by `scripts/verify.sh`.

use crate::pipeline::{fit_series, EffectSize, PipelineConfig};
use crate::scenario::{observe_honeypot, Fidelity, ScenarioConfig};
use booters_glm::GlmError;
use booters_market::calibration::Calibration;
use booters_market::market::MarketConfig;
use booters_market::scn::builtin_scenarios;
use booters_market::shocks::ScenarioSpec;
use booters_netsim::Country;
use booters_timeseries::{InterventionWindow, WeeklySeries};
use std::fmt::Write as _;

/// Configuration for one scenario-suite run.
#[derive(Debug, Clone)]
pub struct ScenarioRunConfig {
    /// Market volume multiplier (suite runs use small scales for speed;
    /// the delta-vs-baseline comparisons are scale-free).
    pub scale: f64,
    /// Market RNG seed, shared by every scenario in a suite so deltas
    /// isolate the shock programme.
    pub seed: u64,
    /// Analysis-pipeline configuration (modelling window, NB2 options).
    pub pipeline: PipelineConfig,
}

impl Default for ScenarioRunConfig {
    fn default() -> Self {
        ScenarioRunConfig {
            scale: 0.05,
            seed: 0xB00735,
            pipeline: PipelineConfig::default(),
        }
    }
}

/// Everything the cross-scenario report needs from one scenario run.
#[derive(Debug)]
pub struct ScenarioOutcome {
    /// The shock programme that produced this outcome.
    pub spec: ScenarioSpec,
    /// The analysis windows derived from the spec's demand-side shocks.
    pub windows: Vec<InterventionWindow>,
    /// Honeypot-observed global weekly attacks inside the modelling
    /// window (the sparkline trajectory).
    pub weekly: WeeklySeries,
    /// Total observed attacks over the modelling window.
    pub total_attacks: f64,
    /// Fitted weekly log-trend.
    pub trend: f64,
    /// Fitted NB2 dispersion.
    pub alpha: f64,
    /// Estimated effect per shock window (global model).
    pub effects: Vec<EffectSize>,
    /// Estimated effects per Table 2 country.
    pub country_effects: Vec<(Country, Vec<EffectSize>)>,
}

/// Run the full pipeline under one scenario spec.
pub fn run_scenario(
    spec: &ScenarioSpec,
    cfg: &ScenarioRunConfig,
) -> Result<ScenarioOutcome, GlmError> {
    let mut outcomes = run_specs(&[spec], cfg)?;
    Ok(outcomes.remove(0))
}

/// A baseline run plus one outcome per scenario.
#[derive(Debug)]
pub struct ScenarioSuite {
    /// The shockless counterfactual anchor.
    pub baseline: ScenarioOutcome,
    /// One outcome per evaluated scenario, in input order.
    pub outcomes: Vec<ScenarioOutcome>,
}

/// Run a suite: the baseline plus every given spec, all on the same
/// seed and scale.
pub fn run_suite(
    specs: &[ScenarioSpec],
    cfg: &ScenarioRunConfig,
) -> Result<ScenarioSuite, GlmError> {
    let baseline = ScenarioSpec::baseline();
    let all: Vec<&ScenarioSpec> = std::iter::once(&baseline).chain(specs).collect();
    let mut outcomes = run_specs(&all, cfg)?;
    let baseline = outcomes.remove(0);
    Ok(ScenarioSuite { baseline, outcomes })
}

/// The series one scenario's fits read: the modelling-window global
/// series, then one per Table 2 country.
struct Observed {
    windows: Vec<InterventionWindow>,
    series: Vec<WeeklySeries>,
}

/// What one fit contributes to an outcome.
struct FitSummary {
    trend: f64,
    alpha: f64,
    effects: Vec<EffectSize>,
}

/// Simulate, observe and refit every spec. The specs are independent,
/// so both phases fan out over the booters-par executor:
///
/// 1. one market per scheduling unit, observed through the honeypot-only
///    driver ([`observe_honeypot`]), which keeps just the series the
///    fits read — several markets in flight never hold their ground
///    truth, self-report data or raw weeks;
/// 2. one NB2 fit per scheduling unit (global and per country), so the
///    wait for the slowest unit is one fit, not one scenario.
///
/// Outcomes come back in submission order, and a failure reports the
/// earliest spec's error, never whichever fit failed first on the
/// clock: the outcomes are bit-identical at every thread count
/// (DESIGN.md §5b).
fn run_specs(
    specs: &[&ScenarioSpec],
    cfg: &ScenarioRunConfig,
) -> Result<Vec<ScenarioOutcome>, GlmError> {
    let (from, to) = (cfg.pipeline.window_start, cfg.pipeline.window_end);
    let countries = Calibration::table2_countries();
    let observed = {
        booters_obs::span!("simulate");
        booters_par::par_map_coarse(specs, |spec| {
            let honeypot = observe_honeypot(ScenarioConfig {
                market: MarketConfig {
                    scale: cfg.scale,
                    seed: cfg.seed,
                    scenario: Some((*spec).clone()),
                    ..MarketConfig::default()
                },
                fidelity: Fidelity::Aggregate,
                ..ScenarioConfig::default()
            })
            .expect("Aggregate observation has no fallible backend");
            let series = std::iter::once(&honeypot.global)
                .chain(countries.iter().map(|&c| honeypot.country(c)))
                .map(|s| s.window(from, to).expect("modelling window inside dataset"))
                .collect();
            Observed {
                windows: spec.windows(),
                series,
            }
        })
    };

    let jobs: Vec<(&Observed, &WeeklySeries)> = observed
        .iter()
        .flat_map(|o| o.series.iter().map(move |s| (o, s)))
        .collect();
    let mut fits = booters_par::par_map_coarse(&jobs, |&(o, series)| {
        let m = fit_series(series, &o.windows, &cfg.pipeline)?;
        Ok(FitSummary {
            trend: m.fit.inference.coef("time").map_or(f64::NAN, |c| c.coef),
            alpha: m.fit.alpha,
            effects: m.intervention_effects(),
        })
    })
    .into_iter()
    .collect::<Result<Vec<_>, GlmError>>()?
    .into_iter();

    Ok(specs
        .iter()
        .zip(observed)
        .map(|(spec, o)| {
            let global = fits.next().expect("one fit per series");
            let country_effects = countries
                .iter()
                .map(|&c| (c, fits.next().expect("one fit per series").effects))
                .collect();
            let weekly = o.series.into_iter().next().expect("global series");
            ScenarioOutcome {
                spec: (*spec).clone(),
                windows: o.windows,
                total_attacks: weekly.values().iter().sum(),
                weekly,
                trend: global.trend,
                alpha: global.alpha,
                effects: global.effects,
                country_effects,
            }
        })
        .collect())
}

/// Run the eight built-in scenarios (see `SCENARIOS.md`).
pub fn run_builtin_suite(cfg: &ScenarioRunConfig) -> Result<ScenarioSuite, GlmError> {
    run_suite(&builtin_scenarios(), cfg)
}

impl ScenarioSuite {
    /// Percentage change of a scenario's total volume vs the baseline.
    pub fn delta_vs_baseline_pct(&self, outcome: &ScenarioOutcome) -> f64 {
        100.0 * (outcome.total_attacks / self.baseline.total_attacks - 1.0)
    }

    /// Per-scenario summary table (Table-1-style deltas), as CSV.
    pub fn summary_csv(&self) -> String {
        let mut out = String::from(
            "scenario,shocks,total_attacks,delta_vs_baseline_pct,trend,alpha\n",
        );
        for o in std::iter::once(&self.baseline).chain(&self.outcomes) {
            let _ = writeln!(
                out,
                "{},{},{:.0},{:+.1},{:.4},{:.4}",
                o.spec.name,
                o.spec.shocks.len(),
                o.total_attacks,
                self.delta_vs_baseline_pct(o),
                o.trend,
                o.alpha,
            );
        }
        out
    }

    /// Side-by-side coefficient table (one row per scenario × shock
    /// window), as CSV.
    pub fn coefficients_csv(&self) -> String {
        let mut out = String::from(
            "scenario,window,date,delay_weeks,duration_weeks,coef,mean_pct,lo_pct,hi_pct,p_value\n",
        );
        for o in &self.outcomes {
            for (w, e) in o.windows.iter().zip(&o.effects) {
                let _ = writeln!(
                    out,
                    "{},{},{},{},{},{:.4},{:.1},{:.1},{:.1},{:.4}",
                    o.spec.name,
                    e.name,
                    w.date,
                    w.delay_weeks,
                    w.duration_weeks,
                    e.coef,
                    e.mean_pct,
                    e.lo_pct,
                    e.hi_pct,
                    e.p_value,
                );
            }
        }
        out
    }

    /// Human-readable per-scenario details (titles, citations, shock
    /// lists, per-country significance) for the text report.
    pub fn details_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "baseline: total {:.0} attacks, trend {:.4}/week, alpha {:.4}",
            self.baseline.total_attacks, self.baseline.trend, self.baseline.alpha
        );
        for o in &self.outcomes {
            let _ = writeln!(out);
            let _ = writeln!(out, "== {} — {}", o.spec.name, o.spec.title);
            if let Some(cite) = &o.spec.cite {
                let _ = writeln!(out, "   cite: {cite}");
            }
            let _ = writeln!(
                out,
                "   total {:.0} attacks ({:+.1}% vs baseline), trend {:.4}/week, alpha {:.4}",
                o.total_attacks,
                self.delta_vs_baseline_pct(o),
                o.trend,
                o.alpha
            );
            for shock in &o.spec.shocks {
                let _ = writeln!(
                    out,
                    "   shock {} {}",
                    shock.date,
                    shock.kind.keyword()
                );
            }
            for e in &o.effects {
                let _ = writeln!(
                    out,
                    "   {}: {:+.1}% [{:+.1}%, {:+.1}%] p={:.4}{}",
                    e.name,
                    e.mean_pct,
                    e.lo_pct,
                    e.hi_pct,
                    e.p_value,
                    if e.significant() { " *" } else { "" }
                );
            }
            for (country, effects) in &o.country_effects {
                let sig: Vec<&str> = effects
                    .iter()
                    .filter(|e| e.significant())
                    .map(|e| e.name.as_str())
                    .collect();
                if !sig.is_empty() {
                    let _ = writeln!(
                        out,
                        "   {}: significant in {}",
                        country.label(),
                        sig.join(", ")
                    );
                }
            }
        }
        out
    }

    /// Named weekly trajectories (baseline first) for sparkline figures.
    pub fn trajectories(&self) -> Vec<(String, Vec<f64>)> {
        std::iter::once(&self.baseline)
            .chain(&self.outcomes)
            .map(|o| (o.spec.name.clone(), o.weekly.values().to_vec()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use booters_market::parse_scn;

    fn quick_cfg() -> ScenarioRunConfig {
        ScenarioRunConfig {
            scale: 0.02,
            ..ScenarioRunConfig::default()
        }
    }

    #[test]
    fn single_scenario_pipeline_recovers_the_injected_effect() {
        let spec = parse_scn(
            "scenario big_dip\n\
             title \"Big dip\"\n\
             shock 2018-03-05 demand_shift pct=-50 delay=0 duration=12\n",
        )
        .unwrap();
        let o = run_scenario(&spec, &quick_cfg()).unwrap();
        assert_eq!(o.effects.len(), 1);
        let e = &o.effects[0];
        assert_eq!(e.name, "s1_demand_shift");
        assert!(e.significant(), "p={}", e.p_value);
        assert!(
            e.mean_pct > -65.0 && e.mean_pct < -35.0,
            "mean_pct={}",
            e.mean_pct
        );
        assert_eq!(o.country_effects.len(), 7);
    }

    #[test]
    fn suite_deltas_and_renderers_are_consistent() {
        let spec = parse_scn(
            "scenario dip\n\
             title \"Dip\"\n\
             shock 2018-03-05 demand_shift pct=-40 delay=0 duration=10\n",
        )
        .unwrap();
        let suite = run_suite(std::slice::from_ref(&spec), &quick_cfg()).unwrap();
        let delta = suite.delta_vs_baseline_pct(&suite.outcomes[0]);
        assert!(delta < 0.0, "an attack dip must lower the total: {delta}");
        let summary = suite.summary_csv();
        assert!(summary.starts_with("scenario,"));
        assert_eq!(summary.lines().count(), 3); // header + baseline + dip
        assert!(summary.contains("\nbaseline,0,"));
        assert!(summary.contains("\ndip,1,"));
        let coefs = suite.coefficients_csv();
        assert!(coefs.contains("dip,s1_demand_shift,2018-03-05,0,10,"));
        let details = suite.details_text();
        assert!(details.contains("== dip — Dip"));
        let traj = suite.trajectories();
        assert_eq!(traj.len(), 2);
        assert_eq!(traj[0].0, "baseline");
        assert_eq!(traj[0].1.len(), suite.baseline.weekly.len());
    }

    #[test]
    fn suite_renderers_are_deterministic() {
        let spec = parse_scn(
            "scenario dip\n\
             title \"Dip\"\n\
             shock 2018-03-05 demand_shift pct=-40 delay=0 duration=10\n",
        )
        .unwrap();
        let a = run_suite(std::slice::from_ref(&spec), &quick_cfg()).unwrap();
        let b = run_suite(std::slice::from_ref(&spec), &quick_cfg()).unwrap();
        assert_eq!(a.summary_csv(), b.summary_csv());
        assert_eq!(a.coefficients_csv(), b.coefficients_csv());
        assert_eq!(a.details_text(), b.details_text());
    }
}
