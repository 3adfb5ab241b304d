//! The artifact registry: every file the paper reproduction writes under
//! `out/`, each rendered by exactly one function.
//!
//! A renderer reads one shared [`RunContext`]: the simulated scenario,
//! the calibration, the pipeline configuration and the global Table 1
//! fit, which is made on first use and at most once per context. Render
//! one artifact or all of them, and the bytes of each are the same.

use crate::ablation::{kopp_style_short_window, poisson_vs_negbin, with_without_easter};
use crate::detect::{detect_interventions, match_events, DetectOptions};
use crate::pipeline::{
    fit_countries, fit_global, global_intervention_windows, scan_duration, window_of,
    GlobalModelResult, PipelineConfig, PipelineError,
};
use crate::report::{
    country_detail_text, fig1_csv, fig2_csv, fig3_csv, fig4_table, fig5_csv, fig6_csv, fig7_csv,
    fig8_csv, protocol_mix_table, table1, table2, table3,
};
use crate::runreport::Artifact;
use crate::scenario::Scenario;
use crate::verify::{cross_dataset_correlation, render_validation, validate_top_booters};
use booters_glm::inference::CovarianceKind;
use booters_market::calibration::Calibration;
use booters_market::commands::commands_for_week;
use booters_market::concentration::ConcentrationSeries;
use booters_market::market::{MarketConfig, MarketSim};
use booters_netsim::coverage::CoverageReport;
use booters_netsim::{Country, Engine, EngineConfig, UdpProtocol};
use booters_testkit::rngs::StdRng;
use booters_testkit::SeedableRng;
use booters_timeseries::Date;
use std::cell::OnceCell;
use std::fmt::Write as _;

/// What every renderer reads: one simulated run and its analysis setup.
pub struct RunContext<'a> {
    /// The simulated run the artifacts describe.
    pub scenario: &'a Scenario,
    /// The market scale the scenario was simulated at.
    pub scale: f64,
    /// The paper's calibration.
    pub cal: Calibration,
    /// The paper's pipeline configuration.
    pub cfg: PipelineConfig,
    global: OnceCell<GlobalModelResult>,
}

impl<'a> RunContext<'a> {
    /// The paper's calibration and pipeline over `scenario`, simulated at
    /// `scale`.
    pub fn new(scenario: &'a Scenario, scale: f64) -> RunContext<'a> {
        RunContext {
            scenario,
            scale,
            cal: Calibration::default(),
            cfg: PipelineConfig::default(),
            global: OnceCell::new(),
        }
    }

    /// The global Table 1 fit, fitted on the first call only.
    fn global_fit(&self) -> Result<&GlobalModelResult, PipelineError> {
        if let Some(fit) = self.global.get() {
            return Ok(fit);
        }
        let fit = fit_global(&self.scenario.honeypot, &self.cal, &self.cfg)?;
        Ok(self.global.get_or_init(|| fit))
    }

    /// Weeks of the self-report series up to the end of the data (Fig. 7).
    fn selfreport_weeks(&self) -> usize {
        let sr = &self.scenario.selfreport;
        (Date::new(2019, 4, 1).week_start().days_since(sr.start) / 7) as usize
    }
}

/// One registry entry.
pub struct ArtifactSpec {
    /// Short name on the command line (`table1`, `fig4`, …).
    pub key: &'static str,
    /// File name under `out/`.
    pub file: &'static str,
    /// Short human caption.
    pub caption: &'static str,
    /// The one function that renders the file.
    pub render: Renderer,
}

/// Renderer signature shared by every registry entry.
pub type Renderer = fn(&RunContext<'_>) -> Result<String, PipelineError>;

const fn spec(key: &'static str, file: &'static str, caption: &'static str, render: Renderer) -> ArtifactSpec {
    ArtifactSpec { key, file, caption, render }
}

/// Every paper artifact, in the order `all` writes them.
pub static REGISTRY: &[ArtifactSpec] = &[
    spec("table1", "table1.txt", "global NB2 intervention model", |c| Ok(table1(c.global_fit()?))),
    spec("table2", "table2.txt", "per-country intervention models", |c| {
        table2(&c.scenario.honeypot, &c.cal, &c.cfg)
    }),
    spec("table3", "table3.txt", "share of attacks by victim country", |c| Ok(table3(&c.scenario.honeypot))),
    spec("fig1", "fig1_timeline.csv", "weekly attacks, global", |c| Ok(fig1_csv(&c.scenario.honeypot))),
    spec("fig2", "fig2_model_fit.csv", "observed vs fitted", |c| Ok(fig2_csv(c.global_fit()?))),
    spec("fig3", "fig3_by_country.csv", "weekly attacks by country", |c| Ok(fig3_csv(&c.scenario.honeypot))),
    spec("fig4", "fig4_correlation.txt", "country cross-correlation", |c| {
        Ok(fig4_table(&c.scenario.honeypot, c.cfg.window_start, c.cfg.window_end).render())
    }),
    spec("fig5", "fig5_us_uk_index.csv", "US/UK indexed attack rates", |c| Ok(fig5_csv(&c.scenario.honeypot).0)),
    spec("fig6", "fig6_by_protocol.csv", "weekly attacks by protocol", |c| Ok(fig6_csv(&c.scenario.honeypot))),
    spec("fig7", "fig7_selfreport.csv", "self-reported attacks", |c| {
        Ok(fig7_csv(&c.scenario.selfreport, c.selfreport_weeks()))
    }),
    spec("fig8", "fig8_lifecycle.csv", "booter lifecycle", |c| Ok(fig8_csv(&c.scenario.selfreport))),
    spec("validation", "validation.txt", "self-report validation suite", validation),
    spec("detection", "detection.txt", "automated intervention discovery", detection),
    spec("ablation", "ablation.txt", "modelling ablations", ablation),
    spec("duration_scan", "duration_scan.txt", "profile-likelihood window durations", duration_scan),
    spec("country_models", "country_models.txt", "per-country model detail", country_models),
    spec("coverage", "coverage.txt", "honeypot coverage by protocol", coverage),
    spec("summary", "summary.txt", "headline numbers behind the figures", summary),
];

/// The entry whose key or file name is `name`.
pub fn lookup(name: &str) -> Result<&'static ArtifactSpec, PipelineError> {
    REGISTRY
        .iter()
        .find(|a| a.key == name || a.file == name)
        .ok_or_else(|| PipelineError::Argument(format!("unknown artifact `{name}`")))
}

/// Render `specs` in order (pass [`REGISTRY`] for every artifact).
pub fn render<'s>(
    ctx: &RunContext<'_>,
    specs: impl IntoIterator<Item = &'s ArtifactSpec>,
) -> Result<Vec<Artifact>, PipelineError> {
    specs
        .into_iter()
        .map(|spec| {
            Ok(Artifact {
                name: spec.file.to_string(),
                caption: spec.caption.to_string(),
                body: (spec.render)(ctx)?,
            })
        })
        .collect()
}

fn validation(c: &RunContext<'_>) -> Result<String, PipelineError> {
    let sr = &c.scenario.selfreport;
    let corr = cross_dataset_correlation(&c.scenario.honeypot, sr);
    Ok(render_validation(&validate_top_booters(sr, 10), corr))
}

fn detection(c: &RunContext<'_>) -> Result<String, PipelineError> {
    let series = window_of(&c.scenario.honeypot.global, "global", c.cfg.window_start, c.cfg.window_end)?;
    let mut found = detect_interventions(&series, &c.cfg, &DetectOptions::default())?;
    match_events(&mut found, 3);
    let mut out = String::from("detected drop windows (deepest first):\n");
    for d in &found {
        let event = d.matched_event.as_deref().unwrap_or("(no matching event)");
        let _ = writeln!(
            out,
            "  {}  {:>2} weeks  coef {:+.3}  p={:.2e}  -> {event}",
            d.start, d.duration_weeks, d.coef, d.p_value
        );
    }
    let matched = found.iter().filter(|d| d.matched_event.is_some()).count();
    let _ = writeln!(
        out,
        "\n{matched}/{} detected windows match a real §2 event within 3 weeks",
        found.len()
    );
    Ok(out)
}

fn ablation(c: &RunContext<'_>) -> Result<String, PipelineError> {
    let ds = &c.scenario.honeypot;
    let short = kopp_style_short_window(ds, &c.cal, &c.cfg)?;
    let disp = poisson_vs_negbin(ds, &c.cal, &c.cfg)?;
    let easter = with_without_easter(ds, &c.cal, &c.cfg)?;
    Ok(format!(
        "1. Kopp-style short window (no seasonality, Oct 2018 - Jan 2019):\n\
         \x20  full seasonal model Xmas2018 effect: {:+.1}%\n\
         \x20  short-window effect:                 {:+.1}%\n\
         \x20  short design understates the drop:   {}\n\
         \x20  (paper §5: Kopp et al. 'found it to be smaller, possibly because\n\
         \x20   they only model ... Oct 2018 to Jan 2019, thereby ignoring\n\
         \x20   seasonal effects')\n\n\
         2. Poisson vs negative binomial on the Xmas2018 coefficient:\n\
         \x20  NB2 alpha = {:.4}\n\
         \x20  SE(Poisson) = {:.4}   SE(NB2) = {:.4}   (ratio {:.1}x)\n\
         \x20  AIC(Poisson) = {:.0}   AIC(NB2) = {:.0}\n\
         \x20  (Poisson's tiny SEs are fantasy under overdispersion; NB2 pays one\n\
         \x20   parameter and wins AIC decisively — the paper's §4 model choice)\n\n\
         3. Easter component:\n\
         \x20  log-likelihood with Easter    = {:.2}\n\
         \x20  log-likelihood without Easter = {:.2}\n\
         \x20  (the paper's Easter coefficient is small and non-significant\n\
         \x20   (-0.016, p=0.86); the component exists because school holidays\n\
         \x20   move with Easter, not because it buys much fit)\n",
        short.full_model_pct,
        short.short_window_pct,
        short.short_window_understates(),
        disp.alpha,
        disp.poisson_se,
        disp.negbin_se,
        disp.negbin_se / disp.poisson_se,
        disp.poisson_aic,
        disp.negbin_aic,
        easter.with_easter_ll,
        easter.without_easter_ll
    ))
}

fn duration_scan(c: &RunContext<'_>) -> Result<String, PipelineError> {
    let series = window_of(&c.scenario.honeypot.global, "global", c.cfg.window_start, c.cfg.window_end)?;
    let windows = global_intervention_windows(&c.cal);
    let candidates: Vec<usize> = (1..=18).collect();
    let mut out = String::from("profile-likelihood duration scan (paper duration in brackets):\n");
    for (i, w) in windows.iter().enumerate() {
        let (best, ll) = scan_duration(&series, &windows, i, &candidates, &c.cfg)?;
        let _ = writeln!(
            out,
            "  {:<38} scanned {:>2} weeks  [paper: {:>2}]  loglik {:.2}",
            w.name, best, w.duration_weeks, ll
        );
    }
    Ok(out)
}

fn country_models(c: &RunContext<'_>) -> Result<String, PipelineError> {
    let fits = fit_countries(&c.scenario.honeypot, &c.cal, &Calibration::table2_countries(), &c.cfg)?;
    Ok(fits
        .iter()
        .map(|f| format!("{}\n----------------------------------------\n\n", country_detail_text(f)))
        .collect())
}

/// Footnote 1's per-protocol coverage, measured on 26 weeks of commands
/// from a separate market at most at scale 0.05 (command expansion is per
/// attack).
fn coverage(c: &RunContext<'_>) -> Result<String, PipelineError> {
    let mut sim = MarketSim::new(MarketConfig {
        scale: c.scale.min(0.05),
        seed: 7,
        ..MarketConfig::default()
    });
    let mut engine = Engine::new(EngineConfig::default());
    let mut rng = StdRng::seed_from_u64(3);
    let mut commands = Vec::new();
    for _ in 0..26 {
        if let Some(out) = sim.step() {
            commands.extend(commands_for_week(&out, sim.population().booters(), &mut rng, 2_000));
        }
    }
    Ok(CoverageReport::from_commands(&mut engine, &commands).render())
}

/// The numbers behind the figures that no other artifact carries.
fn summary(c: &RunContext<'_>) -> Result<String, PipelineError> {
    let ds = &c.scenario.honeypot;
    let sr = &c.scenario.selfreport;
    let fit = c.global_fit()?;
    let mut out = format!(
        "scenario coverage: {:.1}% of commanded attacks observed over {} weeks\n",
        100.0 * ds.global.total() / c.scenario.ground_truth.global.total(),
        ds.global.len()
    );

    // The paper fits "for optimum log-pseudolikelihood" (Stata's robust
    // covariance): HC1 sandwich SEs next to the model-based ones.
    let mut robust_cfg = c.cfg.clone();
    robust_cfg.covariance = CovarianceKind::RobustHc1;
    let robust = fit_global(ds, &c.cal, &robust_cfg)?;
    out.push_str("\nTable 1 intervention SEs: model-based vs HC1 sandwich\n");
    for e in fit.intervention_effects() {
        let se = |f: &GlobalModelResult| f.fit.inference.coef(&e.name).map_or(f64::NAN, |c| c.std_error);
        let _ = writeln!(out, "  {:<38} {:.4}  vs  {:.4}", e.name, se(fit), se(&robust));
    }

    let observed = fit.series.values();
    let fitted = fit.fitted();
    let mape = observed
        .iter()
        .zip(&fitted)
        .filter(|(o, _)| **o > 0.0)
        .map(|(o, f)| ((o - f) / o).abs())
        .sum::<f64>()
        / observed.len() as f64;
    let _ = writeln!(out, "\nFigure 2: {} weeks, MAPE {:.1}%", observed.len(), 100.0 * mape);
    for e in fit.intervention_effects() {
        let _ = writeln!(
            out,
            "  {:<38} {:>6.1}% over {:>2} weeks (p={:.4})  ~{:.0} attacks averted",
            e.name,
            e.mean_pct,
            e.duration_weeks,
            e.p_value,
            fit.attacks_averted(&e.name).unwrap_or(f64::NAN)
        );
    }

    out.push_str("\nFigure 3: total attacks by victim country\n");
    let mut rows: Vec<(&str, f64)> =
        Country::ALL.iter().map(|&k| (k.label(), ds.country(k).total())).collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    let total: f64 = rows.iter().map(|(_, v)| v).sum();
    for (label, v) in rows {
        let _ = writeln!(out, "  {label:<4} {v:>12.0}  ({:.1}%)", 100.0 * v / total);
    }

    let corr = fig4_table(ds, c.cfg.window_start, c.cfg.window_end);
    out.push_str("\nFigure 4: mean |corr| per country\n");
    for label in ["UK", "US", "CN", "RU", "FR", "DE", "PL", "NL"] {
        let mean = corr.mean_abs_correlation(label).unwrap_or(f64::NAN);
        let _ = writeln!(out, "  {label:<4} {mean:.2}");
    }

    let s = fig5_csv(ds).1;
    let _ = write!(
        out,
        "\nFigure 5: OLS slopes (index units/week)\n\
         \x20 2017:       US {:+.2}   UK {:+.2}\n\
         \x20 NCA window: US {:+.2}   UK {:+.2}\n\
         \x20 UK/US ratio {:.3} -> {:.3} ({:.0}% relative UK decline over the campaign)\n",
        s.us_2017,
        s.uk_2017,
        s.us_nca,
        s.uk_nca,
        s.uk_us_ratio_start,
        s.uk_us_ratio_end,
        100.0 * s.uk_relative_decline()
    );

    let eras = [
        ("2014 H2", Date::new(2014, 7, 7), Date::new(2015, 1, 5)),
        ("2016 H2", Date::new(2016, 7, 4), Date::new(2017, 1, 2)),
        ("2018 H2", Date::new(2018, 7, 2), Date::new(2019, 1, 7)),
    ];
    let _ = write!(out, "\nFigure 6: protocol shares by era\n{:<9}", "protocol");
    for (label, _, _) in &eras {
        let _ = write!(out, "{label:>10}");
    }
    out.push('\n');
    let era_total =
        |s: &booters_timeseries::WeeklySeries, from, to| s.window(from, to).map_or(f64::NAN, |w| w.total());
    for p in UdpProtocol::ALL {
        let _ = write!(out, "{:<9}", p.label());
        for &(_, from, to) in &eras {
            let share = era_total(ds.protocol(p), from, to) / era_total(&ds.global, from, to);
            let _ = write!(out, "{:>9.1}%", 100.0 * share);
        }
        out.push('\n');
    }
    let mix = protocol_mix_table(
        ds,
        &[Country::Us, Country::Cn, Country::Uk],
        Date::new(2016, 6, 6),
        Date::new(2017, 1, 2),
    );
    let _ = write!(out, "\n2016 H2 mixes (pre-LDAP era):\n{mix}");

    let week_of = |d: Date| (d.week_start().days_since(sr.start) / 7) as usize;
    let share = |from, to| 100.0 * sr.top_share(week_of(from), week_of(to)).unwrap_or(f64::NAN);
    let conc = ConcentrationSeries::from_weeks(&c.scenario.weeks);
    let xmas = c
        .scenario
        .weeks
        .iter()
        .find(|w| w.monday >= Date::new(2018, 12, 17))
        .map_or(0, |w| w.week);
    let before = conc.mean_hhi(xmas.saturating_sub(12), xmas);
    let after = conc.mean_hhi(xmas + 2, xmas + 12);
    let _ = write!(
        out,
        "\nFigure 7: top-booter share {:.0}% (Sep-Dec 2018) -> {:.0}% (Jan-Mar 2019)\n\
         \x20 market HHI {before:.3} before Xmas2018 -> {after:.3} after \
         (effective competitors {:.1} -> {:.1})\n",
        share(Date::new(2018, 9, 3), Date::new(2018, 12, 10)),
        share(Date::new(2019, 1, 7), Date::new(2019, 3, 25)),
        1.0 / before,
        1.0 / after
    );

    out.push_str("\nFigure 8: weeks with >= 4 booter deaths\n");
    for i in (0..sr.deaths.len()).filter(|&i| sr.deaths.get(i) >= 4.0) {
        let _ = writeln!(
            out,
            "  {}  deaths={} resurrections={} births={}",
            sr.deaths.week_date(i),
            sr.deaths.get(i),
            sr.resurrections.get(i),
            sr.births.get(i)
        );
    }
    Ok(out)
}

