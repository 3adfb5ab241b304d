//! Renderers for the paper's tables and figure data series.
//!
//! The `table*` functions render text tables: [`table1`] and [`table3`]
//! return the table directly, while [`table2`] refits per-country models
//! and so returns `Result<String, PipelineError>`. The `fig*` functions
//! produce the data series the corresponding figure plots, so a plotting
//! tool (or the `repro` binary) can regenerate it — most return a
//! CSV `String`, with three exceptions: [`fig4_table`] returns a
//! [`CorrelationTable`] (render with its `render()` method),
//! [`fig5_csv`] returns the CSV alongside the fitted [`Fig5Slopes`],
//! and per-country model text comes from [`country_model_detail`].

use crate::datasets::{HoneypotDataset, SelfReportDataset};
use crate::pipeline::{
    fit_countries, fit_country, fit_global, CountryResult, EffectSize, GlobalModelResult,
    PipelineConfig, PipelineError,
};
use booters_glm::summary::{negbin_summary, push_fixed, push_left, push_whole};
use booters_market::calibration::Calibration;
use booters_market::events;
use booters_netsim::{Country, UdpProtocol};
use booters_timeseries::correlate::{correlate_series, CorrelationTable};
use booters_timeseries::index::{linear_slope, rebase};
use booters_timeseries::Date;
use std::fmt::Write as _;

/// Table 1: the global NB regression summary.
pub fn table1(result: &GlobalModelResult) -> String {
    let mut out = String::from("Table 1: negative binomial regression of weekly attacks\n\n");
    out.push_str(&negbin_summary(&result.fit));
    out
}

/// Table 2: per-country effect sizes of the significant interventions.
///
/// One row block per intervention; columns UK US RU FR DE PL NL Overall,
/// with mean %, 95% CI, duration and significance.
pub fn table2(
    ds: &HoneypotDataset,
    cal: &Calibration,
    cfg: &PipelineConfig,
) -> Result<String, PipelineError> {
    let countries = Calibration::table2_countries();
    let fits = fit_countries(ds, cal, &countries, cfg)?;
    let overall = fit_global(ds, cal, cfg)?;

    // Each model's effects once, Table 2 columns then Overall.
    let effects: Vec<Vec<EffectSize>> = fits
        .iter()
        .map(|f| &f.model)
        .chain([&overall])
        .map(GlobalModelResult::intervention_effects)
        .collect();

    let mut out = String::from("Table 2: intervention effects by country of victim\n\n");
    let _ = write!(out, "{:<26}", "Intervention");
    for c in &countries {
        let _ = write!(out, "{:>16}", c.label());
    }
    let _ = writeln!(out, "{:>16}", "Overall");

    for ic in &cal.interventions {
        let ev = events::event(ic.id);
        // Means row.
        let _ = write!(out, "{:<26}", ev.name.chars().take(25).collect::<String>());
        let mut cis = format!("{:<26}", "  L95/U95");
        let mut durs = format!("{:<26}", "  Duration");
        let mut sigs = format!("{:<26}", "  Signif.");
        for model_effects in &effects {
            let eff = model_effects
                .iter()
                .find(|e| e.name == ev.name)
                .ok_or_else(|| {
                    PipelineError::Argument(format!("a Table 2 model has no `{}` term", ev.name))
                })?;
            push_fixed(&mut out, eff.mean_pct, 15, 0);
            out.push('%');
            push_fixed(&mut cis, eff.lo_pct, 8, 0);
            cis.push('/');
            let hi_start = cis.len();
            push_fixed(&mut cis, eff.hi_pct, 0, 0);
            for _ in cis.len() - hi_start..6 {
                cis.push(' ');
            }
            cis.push('%');
            if eff.significant() {
                let _ = write!(durs, "{:>14}wk", eff.duration_weeks);
            } else {
                let _ = write!(durs, "{:>16}", "N/A");
            }
            let stars = if eff.p_value < 0.01 {
                "**"
            } else if eff.p_value < 0.05 {
                "*"
            } else {
                ""
            };
            push_fixed(&mut sigs, eff.p_value, 14, 3);
            let _ = write!(sigs, "{stars:<2}");
        }
        out.push('\n');
        out.push_str(&cis);
        out.push('\n');
        out.push_str(&durs);
        out.push('\n');
        out.push_str(&sigs);
        out.push_str("\n\n");
    }
    Ok(out)
}

/// Full per-country model parameters — the detail §4.1 says the paper
/// omits "for reasons of space": one complete coefficient table per
/// country, with diagnostics.
pub fn country_model_detail(
    ds: &HoneypotDataset,
    cal: &Calibration,
    country: Country,
    cfg: &PipelineConfig,
) -> Result<String, PipelineError> {
    Ok(country_detail_text(&fit_country(ds, cal, country, cfg)?))
}

/// The [`country_model_detail`] text of an already fitted country model.
pub(crate) fn country_detail_text(result: &CountryResult) -> String {
    let d = result.model.diagnostics();
    let mut out = format!(
        "Per-country model: {} (victim country)\n\n",
        result.country.label()
    );
    out.push_str(&negbin_summary(&result.model.fit));
    out.push_str("\ndiagnostics: AIC ");
    push_fixed(&mut out, d.aic, 0, 0);
    out.push_str("  BIC ");
    push_fixed(&mut out, d.bic, 0, 0);
    out.push_str("  Ljung-Box(10) p=");
    push_fixed(&mut out, d.ljung_box_p, 0, 3);
    let _ = writeln!(
        out,
        "  joint-interventions p={:.2e}",
        d.interventions_joint_p
    );
    out
}

/// Table 3: share of attacks by country of victim at February snapshots.
pub fn table3(ds: &HoneypotDataset) -> String {
    let countries = [
        Country::Us,
        Country::Fr,
        Country::De,
        Country::Cn,
        Country::Uk,
        Country::Pl,
        Country::Ru,
        Country::Nl,
    ];
    let snapshots = [
        ("Feb-15", Date::new(2015, 2, 2), Date::new(2015, 3, 2)),
        ("Feb-16", Date::new(2016, 2, 1), Date::new(2016, 2, 29)),
        ("Feb-17", Date::new(2017, 2, 6), Date::new(2017, 3, 6)),
        ("Feb-18", Date::new(2018, 2, 5), Date::new(2018, 3, 5)),
        ("Feb-19", Date::new(2019, 2, 4), Date::new(2019, 3, 4)),
    ];
    let mut out = String::from("Table 3: share of attacks by country of victim over time\n\n");
    push_left(&mut out, "", 6);
    for (label, _, _) in &snapshots {
        let _ = write!(out, "{label:>9}");
    }
    out.push('\n');
    let mut totals = vec![0.0; snapshots.len()];
    for c in countries {
        push_left(&mut out, c.label(), 6);
        for (i, (_, from, to)) in snapshots.iter().enumerate() {
            let share = ds.country_share(c, *from, *to).unwrap_or(f64::NAN);
            totals[i] += share;
            push_fixed(&mut out, share * 100.0, 8, 0);
            out.push('%');
        }
        out.push('\n');
    }
    push_left(&mut out, "Total", 6);
    for t in totals {
        push_fixed(&mut out, t * 100.0, 8, 0);
        out.push('%');
    }
    out.push('\n');
    out
}

/// Figure 1 CSV: weekly global attacks with event markers.
pub fn fig1_csv(ds: &HoneypotDataset) -> String {
    let mut out = String::from("week,attacks,event\n");
    let markers: Vec<(Date, &str)> = events::timeline()
        .iter()
        .map(|e| (e.date.week_start(), e.name))
        .collect();
    for (date, v) in ds.global.iter() {
        let label = markers
            .iter()
            .find(|(d, _)| *d == date)
            .map(|(_, n)| *n)
            .unwrap_or("");
        date.push_iso(&mut out);
        out.push(',');
        push_fixed(&mut out, v, 0, 0);
        out.push(',');
        out.push_str(label);
        out.push('\n');
    }
    out
}

/// Figure 2 CSV: observed attacks, model fit, and intervention indicator
/// over the modelling window.
pub fn fig2_csv(result: &GlobalModelResult) -> String {
    let fitted = result.fitted();
    let dummies: Vec<Vec<f64>> = result
        .windows
        .iter()
        .map(|w| w.dummy_column(&result.series))
        .collect();
    let mut out = String::from("week,observed,fitted,intervention_active\n");
    for (i, (date, v)) in result.series.iter().enumerate() {
        let active = dummies.iter().any(|d| d[i] == 1.0);
        date.push_iso(&mut out);
        out.push(',');
        push_fixed(&mut out, v, 0, 0);
        out.push(',');
        push_fixed(&mut out, fitted[i], 0, 0);
        out.push_str(if active { ",1\n" } else { ",0\n" });
    }
    out
}

/// Figure 3 CSV: weekly attacks by victim country (top 8 of the paper).
pub fn fig3_csv(ds: &HoneypotDataset) -> String {
    let countries = [
        Country::Uk,
        Country::Us,
        Country::Fr,
        Country::De,
        Country::Au,
        Country::Cn,
        Country::Ca,
        Country::Sa,
    ];
    let mut out = String::from("week");
    for c in countries {
        out.push(',');
        out.push_str(c.label());
    }
    out.push('\n');
    let columns = countries.map(|c| ds.country(c).values());
    for (i, (date, _)) in ds.global.iter().enumerate() {
        date.push_iso(&mut out);
        for column in &columns {
            out.push(',');
            push_fixed(&mut out, column[i], 0, 0);
        }
        out.push('\n');
    }
    out
}

/// Figure 4: correlation matrix between country series over the window.
pub fn fig4_table(ds: &HoneypotDataset, from: Date, to: Date) -> CorrelationTable {
    let countries = [
        Country::Uk,
        Country::Us,
        Country::Cn,
        Country::Ru,
        Country::Fr,
        Country::De,
        Country::Pl,
        Country::Nl,
    ];
    let windows: Vec<(Country, booters_timeseries::WeeklySeries)> = countries
        .iter()
        .map(|&c| (c, ds.country(c).window(from, to).expect("window in range")))
        .collect();
    let labelled: Vec<(String, &booters_timeseries::WeeklySeries)> = windows
        .iter()
        .map(|(c, s)| (c.label().to_string(), s))
        .collect();
    correlate_series(&labelled)
}

/// Figure 5 CSV plus the quoted slopes: US and UK indexed to 100 at June
/// 2016, with the NCA campaign window flagged.
pub fn fig5_csv(ds: &HoneypotDataset) -> (String, Fig5Slopes) {
    let origin = Date::new(2016, 6, 6);
    let uk = rebase(ds.country(Country::Uk), origin, 100.0, 4).expect("uk rebase");
    let us = rebase(ds.country(Country::Us), origin, 100.0, 4).expect("us rebase");
    let nca = events::event(events::EventId::NcaAds);
    let nca_end = nca.end_date.expect("campaign end");
    let mut out = String::from("week,us_index,uk_index,nca_active\n");
    for i in 0..uk.len() {
        let date = uk.week_date(i);
        let active = date >= nca.date.week_start() && date < nca_end;
        date.push_iso(&mut out);
        out.push(',');
        push_fixed(&mut out, us.get(i), 0, 1);
        out.push(',');
        push_fixed(&mut out, uk.get(i), 0, 1);
        out.push_str(if active { ",1\n" } else { ",0\n" });
    }
    // UK/US index ratio drift over the campaign: the seasonally robust
    // form of the paper's slope contrast (seasonals and most intervention
    // windows hit both series alike and cancel in the ratio).
    let ratio_at = |d: Date| -> f64 {
        match (uk.index_of(d), us.index_of(d)) {
            (Some(i), Some(j)) => {
                // 8-week mean to damp the NB noise.
                let k = 8.min(uk.len() - i).min(us.len() - j);
                let u: f64 = (0..k).map(|t| uk.get(i + t)).sum::<f64>() / k as f64;
                let v: f64 = (0..k).map(|t| us.get(j + t)).sum::<f64>() / k as f64;
                u / v.max(1e-9)
            }
            _ => f64::NAN,
        }
    };
    let slopes = Fig5Slopes {
        us_2017: linear_slope(&us, Date::new(2017, 1, 2), Date::new(2017, 12, 25)).unwrap_or(f64::NAN),
        uk_2017: linear_slope(&uk, Date::new(2017, 1, 2), Date::new(2017, 12, 25)).unwrap_or(f64::NAN),
        us_nca: linear_slope(&us, nca.date.week_start(), nca_end).unwrap_or(f64::NAN),
        uk_nca: linear_slope(&uk, nca.date.week_start(), nca_end).unwrap_or(f64::NAN),
        // Baseline: the eight weeks ending just before the vDOS sentencing
        // window (UK-affected, US-unaffected), which opens right at the
        // campaign start and would contaminate a ratio measured there.
        uk_us_ratio_start: ratio_at(nca.date.week_start().add_days(-70)),
        // End: eight weeks from mid-June — clear of the Webstresser window
        // (which depresses the US, not the UK) and still inside the UK's
        // flat-trend period (growth resumes in August).
        uk_us_ratio_end: ratio_at(nca_end.week_start().add_days(-14)),
    };
    (out, slopes)
}

/// The slope statistics §4.1 quotes for Figure 5 (index units per week),
/// plus the seasonally robust UK/US ratio contrast.
#[derive(Debug, Clone, Copy)]
pub struct Fig5Slopes {
    /// US slope Jan–Dec 2017 (paper: 5.3).
    pub us_2017: f64,
    /// UK slope Jan–Dec 2017 (paper: 3.2).
    pub uk_2017: f64,
    /// US slope during the NCA window (paper: 6.8). In our reproduction
    /// the raw slope is seasonally confounded; the ratio fields carry the
    /// robust signal.
    pub us_nca: f64,
    /// UK slope during the NCA window (paper: −0.1).
    pub uk_nca: f64,
    /// UK/US index ratio at the campaign start.
    pub uk_us_ratio_start: f64,
    /// UK/US index ratio at the campaign end: lower than at the start when
    /// the UK flattened while the US kept growing.
    pub uk_us_ratio_end: f64,
}

impl Fig5Slopes {
    /// Relative decline of the UK against the US over the campaign.
    pub fn uk_relative_decline(&self) -> f64 {
        1.0 - self.uk_us_ratio_end / self.uk_us_ratio_start
    }
}

/// Figure 6 CSV: weekly attacks by protocol.
pub fn fig6_csv(ds: &HoneypotDataset) -> String {
    let mut out = String::from("week");
    for p in UdpProtocol::ALL {
        out.push(',');
        out.push_str(p.label());
    }
    out.push('\n');
    let columns = UdpProtocol::ALL.map(|p| ds.protocol(p).values());
    for (i, (date, _)) in ds.global.iter().enumerate() {
        date.push_iso(&mut out);
        for column in &columns {
            out.push(',');
            push_fixed(&mut out, column[i], 0, 0);
        }
        out.push('\n');
    }
    out
}

/// §4.2 per-country protocol-mix table: protocol shares of attacks on
/// each country over `[from, to)`, plus the effective number of protocols
/// (inverse Herfindahl of the mix) — China's "much smaller range of
/// protocols" shows up as a low effective count.
pub fn protocol_mix_table(
    ds: &HoneypotDataset,
    countries: &[Country],
    from: Date,
    to: Date,
) -> String {
    let mut out = String::from("protocol shares by victim country\n\n");
    out.push_str(&format!("{:<9}", "protocol"));
    for c in countries {
        out.push_str(&format!("{:>8}", c.label()));
    }
    out.push('\n');
    let mixes: Vec<Option<[f64; 10]>> = countries
        .iter()
        .map(|&c| ds.protocol_mix(c, from, to))
        .collect();
    for p in UdpProtocol::ALL {
        out.push_str(&format!("{:<9}", p.label()));
        for m in &mixes {
            match m {
                Some(mix) => out.push_str(&format!("{:>7.1}%", 100.0 * mix[p.index()])),
                None => out.push_str(&format!("{:>8}", "n/a")),
            }
        }
        out.push('\n');
    }
    out.push_str(&format!("{:<9}", "eff.#"));
    for m in &mixes {
        match m {
            Some(mix) => {
                let hhi: f64 = mix.iter().map(|s| s * s).sum();
                out.push_str(&format!("{:>8.1}", 1.0 / hhi.max(1e-12)));
            }
            None => out.push_str(&format!("{:>8}", "n/a")),
        }
    }
    out.push('\n');
    out
}

/// Figure 7 CSV: self-reported weekly attacks per booter (anonymised ids),
/// stacked. Only booters with at least one increment appear.
pub fn fig7_csv(sr: &SelfReportDataset, n_weeks: usize) -> String {
    let ids = sr.booter_ids();
    let mut out = String::from("week");
    for &id in &ids {
        out.push_str(",booter_");
        push_whole(&mut out, id.into());
    }
    out.push('\n');
    // Week-major grid of the increments, filled one booter at a time:
    // one pass over each counter history instead of a cursor step per
    // cell.
    let cols = ids.len();
    let mut grid = vec![0u64; n_weeks * cols];
    for (col, increments) in sr.all_increments().enumerate() {
        for (week, inc) in increments.take_while(|&(week, _)| week < n_weeks) {
            grid[week * cols + col] = inc;
        }
    }
    out.reserve(n_weeks * (11 + 2 * cols));
    let mut monday = sr.start;
    for w in 0..n_weeks {
        monday.push_iso(&mut out);
        for &inc in &grid[w * cols..(w + 1) * cols] {
            // Most booters report nothing in most weeks.
            if inc == 0 {
                out.push_str(",0");
            } else {
                out.push(',');
                push_whole(&mut out, inc);
            }
        }
        out.push('\n');
        monday = monday.add_days(7);
    }
    out
}

/// Figure 8 CSV: deaths (negative), resurrections and births per week.
pub fn fig8_csv(sr: &SelfReportDataset) -> String {
    let mut out = String::from("week,deaths,resurrections,births\n");
    for (i, (date, deaths)) in sr.deaths.iter().enumerate() {
        let _ = writeln!(
            out,
            "{date},{},{},{}",
            -(deaths as i64),
            sr.resurrections.get(i) as i64,
            sr.births.get(i) as i64,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Fidelity, Scenario, ScenarioConfig};
    use booters_market::market::MarketConfig;

    fn scenario() -> Scenario {
        Scenario::run(ScenarioConfig {
            market: MarketConfig {
                scale: 0.02,
                seed: 31,
                ..MarketConfig::default()
            },
            fidelity: Fidelity::Aggregate,
            ..ScenarioConfig::default()
        })
    }

    #[test]
    fn tables_render_without_panic_and_contain_anchors() {
        let s = scenario();
        let cal = Calibration::default();
        let cfg = PipelineConfig::default();
        let g = fit_global(&s.honeypot, &cal, &cfg).unwrap();
        let t1 = table1(&g);
        assert!(t1.contains("Xmas 2018 event"));
        assert!(t1.contains("seasonal_12"));
        assert!(t1.contains("_cons"));
        let t3 = table3(&s.honeypot);
        assert!(t3.contains("Feb-17"));
        assert!(t3.contains("US"));
        assert!(t3.contains("Total"));
    }

    #[test]
    fn fig_csvs_have_expected_shapes() {
        let s = scenario();
        let cal = Calibration::default();
        let cfg = PipelineConfig::default();
        let g = fit_global(&s.honeypot, &cal, &cfg).unwrap();

        let f1 = fig1_csv(&s.honeypot);
        assert!(f1.lines().count() > 240);
        assert!(f1.contains("Webstresser takedown"));

        let f2 = fig2_csv(&g);
        assert_eq!(f2.lines().count(), g.series.len() + 1);
        assert!(f2.contains(",1\n") && f2.contains(",0\n"));

        let f3 = fig3_csv(&s.honeypot);
        assert!(f3.starts_with("week,UK,US,FR,DE,AU,CN,CA,SA"));

        let f6 = fig6_csv(&s.honeypot);
        assert!(f6.starts_with("week,QOTD,CHARGEN,TIME,DNS,PORTMAP,NTP,LDAP,MSSQL,MDNS,SSDP"));

        let f7 = fig7_csv(&s.selfreport, 70);
        assert!(f7.lines().count() == 71);

        let f8 = fig8_csv(&s.selfreport);
        assert!(f8.lines().count() > 60);
    }

    #[test]
    fn fig4_shows_china_standing_apart() {
        let s = scenario();
        let t = fig4_table(&s.honeypot, Date::new(2016, 6, 6), Date::new(2019, 4, 1));
        let uk_us = t.get("UK", "US").unwrap();
        assert!(uk_us > 0.6, "UK-US corr={uk_us}");
        let cn_mean = t.mean_abs_correlation("CN").unwrap();
        let uk_mean = t.mean_abs_correlation("UK").unwrap();
        assert!(cn_mean < uk_mean, "cn={cn_mean} uk={uk_mean}");
    }

    #[test]
    fn fig5_slopes_show_the_nca_flattening() {
        let s = scenario();
        let (csv, slopes) = fig5_csv(&s.honeypot);
        assert!(csv.lines().count() > 140);
        // Both series grew across 2017.
        assert!(slopes.uk_2017 > 0.0, "uk2017={}", slopes.uk_2017);
        assert!(slopes.us_2017 > 0.0);
        // The robust NCA signal: the UK fell behind the US while the
        // campaign ran (raw window slopes are seasonally confounded in our
        // reproduction; the ratio cancels shared seasonality).
        let decline = slopes.uk_relative_decline();
        assert!(
            decline > 0.08,
            "uk relative decline = {decline} (start={}, end={})",
            slopes.uk_us_ratio_start,
            slopes.uk_us_ratio_end
        );
    }

    #[test]
    fn china_uses_a_narrow_protocol_mix() {
        // §4.2: "Attacks against China use a much smaller range of
        // protocols than against the US"; CN sees no DNS; CN's LDAP rise
        // lags six months.
        // Compare in the pre-LDAP era: once LDAP dominates everywhere
        // (2018) every country's mix is concentrated, so the US-vs-CN
        // breadth contrast is clearest in 2016 (US spreads over
        // CHARGEN/NTP/DNS/SSDP/PORTMAP; CN lacks DNS and leans NTP/SSDP).
        let s = scenario();
        let from = Date::new(2016, 6, 6);
        let to = Date::new(2017, 1, 2);
        let cn_mix = s.honeypot.protocol_mix(Country::Cn, from, to).unwrap();
        let us_mix = s.honeypot.protocol_mix(Country::Us, from, to).unwrap();
        // Effective number of protocols: the inverse Herfindahl of the mix.
        let effective = |mix: &[f64; 10]| 1.0 / mix.iter().map(|s| s * s).sum::<f64>();
        let (cn, us) = (effective(&cn_mix), effective(&us_mix));
        assert!(cn < us, "cn eff.#={cn:.1} us={us:.1}");
        assert_eq!(cn_mix[UdpProtocol::Dns.index()], 0.0, "CN must see no DNS");
        assert!(us_mix[UdpProtocol::Dns.index()] > 0.05);
    }

    #[test]
    fn protocol_mix_table_renders() {
        let s = scenario();
        let t = protocol_mix_table(
            &s.honeypot,
            &[Country::Us, Country::Cn, Country::Uk],
            Date::new(2018, 1, 1),
            Date::new(2019, 1, 7),
        );
        assert!(t.contains("LDAP"));
        assert!(t.contains("eff.#"));
        assert!(t.contains("CN"));
    }

    #[test]
    fn joint_cells_sum_to_marginals() {
        let s = scenario();
        for i in (0..s.honeypot.global.len()).step_by(13) {
            for c in [Country::Us, Country::Cn] {
                let sum: f64 = UdpProtocol::ALL
                    .iter()
                    .map(|&p| s.honeypot.country_protocol(c, p).get(i))
                    .sum();
                assert!(
                    (sum - s.honeypot.country(c).get(i)).abs() < 1e-9,
                    "week {i} country {c}"
                );
            }
        }
    }

    #[test]
    fn table2_without_xmas_renders_the_other_interventions() {
        let s = scenario();
        let mut cal = Calibration::default();
        cal.interventions
            .retain(|ic| ic.id != events::EventId::Xmas2018);
        let t2 = table2(&s.honeypot, &cal, &PipelineConfig::default()).unwrap();
        assert!(!t2.contains("Xmas 2018 event"));
        assert!(t2.contains("Hackforums shuts down SST"));
        // 4 interventions × 4 lines + headers.
        assert!(t2.lines().count() >= 20, "{} lines", t2.lines().count());
    }

    #[test]
    fn table2_renders_all_blocks() {
        let s = scenario();
        let cal = Calibration::default();
        let cfg = PipelineConfig::default();
        let t2 = table2(&s.honeypot, &cal, &cfg).unwrap();
        assert!(t2.contains("Xmas 2018 event"));
        assert!(t2.contains("Hackforums shuts down SST"));
        assert!(t2.contains("Overall"));
        assert!(t2.contains("Duration"));
        // 5 interventions × 4 lines + headers.
        assert!(t2.lines().count() >= 25, "{} lines", t2.lines().count());
    }
}
