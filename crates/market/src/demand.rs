//! The demand model: expected log attack intensity per country per week.
//!
//! Inside the modelling window (June 2016 – April 2019) this is exactly the
//! paper's fitted model (Table 1 global shape, Table 2 per-country
//! intervention effects), so that the analysis pipeline can recover the
//! published coefficients from simulated draws. Before June 2016 a flat
//! "era level" reproduces the left half of Figure 1.

use crate::calibration::Calibration;
use crate::events::{self, EventId, EventKind};
use crate::protocol_mix::{ProtocolDips, ProtocolWeek};
use crate::shocks::{ScenarioSpec, ShockPlan};
use booters_netsim::Country;
use booters_timeseries::seasonal::easter_dummy;
use booters_timeseries::Date;

/// A run's demand model compiled once: every calendar quantity that does
/// not depend on the week — window bounds as Monday day numbers
/// ([`Date::to_days`]), their coefficients, the UK trend breakpoints and
/// the scenario shocks' onset weeks — so that stepping a week evaluates
/// arithmetic only. [`DemandPlan::week`] computes the terms every country
/// shares; [`DemandPlan::log_intensity`] adds a country's own, with the
/// same floating-point operations in the same order as the model's
/// definition.
#[derive(Debug, Clone)]
pub struct DemandPlan {
    /// Per country, by [`Country::index`].
    countries: Vec<CountryPlan>,
    seasonal: [f64; 11],
    easter: f64,
    window_start: i64,
    pre_window_log_level: f64,
    log_level: f64,
    /// The UK's NCA-campaign trend breaks; `None` in scenario runs.
    nca: Option<NcaTrend>,
    /// The scenario's compiled shocks; `None` reproduces the paper.
    shocks: Option<ShockPlan>,
    protocol: ProtocolDips,
}

#[derive(Debug, Clone)]
struct CountryPlan {
    log_share: f64,
    weekly_trend: f64,
    hump_amplitude: f64,
    /// `[start, end)` Monday day numbers and the log coefficient added
    /// inside: the significant Table 2 windows in calibration order, then
    /// the minor-event dips. Empty in scenario runs.
    windows: Vec<(i64, i64, f64)>,
}

/// The UK trend's breakpoints in weeks since the modelling window opened:
/// flattening at the NCA campaign, recovery afterwards (§4.1/Figure 5).
#[derive(Debug, Clone, Copy)]
struct NcaTrend {
    start_w: f64,
    recovery_w: f64,
    trend: f64,
}

/// The seed-independent terms of one week, shared by every country.
#[derive(Debug, Clone)]
pub struct WeekTerms {
    monday: i64,
    season: f64,
    easter: f64,
    weeks_since_window: f64,
    hump: f64,
    protocol: ProtocolWeek,
}

impl WeekTerms {
    /// Normalised protocol weights for attacks on `country` this week
    /// (`UdpProtocol::index` order). Sums to 1.
    pub fn protocol_weights(&self, country: Country) -> &[f64; 10] {
        self.protocol.weights(country)
    }
}

impl DemandPlan {
    /// Compile `cal`, and `spec` when the run is a scenario. Without a
    /// spec the plan is the paper's fitted history (Table 2 windows,
    /// minor-event dips, NCA trend break); with one it is the
    /// intervention-free base structure plus the spec's demand shocks.
    /// The protocol mix carries the paper's dips either way.
    pub fn new(cal: &Calibration, spec: Option<&ScenarioSpec>) -> DemandPlan {
        let window_start = cal.window_start.to_days();
        let weeks_since_window = |d: Date| (d.week_start().to_days() - window_start) as f64 / 7.0;
        let nca = spec.is_none().then(|| NcaTrend {
            start_w: weeks_since_window(events::event(EventId::NcaAds).date),
            recovery_w: weeks_since_window(cal.nca_recovery),
            trend: cal.nca_uk_trend,
        });
        let minor: Vec<(i64, i64, f64)> = events::timeline()
            .iter()
            .filter(|ev| cal.intervention(ev.id).is_none() && ev.kind != EventKind::Messaging)
            .map(|ev| {
                let start = ev.date.week_start();
                let end = start.add_days(7 * cal.minor_event_weeks as i64);
                (start.to_days(), end.to_days(), cal.minor_event_dip)
            })
            .collect();
        let countries = Country::ALL
            .iter()
            .map(|&country| {
                let profile = cal.country(country);
                let mut windows = Vec::new();
                if spec.is_none() {
                    // The five significant interventions, per-country
                    // (Table 2).
                    for ic in &cal.interventions {
                        let effect = ic.effect_in(country);
                        if !effect.significant {
                            continue;
                        }
                        let start = events::event(ic.id)
                            .date
                            .week_start()
                            .add_days(7 * effect.delay_weeks as i64);
                        let end = start.add_days(7 * effect.duration_weeks as i64);
                        windows.push((start.to_days(), end.to_days(), effect.coef()));
                    }
                    // Minor events leave a small one-week mark (China
                    // excepted).
                    if country != Country::Cn {
                        windows.extend_from_slice(&minor);
                    }
                }
                CountryPlan {
                    log_share: profile.share.ln(),
                    weekly_trend: profile.weekly_trend,
                    hump_amplitude: profile.hump_amplitude,
                    windows,
                }
            })
            .collect();
        DemandPlan {
            countries,
            seasonal: cal.global.seasonal,
            easter: cal.global.easter,
            window_start,
            pre_window_log_level: cal.pre_window_log_level,
            log_level: cal.global.log_level,
            nca,
            shocks: spec.map(ShockPlan::new),
            protocol: ProtocolDips::new(cal),
        }
    }

    /// The scenario's compiled shocks, `None` for the paper's history.
    pub(crate) fn shocks(&self) -> Option<&ShockPlan> {
        self.shocks.as_ref()
    }

    /// The terms of the week starting at `monday` (which must be a
    /// Monday) that every country shares: seasonality, Easter, the
    /// modelling-window clock, the CN hump's shape and the protocol mix.
    pub fn week(&self, monday: Date) -> WeekTerms {
        let day = monday.to_days();
        // Seasonal structure applies across the whole series: the one
        // month dummy that is set (none in January, the reference month).
        let season = match monday.month() {
            1 => 0.0,
            m => self.seasonal[(m - 2) as usize],
        };
        // China's NTP-era hump (Table 3: CN at over half of world attacks
        // in Feb-17). Modelled as a sharp-onset plateau (difference of
        // logistics): the rise starts after the HackForums window closes
        // so that the global intervention effect is not masked — in the
        // paper's data the CN wave likewise postdates the HackForums drop.
        let w = (day - Date::new(2017, 2, 13).to_days()) as f64 / 7.0;
        let rise = 1.0 / (1.0 + (-w / 1.5).exp());
        let w_end = (day - Date::new(2017, 6, 5).to_days()) as f64 / 7.0;
        let fall = 1.0 / (1.0 + (-w_end / 6.0).exp());
        WeekTerms {
            monday: day,
            season,
            easter: easter_dummy(monday, 7, 7) * self.easter,
            weeks_since_window: (day - self.window_start) as f64 / 7.0,
            hump: (rise - fall).max(0.0),
            protocol: self.protocol.week(day),
        }
    }

    /// Expected log intensity of attacks on `country` in `week`.
    pub fn log_intensity(&self, country: Country, week: &WeekTerms) -> f64 {
        let plan = &self.countries[country.index()];
        let mut log_mu = plan.log_share;
        log_mu += week.season;
        log_mu += week.easter;
        let weeks = week.weeks_since_window;
        if weeks < 0.0 {
            // Pre-window era: flat level, no trend (Figure 1's 2014–2016
            // look).
            log_mu += self.pre_window_log_level;
        } else {
            log_mu += self.log_level;
            log_mu += match self.nca {
                Some(nca) if country == Country::Uk => nca.contribution(plan.weekly_trend, weeks),
                _ => plan.weekly_trend * weeks,
            };
        }
        if plan.hump_amplitude != 0.0 {
            log_mu += plan.hump_amplitude * week.hump;
        }
        for &(start, end, coef) in &plan.windows {
            if week.monday >= start && week.monday < end {
                log_mu += coef;
            }
        }
        match &self.shocks {
            None => log_mu,
            Some(shocks) => log_mu + shocks.log_demand_delta(country, week.monday),
        }
    }
}

impl NcaTrend {
    /// Cumulative UK trend after `weeks` weeks in the modelling window.
    fn contribution(&self, weekly_trend: f64, weeks: f64) -> f64 {
        if weeks <= self.start_w {
            weekly_trend * weeks
        } else if weeks <= self.recovery_w {
            weekly_trend * self.start_w + self.trend * (weeks - self.start_w)
        } else {
            weekly_trend * self.start_w
                + self.trend * (self.recovery_w - self.start_w)
                + weekly_trend * (weeks - self.recovery_w)
        }
    }
}

/// Expected log intensity of attacks on `country` in the week starting at
/// `monday` (which must be a Monday; use `Date::week_start`): the paper's
/// fitted history.
pub fn country_log_intensity(cal: &Calibration, country: Country, monday: Date) -> f64 {
    let plan = DemandPlan::new(cal, None);
    plan.log_intensity(country, &plan.week(monday))
}

/// Expected log intensity for `country` under a scenario spec: the
/// intervention-free base structure (no Table 2 windows, no
/// minor-event dips, no NCA trend break — those are all *interventions*,
/// which a scenario replaces) plus the spec's composed demand-side
/// shock deltas ([`ScenarioSpec::log_demand_delta`]).
pub fn scenario_log_intensity(
    cal: &Calibration,
    spec: &ScenarioSpec,
    country: Country,
    monday: Date,
) -> f64 {
    let plan = DemandPlan::new(cal, Some(spec));
    plan.log_intensity(country, &plan.week(monday))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cal() -> Calibration {
        Calibration::default()
    }

    /// Expected global (all-country) attack count for a week: Σ exp(log μ_c).
    fn global_intensity(cal: &Calibration, monday: Date) -> f64 {
        Country::ALL
            .iter()
            .map(|&c| country_log_intensity(cal, c, monday).exp())
            .sum()
    }

    #[test]
    fn window_origin_level_matches_table1() {
        // Summing country shares at t=0 should land near exp(10.289)
        // (seasonality for June pushes it slightly down).
        let c = cal();
        let total = global_intensity(&c, Date::new(2016, 6, 6));
        let expect = (10.289f64 + c.global.seasonal[4]).exp(); // June = seasonal_6
        // CN hump tail adds a little.
        assert!(
            (total / expect - 1.0).abs() < 0.35,
            "total={total} expect≈{expect}"
        );
    }

    #[test]
    fn trend_raises_intensity_over_window() {
        let c = cal();
        let early = country_log_intensity(&c, Country::Us, Date::new(2016, 6, 6));
        let late = country_log_intensity(&c, Country::Us, Date::new(2018, 6, 4));
        // ~104 weeks at 0.013/week ≈ +1.35, minus small seasonal diffs.
        assert!((late - early - 1.35).abs() < 0.1, "delta={}", late - early);
    }

    #[test]
    fn xmas2018_dips_us_but_not_fr() {
        let c = cal();
        let before = Date::new(2018, 12, 10);
        let during = Date::new(2019, 1, 7);
        let us_dip = country_log_intensity(&c, Country::Us, during)
            - country_log_intensity(&c, Country::Us, before);
        let fr_dip = country_log_intensity(&c, Country::Fr, during)
            - country_log_intensity(&c, Country::Fr, before);
        // US carries the −49% effect; FR only seasonal/trend drift.
        assert!(us_dip < -0.5, "us_dip={us_dip}");
        assert!(fr_dip > -0.1, "fr_dip={fr_dip}");
    }

    #[test]
    fn nl_reprisal_spikes_during_webstresser() {
        let c = cal();
        let before = Date::new(2018, 4, 16);
        let during = Date::new(2018, 4, 30);
        let nl = country_log_intensity(&c, Country::Nl, during)
            - country_log_intensity(&c, Country::Nl, before);
        assert!(nl > 0.7, "nl={nl}"); // +146% ⇒ +0.90 log
        // Overall (delayed 2 weeks) effect has not started for the US yet.
        let us = country_log_intensity(&c, Country::Us, during)
            - country_log_intensity(&c, Country::Us, before);
        assert!(us.abs() < 0.1, "us={us}");
        // Three weeks later the US dip is active.
        let us_later = country_log_intensity(&c, Country::Us, Date::new(2018, 5, 14))
            - country_log_intensity(&c, Country::Us, before);
        assert!(us_later < -0.2, "us_later={us_later}");
    }

    #[test]
    fn uk_flattens_during_nca_campaign() {
        let c = cal();
        // Slope over the campaign window ≈ 0; US keeps growing.
        let uk_jan = country_log_intensity(&c, Country::Uk, Date::new(2018, 1, 8));
        let uk_jun = country_log_intensity(&c, Country::Uk, Date::new(2018, 6, 4));
        let us_jan = country_log_intensity(&c, Country::Us, Date::new(2018, 1, 8));
        let us_jun = country_log_intensity(&c, Country::Us, Date::new(2018, 6, 4));
        // Control for seasonality by comparing the UK-US difference drift.
        let uk_drift = uk_jun - uk_jan;
        let us_drift = us_jun - us_jan;
        assert!(us_drift - uk_drift > 0.15, "uk={uk_drift} us={us_drift}");
    }

    #[test]
    fn uk_growth_resumes_after_recovery() {
        // After August 2018 the UK's drift matches the US's again
        // (seasonality cancels in the UK−US contrast).
        let c = cal();
        let uk_drift = country_log_intensity(&c, Country::Uk, Date::new(2018, 10, 1))
            - country_log_intensity(&c, Country::Uk, Date::new(2018, 8, 6));
        let us_drift = country_log_intensity(&c, Country::Us, Date::new(2018, 10, 1))
            - country_log_intensity(&c, Country::Us, Date::new(2018, 8, 6));
        assert!((uk_drift - us_drift).abs() < 0.05, "uk={uk_drift} us={us_drift}");
        // And the drift is positive once seasonals are removed: compare
        // two weeks within the same month (same seasonal dummy).
        let a = country_log_intensity(&c, Country::Uk, Date::new(2018, 10, 1));
        let b = country_log_intensity(&c, Country::Uk, Date::new(2018, 10, 15));
        assert!(b > a, "uk growth not resumed: {a} -> {b}");
    }

    #[test]
    fn cn_hump_peaks_in_spring_2017() {
        let c = cal();
        let at_peak = country_log_intensity(&c, Country::Cn, Date::new(2017, 4, 3));
        let before = country_log_intensity(&c, Country::Cn, Date::new(2016, 6, 6));
        let after = country_log_intensity(&c, Country::Cn, Date::new(2018, 6, 4));
        assert!(at_peak - before > 1.5, "rise={}", at_peak - before);
        assert!(at_peak - after > 1.5, "fall={}", at_peak - after);
    }

    #[test]
    fn cn_hump_spares_the_hackforums_window() {
        // The hump must not mask the HackForums effect: its contribution
        // inside the window (Oct 2016 – late Jan 2017) stays small.
        let c = cal();
        let in_window = country_log_intensity(&c, Country::Cn, Date::new(2017, 1, 9));
        let base = country_log_intensity(&c, Country::Cn, Date::new(2016, 9, 5));
        assert!(in_window - base < 0.3, "leak={}", in_window - base);
    }

    #[test]
    fn cn_share_dominates_at_hump_peak() {
        let c = cal();
        let monday = Date::new(2017, 4, 3);
        let cn = country_log_intensity(&c, Country::Cn, monday).exp();
        let total = global_intensity(&c, monday);
        let share = cn / total;
        // The paper's Feb-17 CN share is 55%, but its Table 3 column sums
        // to 108% (double counting); our single-assignment share peaks
        // near 30% — EXPERIMENTS.md records the comparison.
        assert!(share > 0.25 && share < 0.65, "share={share}");
    }

    #[test]
    fn pre_window_is_flat() {
        let c = cal();
        let a = country_log_intensity(&c, Country::Us, Date::new(2014, 9, 1));
        let b = country_log_intensity(&c, Country::Us, Date::new(2016, 3, 7));
        // Only seasonal differences between two pre-window weeks.
        assert!((a - b).abs() < 0.3, "a−b={}", a - b);
    }

    #[test]
    fn minor_events_leave_small_dips() {
        let c = cal();
        // Operation Vivarium week (2015-08-28 → week of 08-24).
        let dip_week = Date::new(2015, 8, 24);
        let ref_week = Date::new(2015, 8, 10);
        let delta = country_log_intensity(&c, Country::Us, dip_week)
            - country_log_intensity(&c, Country::Us, ref_week);
        assert!((delta - c.minor_event_dip).abs() < 1e-9, "delta={delta}");
    }

    #[test]
    fn scenario_baseline_has_no_paper_interventions() {
        use crate::shocks::ScenarioSpec;
        let c = cal();
        let b = ScenarioSpec::baseline();
        // Xmas2018 window: the fitted history dips, the counterfactual
        // baseline does not.
        let before = Date::new(2018, 12, 10);
        let during = Date::new(2019, 1, 7);
        let fitted_dip = country_log_intensity(&c, Country::Us, during)
            - country_log_intensity(&c, Country::Us, before);
        let base_dip = scenario_log_intensity(&c, &b, Country::Us, during)
            - scenario_log_intensity(&c, &b, Country::Us, before);
        assert!(fitted_dip < -0.5, "fitted={fitted_dip}");
        assert!(base_dip > -0.1, "baseline={base_dip}");
        // And no minor-event dip either (Operation Vivarium week).
        let minor = scenario_log_intensity(&c, &b, Country::Us, Date::new(2015, 8, 24))
            - scenario_log_intensity(&c, &b, Country::Us, Date::new(2015, 8, 10));
        assert!(minor.abs() < 1e-9, "minor={minor}");
    }

    #[test]
    fn scenario_baseline_uk_trend_is_linear() {
        use crate::shocks::ScenarioSpec;
        // The NCA flattening is an intervention: inside the campaign
        // window the scenario baseline keeps the UK's linear trend, so
        // it drifts up faster than the fitted (flattened) history.
        let c = cal();
        let b = ScenarioSpec::baseline();
        let jan = Date::new(2018, 1, 8);
        let jun = Date::new(2018, 6, 4);
        let baseline_drift = scenario_log_intensity(&c, &b, Country::Uk, jun)
            - scenario_log_intensity(&c, &b, Country::Uk, jan);
        let fitted_drift = country_log_intensity(&c, Country::Uk, jun)
            - country_log_intensity(&c, Country::Uk, jan);
        assert!(
            baseline_drift - fitted_drift > 0.15,
            "baseline={baseline_drift} fitted={fitted_drift}"
        );
    }

    #[test]
    fn scenario_shock_delta_lands_on_top_of_the_baseline() {
        use crate::shocks::{ScenarioSpec, Shock, ShockKind};
        let c = cal();
        let spec = ScenarioSpec {
            name: "t".into(),
            title: "t".into(),
            cite: None,
            shocks: vec![Shock {
                date: Date::new(2018, 1, 10),
                kind: ShockKind::PaymentFriction {
                    pct: -40.0,
                    duration_weeks: 4,
                },
            }],
        };
        let base = ScenarioSpec::baseline();
        let monday = Date::new(2018, 1, 15);
        let delta = scenario_log_intensity(&c, &spec, Country::Us, monday)
            - scenario_log_intensity(&c, &base, Country::Us, monday);
        assert!((delta - 0.6f64.ln()).abs() < 1e-12, "delta={delta}");
    }
}
