//! Calendar oracle for the market's compiled demand plan.
//!
//! `DemandPlan` resolves every window bound, breakpoint and shock onset
//! once per run and shares the per-week terms across countries. This file
//! keeps the model's per-call definitions — each week and country
//! recomputing Easter, the window bounds from the event timeline and the
//! shocks' onset weeks — as test-only code, and requires the plan's log
//! intensities and protocol weights to be bitwise equal to them for every
//! simulated week and country: under the paper calibration, the shockless
//! scenario baseline and each built-in scenario spec.

use booting_the_booters::market::calibration::Calibration;
use booting_the_booters::market::demand::{
    country_log_intensity, scenario_log_intensity, DemandPlan,
};
use booting_the_booters::market::events::{self, EventId, EventKind};
use booting_the_booters::market::protocol_mix::protocol_weights;
use booting_the_booters::market::scn::builtin_scenarios;
use booting_the_booters::market::shocks::{ScenarioSpec, ShockKind};
use booting_the_booters::netsim::{Country, UdpProtocol};
use booting_the_booters::timeseries::seasonal::{easter_dummy, seasonal_row};
use booting_the_booters::timeseries::Date;

// ---------------------------------------------------------------------
// The per-call definitions.
// ---------------------------------------------------------------------

fn oracle_base_structure(cal: &Calibration, country: Country, monday: Date, nca: bool) -> f64 {
    let profile = cal.country(country);
    let mut log_mu = profile.share.ln();
    let row = seasonal_row(monday);
    for (j, &v) in row.iter().enumerate() {
        log_mu += v * cal.global.seasonal[j];
    }
    log_mu += easter_dummy(monday, 7, 7) * cal.global.easter;
    let weeks_since_window = monday.days_since(cal.window_start) as f64 / 7.0;
    if weeks_since_window < 0.0 {
        log_mu += cal.pre_window_log_level;
    } else {
        log_mu += cal.global.log_level;
        log_mu += oracle_trend(cal, country, weeks_since_window, nca);
    }
    if profile.hump_amplitude != 0.0 {
        let w = monday.days_since(Date::new(2017, 2, 13)) as f64 / 7.0;
        let rise = 1.0 / (1.0 + (-w / 1.5).exp());
        let w_end = monday.days_since(Date::new(2017, 6, 5)) as f64 / 7.0;
        let fall = 1.0 / (1.0 + (-w_end / 6.0).exp());
        log_mu += profile.hump_amplitude * (rise - fall).max(0.0);
    }
    log_mu
}

fn oracle_trend(cal: &Calibration, country: Country, weeks: f64, nca: bool) -> f64 {
    let profile = cal.country(country);
    if country != Country::Uk || !nca {
        return profile.weekly_trend * weeks;
    }
    let nca = events::event(EventId::NcaAds);
    let nca_start_w = nca.date.week_start().days_since(cal.window_start) as f64 / 7.0;
    let recovery_w = cal.nca_recovery.week_start().days_since(cal.window_start) as f64 / 7.0;
    if weeks <= nca_start_w {
        profile.weekly_trend * weeks
    } else if weeks <= recovery_w {
        profile.weekly_trend * nca_start_w + cal.nca_uk_trend * (weeks - nca_start_w)
    } else {
        profile.weekly_trend * nca_start_w
            + cal.nca_uk_trend * (recovery_w - nca_start_w)
            + profile.weekly_trend * (weeks - recovery_w)
    }
}

fn oracle_country_log_intensity(cal: &Calibration, country: Country, monday: Date) -> f64 {
    let mut log_mu = oracle_base_structure(cal, country, monday, true);
    for ic in &cal.interventions {
        let effect = ic.effect_in(country);
        if !effect.significant {
            continue;
        }
        let event_date = events::event(ic.id).date;
        let start = event_date
            .week_start()
            .add_days(7 * effect.delay_weeks as i64);
        let end = start.add_days(7 * effect.duration_weeks as i64);
        if monday >= start && monday < end {
            log_mu += effect.coef();
        }
    }
    if country != Country::Cn {
        for ev in events::timeline() {
            if cal.intervention(ev.id).is_some() || ev.kind == EventKind::Messaging {
                continue;
            }
            let start = ev.date.week_start();
            let end = start.add_days(7 * cal.minor_event_weeks as i64);
            if monday >= start && monday < end {
                log_mu += cal.minor_event_dip;
            }
        }
    }
    log_mu
}

fn log_coef(pct: f64) -> f64 {
    (1.0 + pct / 100.0).ln()
}

fn oracle_log_demand_delta(spec: &ScenarioSpec, country: Country, monday: Date) -> f64 {
    let mut delta = 0.0;
    for shock in &spec.shocks {
        let onset = shock.date.week_start();
        let weeks = monday.days_since(onset) as f64 / 7.0;
        if weeks < 0.0 {
            continue;
        }
        let w = weeks as u32;
        delta += match shock.kind {
            ShockKind::DemandShift {
                pct,
                delay_weeks,
                duration_weeks,
            } => {
                if w >= delay_weeks && w < delay_weeks + duration_weeks {
                    log_coef(pct)
                } else {
                    0.0
                }
            }
            ShockKind::Reprisal {
                country: c,
                pct,
                duration_weeks,
            } => {
                if c == country && w < duration_weeks {
                    log_coef(pct)
                } else {
                    0.0
                }
            }
            ShockKind::DomainSeizure {
                pct,
                recovery,
                lag_weeks,
                duration_weeks,
                ..
            } => {
                if w < lag_weeks {
                    log_coef(pct)
                } else if w < duration_weeks {
                    log_coef(pct * (1.0 - recovery))
                } else {
                    0.0
                }
            }
            ShockKind::PaymentFriction {
                pct,
                duration_weeks,
            } => {
                if w < duration_weeks {
                    log_coef(pct)
                } else {
                    0.0
                }
            }
            ShockKind::Deterrence {
                pct,
                half_life_weeks,
            } => log_coef(pct) * (-(w as f64) / half_life_weeks).exp2(),
            ShockKind::SupplyCut { .. }
            | ShockKind::Displacement { .. }
            | ShockKind::Rebrand { .. } => 0.0,
        };
    }
    delta
}

fn oracle_scenario_log_intensity(
    cal: &Calibration,
    spec: &ScenarioSpec,
    country: Country,
    monday: Date,
) -> f64 {
    oracle_base_structure(cal, country, monday, false)
        + oracle_log_demand_delta(spec, country, monday)
}

fn logistic(weeks: f64, mid: f64, scale: f64) -> f64 {
    1.0 / (1.0 + (-(weeks - mid) / scale).exp())
}

fn oracle_base_weight(protocol: UdpProtocol, country: Country, monday: Date) -> f64 {
    let w = monday.days_since(Date::new(2017, 1, 2)) as f64 / 7.0;
    let cn = country == Country::Cn;
    let uk = country == Country::Uk;
    match protocol {
        UdpProtocol::Ldap => {
            let mid = if cn { 52.0 } else { 26.0 };
            let ceiling = if uk { 1.6 } else { 0.9 };
            0.02 + ceiling * logistic(w, mid, 10.0)
        }
        UdpProtocol::Ntp => {
            let floor = if cn { 0.25 } else { 0.18 };
            floor + 0.25 * (1.0 - logistic(w, 20.0, 12.0))
        }
        UdpProtocol::Chargen => 0.04 + 0.22 * (1.0 - logistic(w, 6.0, 10.0)),
        UdpProtocol::Dns => {
            if cn {
                0.0
            } else {
                0.22
            }
        }
        UdpProtocol::Ssdp => {
            if cn {
                0.30
            } else {
                0.12
            }
        }
        UdpProtocol::Portmap => {
            if country == Country::Us {
                0.10
            } else if cn {
                0.02
            } else {
                0.06
            }
        }
        UdpProtocol::Qotd => 0.015 + 0.02 * (1.0 - logistic(w, -60.0, 10.0)),
        UdpProtocol::Time => 0.01,
        UdpProtocol::Mdns => 0.02,
        UdpProtocol::Mssql => 0.025,
    }
}

fn oracle_intervention_dip(cal: &Calibration, protocol: UdpProtocol, monday: Date) -> f64 {
    let mut dip = 1.0;
    let in_window = |id: EventId| -> bool {
        if let Some(ic) = cal.intervention(id) {
            let date = events::event(id).date.week_start();
            let start = date.add_days(7 * ic.overall.delay_weeks as i64);
            let end = start.add_days(7 * ic.overall.duration_weeks as i64);
            monday >= start && monday < end
        } else {
            false
        }
    };
    if in_window(EventId::HackForumsClosure) {
        match protocol {
            UdpProtocol::Chargen => dip *= 0.35,
            UdpProtocol::Ntp => dip *= 0.55,
            _ => {}
        }
    }
    if in_window(EventId::WebstresserTakedown) {
        match protocol {
            UdpProtocol::Dns => dip *= 0.45,
            UdpProtocol::Ldap => dip *= 0.90,
            _ => {}
        }
    }
    if in_window(EventId::Xmas2018) {
        match protocol {
            UdpProtocol::Ldap => dip *= 0.55,
            UdpProtocol::Dns => dip *= 0.80,
            _ => {}
        }
    }
    dip
}

fn oracle_protocol_weights(cal: &Calibration, country: Country, monday: Date) -> [f64; 10] {
    let mut w = [0.0; 10];
    for (i, &p) in UdpProtocol::ALL.iter().enumerate() {
        w[i] = oracle_base_weight(p, country, monday) * oracle_intervention_dip(cal, p, monday);
    }
    let total: f64 = w.iter().sum();
    if total > 0.0 {
        for v in &mut w {
            *v /= total;
        }
    }
    w
}

// ---------------------------------------------------------------------
// The comparisons.
// ---------------------------------------------------------------------

/// Every Monday a market run steps.
fn mondays(cal: &Calibration) -> Vec<Date> {
    let first = cal.scenario_start.week_start();
    let end = cal.scenario_end.week_start();
    let mut out = Vec::new();
    let mut monday = first;
    while monday < end {
        out.push(monday);
        monday = monday.add_days(7);
    }
    out
}

fn bits(ws: &[f64; 10]) -> [u64; 10] {
    ws.map(f64::to_bits)
}

/// Require `plan` to match the oracle in every week and country, where
/// `oracle` gives the expected log intensity.
fn check_plan(
    label: &str,
    cal: &Calibration,
    plan: &DemandPlan,
    oracle: impl Fn(Country, Date) -> f64,
) {
    let weeks = mondays(cal);
    assert_eq!(weeks.len(), 248, "{label}: the run steps 248 weeks");
    for monday in weeks {
        let week = plan.week(monday);
        for country in Country::ALL {
            let got = plan.log_intensity(country, &week);
            let want = oracle(country, monday);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{label}: log intensity of {country} in the week of {monday}: {got} vs {want}"
            );
            let got = week.protocol_weights(country);
            let want = oracle_protocol_weights(cal, country, monday);
            assert_eq!(
                bits(got),
                bits(&want),
                "{label}: protocol weights of {country} in the week of {monday}"
            );
        }
    }
}

#[test]
fn paper_plan_matches_the_per_call_definitions() {
    let cal = Calibration::default();
    let plan = DemandPlan::new(&cal, None);
    check_plan("paper", &cal, &plan, |c, m| {
        oracle_country_log_intensity(&cal, c, m)
    });
}

#[test]
fn scenario_plans_match_the_per_call_definitions() {
    let cal = Calibration::default();
    let mut specs = vec![ScenarioSpec::baseline()];
    specs.extend(builtin_scenarios());
    assert_eq!(specs.len(), 9);
    for spec in &specs {
        let plan = DemandPlan::new(&cal, Some(spec));
        check_plan(&spec.name, &cal, &plan, |c, m| {
            oracle_scenario_log_intensity(&cal, spec, c, m)
        });
    }
}

/// The public per-call functions are wrappers over the plan; spot-check
/// them against the oracle too.
#[test]
fn public_wrappers_match_the_per_call_definitions() {
    let cal = Calibration::default();
    let spec = &builtin_scenarios()[0];
    for monday in mondays(&cal).into_iter().step_by(5) {
        for country in Country::ALL {
            assert_eq!(
                country_log_intensity(&cal, country, monday).to_bits(),
                oracle_country_log_intensity(&cal, country, monday).to_bits()
            );
            assert_eq!(
                scenario_log_intensity(&cal, spec, country, monday).to_bits(),
                oracle_scenario_log_intensity(&cal, spec, country, monday).to_bits()
            );
            assert_eq!(
                bits(&protocol_weights(&cal, country, monday)),
                bits(&oracle_protocol_weights(&cal, country, monday))
            );
        }
    }
}
