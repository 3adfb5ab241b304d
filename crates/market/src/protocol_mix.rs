//! Protocol popularity over time — the generative model behind Figure 6.
//!
//! §4.2: protocols "go in and out of vogue"; the 2017–2018 growth "appears
//! to be largely driven by an increase in attacks using the LDAP protocol";
//! China's LDAP rise "takes place six months later ... largely replacing
//! NTP attacks"; attacks against China avoid DNS (the Great Firewall
//! blocks DNS traffic); "Attacks targeting the UK appear to be almost
//! entirely LDAP since mid-2017". Intervention drops concentrate in the
//! protocols of the booters affected: HackForums → CHARGEN/NTP,
//! Webstresser → DNS (plus a small LDAP drop), Xmas2018 → LDAP and DNS.

use crate::calibration::Calibration;
use crate::events::{self, EventId};
use booters_netsim::{Country, UdpProtocol};
use booters_timeseries::Date;

/// Logistic curve in weeks: 0 → 1 with midpoint `mid` and scale `scale`.
fn logistic(weeks: f64, mid: f64, scale: f64) -> f64 {
    1.0 / (1.0 + (-(weeks - mid) / scale).exp())
}

/// The week's protocol-era curves, shared by every country: the logistic
/// terms of weeks since the start of 2017, the LDAP inflection era.
struct EraCurves {
    ldap: f64,
    ldap_cn: f64,
    ntp: f64,
    chargen: f64,
    qotd: f64,
}

impl EraCurves {
    fn new(monday: i64) -> EraCurves {
        let w = (monday - Date::new(2017, 1, 2).to_days()) as f64 / 7.0;
        EraCurves {
            ldap: logistic(w, 26.0, 10.0),
            ldap_cn: logistic(w, 52.0, 10.0),
            ntp: logistic(w, 20.0, 12.0),
            chargen: logistic(w, 6.0, 10.0),
            qotd: logistic(w, -60.0, 10.0),
        }
    }
}

/// Unnormalised base popularity of a protocol for attacks on `country`,
/// in the week of `era`.
fn base_weight(protocol: UdpProtocol, country: Country, era: &EraCurves) -> f64 {
    let cn = country == Country::Cn;
    let uk = country == Country::Uk;
    match protocol {
        UdpProtocol::Ldap => {
            // Rise from ~0 to dominance across 2017–2018; CN six months
            // later; UK converges to almost-entirely-LDAP.
            let rise = if cn { era.ldap_cn } else { era.ldap };
            let ceiling = if uk { 1.6 } else { 0.9 };
            0.02 + ceiling * rise
        }
        UdpProtocol::Ntp => {
            // Strong early, fading as LDAP replaces it (fastest in CN).
            let floor = if cn { 0.25 } else { 0.18 };
            floor + 0.25 * (1.0 - era.ntp)
        }
        UdpProtocol::Chargen => 0.04 + 0.22 * (1.0 - era.chargen),
        UdpProtocol::Dns => {
            if cn {
                0.0 // Great Firewall blocks DNS
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
        UdpProtocol::Qotd => 0.015 + 0.02 * (1.0 - era.qotd),
        UdpProtocol::Time => 0.01,
        UdpProtocol::Mdns => 0.02,
        UdpProtocol::Mssql => 0.025,
    }
}

/// The three intervention windows whose protocol-specific dips §4.2
/// describes (HackForums, Webstresser, Xmas2018 at their overall delay
/// and duration), as `[start, end)` Monday day numbers; `None` when the
/// calibration drops the intervention.
#[derive(Debug, Clone)]
pub(crate) struct ProtocolDips {
    windows: [Option<(i64, i64)>; 3],
}

impl ProtocolDips {
    /// Resolve the dip windows of `cal`.
    pub(crate) fn new(cal: &Calibration) -> ProtocolDips {
        let window = |id: EventId| {
            cal.intervention(id).map(|ic| {
                let date = events::event(id).date.week_start();
                let start = date.add_days(7 * ic.overall.delay_weeks as i64);
                let end = start.add_days(7 * ic.overall.duration_weeks as i64);
                (start.to_days(), end.to_days())
            })
        };
        ProtocolDips {
            windows: [
                window(EventId::HackForumsClosure),
                window(EventId::WebstresserTakedown),
                window(EventId::Xmas2018),
            ],
        }
    }

    /// Multiplicative dip per protocol (by `UdpProtocol::index`) in the
    /// week whose Monday is day number `monday` — the §4.2 observation
    /// that post-intervention drops are protocol-specific.
    fn dips(&self, monday: i64) -> [f64; 10] {
        let mut dip = [1.0; 10];
        let [hackforums, webstresser, xmas] = self
            .windows
            .map(|w| w.is_some_and(|(start, end)| monday >= start && monday < end));
        let mut scale = |p: UdpProtocol, by: f64| dip[p.index()] *= by;
        if hackforums {
            scale(UdpProtocol::Chargen, 0.35);
            scale(UdpProtocol::Ntp, 0.55);
        }
        if webstresser {
            scale(UdpProtocol::Dns, 0.45);
            scale(UdpProtocol::Ldap, 0.90);
        }
        if xmas {
            scale(UdpProtocol::Ldap, 0.55);
            scale(UdpProtocol::Dns, 0.80);
        }
        dip
    }

    /// Normalised protocol weights of one week for each country (see
    /// [`ProtocolWeek::weights`]).
    pub(crate) fn week(&self, monday: i64) -> ProtocolWeek {
        let era = EraCurves::new(monday);
        let dip = self.dips(monday);
        ProtocolWeek {
            by_country: Country::ALL.map(|country| {
                let mut w = [0.0; 10];
                for (i, &p) in UdpProtocol::ALL.iter().enumerate() {
                    w[i] = base_weight(p, country, &era) * dip[i];
                }
                let total: f64 = w.iter().sum();
                if total > 0.0 {
                    for v in &mut w {
                        *v /= total;
                    }
                }
                w
            }),
        }
    }
}

/// One week's normalised protocol weights, computed once and shared by
/// every country.
#[derive(Debug, Clone)]
pub(crate) struct ProtocolWeek {
    /// By `Country::index`.
    by_country: [[f64; 10]; 12],
}

impl ProtocolWeek {
    /// Normalised weights (by `UdpProtocol::index`) for attacks on
    /// `country`. Sums to 1.
    pub(crate) fn weights(&self, country: Country) -> &[f64; 10] {
        &self.by_country[country.index()]
    }
}

/// Normalised protocol weights for attacks on `country` in the week of
/// `monday`. Sums to 1.
pub fn protocol_weights(cal: &Calibration, country: Country, monday: Date) -> [f64; 10] {
    *ProtocolDips::new(cal)
        .week(monday.to_days())
        .weights(country)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cal() -> Calibration {
        Calibration::default()
    }

    fn protocol_weight(cal: &Calibration, country: Country, monday: Date, p: UdpProtocol) -> f64 {
        protocol_weights(cal, country, monday)[p.index()]
    }

    #[test]
    fn weights_normalise() {
        let c = cal();
        for &(y, m, d) in &[(2014, 9, 1), (2016, 6, 6), (2017, 8, 7), (2019, 1, 7)] {
            for &country in &[Country::Us, Country::Cn, Country::Uk] {
                let w = protocol_weights(&c, country, Date::new(y, m, d));
                let total: f64 = w.iter().sum();
                assert!((total - 1.0).abs() < 1e-12, "{y}-{m} {country}");
                assert!(w.iter().all(|&v| v >= 0.0));
            }
        }
    }

    #[test]
    fn ldap_rises_across_2017_2018() {
        let c = cal();
        let early = protocol_weight(&c, Country::Us, Date::new(2016, 6, 6), UdpProtocol::Ldap);
        let late = protocol_weight(&c, Country::Us, Date::new(2018, 10, 1), UdpProtocol::Ldap);
        assert!(early < 0.1, "early={early}");
        assert!(late > 0.35, "late={late}");
    }

    #[test]
    fn cn_ldap_rise_lags_six_months() {
        let c = cal();
        let date = Date::new(2017, 7, 3);
        let us = protocol_weight(&c, Country::Us, date, UdpProtocol::Ldap);
        let cn = protocol_weight(&c, Country::Cn, date, UdpProtocol::Ldap);
        assert!(us > 2.0 * cn, "us={us} cn={cn}");
        // By end-2018 CN has caught up substantially.
        let cn_late = protocol_weight(&c, Country::Cn, Date::new(2018, 12, 3), UdpProtocol::Ldap);
        assert!(cn_late > 0.25, "cn_late={cn_late}");
    }

    #[test]
    fn cn_never_sees_dns() {
        let c = cal();
        for &(y, m) in &[(2015, 1), (2017, 6), (2019, 1)] {
            let w = protocol_weight(&c, Country::Cn, Date::new(y, m, 6), UdpProtocol::Dns);
            assert_eq!(w, 0.0);
        }
    }

    #[test]
    fn uk_is_mostly_ldap_by_mid_2018() {
        let c = cal();
        let w = protocol_weight(&c, Country::Uk, Date::new(2018, 7, 2), UdpProtocol::Ldap);
        assert!(w > 0.55, "uk ldap={w}");
    }

    #[test]
    fn chargen_era_fades() {
        let c = cal();
        let early = protocol_weight(&c, Country::Us, Date::new(2014, 9, 1), UdpProtocol::Chargen);
        let late = protocol_weight(&c, Country::Us, Date::new(2018, 9, 3), UdpProtocol::Chargen);
        assert!(early > 3.0 * late, "early={early} late={late}");
    }

    #[test]
    fn hackforums_window_dips_chargen_and_ntp() {
        let c = cal();
        let before = Date::new(2016, 10, 17);
        let during = Date::new(2016, 11, 14);
        let ch_b = protocol_weight(&c, Country::Us, before, UdpProtocol::Chargen);
        let ch_d = protocol_weight(&c, Country::Us, during, UdpProtocol::Chargen);
        assert!(ch_d < 0.6 * ch_b, "before={ch_b} during={ch_d}");
    }

    #[test]
    fn xmas_window_dips_ldap_share() {
        let c = cal();
        let before = Date::new(2018, 12, 10);
        let during = Date::new(2019, 1, 14);
        let b = protocol_weight(&c, Country::Us, before, UdpProtocol::Ldap);
        let d = protocol_weight(&c, Country::Us, during, UdpProtocol::Ldap);
        assert!(d < b, "before={b} during={d}");
    }

    #[test]
    fn webstresser_window_dips_dns() {
        let c = cal();
        let before = Date::new(2018, 4, 23);
        let during = Date::new(2018, 5, 14); // delay 2wk then 3wk window
        let b = protocol_weight(&c, Country::Us, before, UdpProtocol::Dns);
        let d = protocol_weight(&c, Country::Us, during, UdpProtocol::Dns);
        assert!(d < 0.7 * b, "before={b} during={d}");
    }
}
