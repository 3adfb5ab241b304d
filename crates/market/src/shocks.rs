//! Composable intervention-shock primitives and the [`ScenarioSpec`]
//! type that names a timed composition of them.
//!
//! The source paper hard-wires five police interventions into the demand
//! model ([`crate::demand::country_log_intensity`]) and the population
//! dynamics ([`crate::lifecycle::MarketShock`]). The successor literature
//! shows the intervention space is richer: coordinated global takedowns
//! with seized-domain redirects and deterrence messaging (Vu et al.,
//! arXiv 2502.04753), rebrand/resurrection with customer migration after
//! a takedown (Kopp et al., arXiv 1909.07455), and payment-infrastructure
//! undermining (Karami et al., arXiv 1508.03410). This module expresses
//! all of them — the paper's and the successors' — as small composable
//! primitives so that any intervention programme can be simulated by the
//! same market engine.
//!
//! A [`Shock`] is a [`ShockKind`] anchored to a calendar date (applied in
//! the week containing that date). Shocks come in two families:
//!
//! * **Demand-side** shocks perturb the expected log attack intensity of
//!   the counterfactual demand model
//!   ([`crate::demand::scenario_log_intensity`]): [`ShockKind::DemandShift`],
//!   [`ShockKind::Reprisal`], [`ShockKind::DomainSeizure`],
//!   [`ShockKind::PaymentFriction`], [`ShockKind::Deterrence`]. Their
//!   composition is a *sum of log deltas*, so demand-side shocks commute.
//! * **Structural** shocks mutate the booter population
//!   ([`crate::lifecycle::Population::step_scenario`]):
//!   [`ShockKind::SupplyCut`], [`ShockKind::Displacement`],
//!   [`ShockKind::Rebrand`]. They are applied deterministically (no RNG
//!   draws) in the order they appear in the spec, and do **not** commute:
//!   a `Displacement` absorbs the weight closed by the `SupplyCut`s listed
//!   before it in the same week (DESIGN.md §5j).
//!
//! Every shock's exact decay math and units are documented in
//! `SCENARIOS.md`; the `.scn` text format for specs is parsed by
//! [`crate::scn`].

use booters_netsim::Country;
use booters_timeseries::{Date, InterventionWindow};

/// Which booter size classes a structural shock targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClassSel {
    /// Market-dominating services only.
    Major,
    /// Mid-market services only.
    Medium,
    /// Small services only.
    Small,
    /// Any size class.
    Any,
}

impl ClassSel {
    /// Keyword used by the `.scn` format.
    pub fn keyword(self) -> &'static str {
        match self {
            ClassSel::Major => "major",
            ClassSel::Medium => "medium",
            ClassSel::Small => "small",
            ClassSel::Any => "any",
        }
    }

    /// Parse a `.scn` keyword.
    pub fn from_keyword(s: &str) -> Option<ClassSel> {
        Some(match s {
            "major" => ClassSel::Major,
            "medium" => ClassSel::Medium,
            "small" => ClassSel::Small,
            "any" => ClassSel::Any,
            _ => return None,
        })
    }
}

/// One intervention primitive. See the module docs for the demand-side /
/// structural split and `SCENARIOS.md` for the full semantics reference.
#[derive(Debug, Clone, PartialEq)]
pub enum ShockKind {
    /// Structural: permanently close the `count` largest-weight alive
    /// booters of `class` (largest first, booter id breaking ties). The
    /// closed services retire — they do not resurrect through baseline
    /// churn (law enforcement holds the infrastructure) — but a later
    /// [`ShockKind::Rebrand`] can re-open the most recently closed one.
    SupplyCut {
        /// Which size classes are eligible.
        class: ClassSel,
        /// How many booters to close.
        count: u32,
    },
    /// Demand-side: a level shift of `pct` percent on every country's
    /// intensity, starting `delay_weeks` after the shock week and lasting
    /// `duration_weeks` (log-scale coefficient `ln(1 + pct/100)`).
    DemandShift {
        /// Mean percentage change (−32.0 means “−32%”); must be > −100.
        pct: f64,
        /// Weeks between the shock date and effect onset.
        delay_weeks: u32,
        /// Effect duration in weeks.
        duration_weeks: u32,
    },
    /// Structural: the largest surviving booter absorbs `absorb` of the
    /// market weight closed *earlier in the same week's shock list* —
    /// the Xmas2018 pattern where the surviving major ended up with ~60%
    /// of the market. Order-sensitive: list it after the supply cuts it
    /// reacts to.
    Displacement {
        /// Fraction of just-closed weight absorbed, in `[0, 1]`.
        absorb: f64,
    },
    /// Demand-side: a country-confined shift of `pct` percent for
    /// `duration_weeks`, starting immediately — the Webstresser pattern
    /// where NL attacks *rose* 146% while everywhere else fell
    /// (reprisal/Streisand response).
    Reprisal {
        /// The single affected victim country.
        country: Country,
        /// Mean percentage change; must be > −100.
        pct: f64,
        /// Effect duration in weeks.
        duration_weeks: u32,
    },
    /// Demand-side: seizure of `domains` booter front domains cuts demand
    /// by `pct` percent. After `lag_weeks`, a fraction `recovery` of the
    /// *lost* demand returns (customers find successor domains — Vu et
    /// al. measure substantial but partial recovery); the residual cut
    /// `pct·(1 − recovery)` persists until `duration_weeks` elapse.
    DomainSeizure {
        /// Number of seized domains (reporting flavour; Vu et al.: 27).
        domains: u32,
        /// Initial mean percentage change; must be > −100 (and negative
        /// to model a seizure).
        pct: f64,
        /// Fraction of the lost demand that returns after the lag, `[0, 1]`.
        recovery: f64,
        /// Weeks of full effect before partial recovery.
        lag_weeks: u32,
        /// Total effect duration in weeks (≥ `lag_weeks`).
        duration_weeks: u32,
    },
    /// Structural: the most recently closed booter re-opens "under a
    /// similar name", keeping `migration` of its former market weight
    /// (Kopp et al.: customers migrate to the rebrand, but not all of
    /// them). Ties on the closing week resolve to the largest weight,
    /// then the smallest id.
    Rebrand {
        /// Fraction of the former weight the rebrand retains, `[0, 1]`.
        migration: f64,
    },
    /// Demand-side: payment-infrastructure friction (processor
    /// blacklisting, seized wallets — Karami et al.) shifts every
    /// country's intensity by `pct` percent for `duration_weeks`,
    /// starting immediately.
    PaymentFriction {
        /// Mean percentage change; must be > −100.
        pct: f64,
        /// Effect duration in weeks.
        duration_weeks: u32,
    },
    /// Demand-side: deterrence messaging (search-ad redirects, press
    /// coverage) with an initial effect of `pct` percent that decays
    /// exponentially: in week `w` since the shock the log coefficient is
    /// `ln(1 + pct/100) · 2^(−w / half_life_weeks)`. The effect never
    /// switches off; it decays below measurability.
    Deterrence {
        /// Initial mean percentage change; must be > −100.
        pct: f64,
        /// Half-life of the log-scale effect, in weeks (> 0).
        half_life_weeks: f64,
    },
}

impl ShockKind {
    /// The `.scn` keyword for this shock kind.
    pub fn keyword(&self) -> &'static str {
        match self {
            ShockKind::SupplyCut { .. } => "supply_cut",
            ShockKind::DemandShift { .. } => "demand_shift",
            ShockKind::Displacement { .. } => "displacement",
            ShockKind::Reprisal { .. } => "reprisal",
            ShockKind::DomainSeizure { .. } => "domain_seizure",
            ShockKind::Rebrand { .. } => "rebrand",
            ShockKind::PaymentFriction { .. } => "payment_friction",
            ShockKind::Deterrence { .. } => "deterrence",
        }
    }

    /// Whether this kind perturbs demand (vs the population structure).
    fn is_demand_side(&self) -> bool {
        matches!(
            self,
            ShockKind::DemandShift { .. }
                | ShockKind::Reprisal { .. }
                | ShockKind::DomainSeizure { .. }
                | ShockKind::PaymentFriction { .. }
                | ShockKind::Deterrence { .. }
        )
    }
}

/// A [`ShockKind`] anchored to a calendar date. The shock lands in the
/// week containing `date` (structural kinds) or starts its effect clock
/// at that week (demand-side kinds).
#[derive(Debug, Clone, PartialEq)]
pub struct Shock {
    /// Anchor date; the effective week is `date.week_start()`.
    pub date: Date,
    /// What happens.
    pub kind: ShockKind,
}

/// A named, ordered composition of timed shocks — one intervention
/// programme the market simulator can play out end to end.
///
/// Distinct from `booters_core::Scenario` (a *simulated run*): a
/// `ScenarioSpec` is the *description* that configures one
/// (`MarketConfig::scenario`). Specs round-trip through the `.scn` text
/// format: [`ScenarioSpec::to_scn`] is the canonical formatter and
/// `crate::scn::parse_scn` the parser.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Machine name (`[a-z0-9_-]+`), used in file names and goldens.
    pub name: String,
    /// Human title shown in reports.
    pub title: String,
    /// Literature citation, when the scenario reproduces a published
    /// intervention.
    pub cite: Option<String>,
    /// The shocks, in application order (order matters for structural
    /// shocks sharing a week — see the module docs).
    pub shocks: Vec<Shock>,
}

impl ScenarioSpec {
    /// An empty spec: the no-intervention counterfactual baseline.
    pub fn baseline() -> ScenarioSpec {
        ScenarioSpec {
            name: "baseline".to_string(),
            title: "No-intervention counterfactual".to_string(),
            cite: None,
            shocks: Vec::new(),
        }
    }

    /// Sum of all demand-side log deltas active for `country` in the week
    /// starting at `monday` (which must be a Monday). Structural shocks
    /// contribute nothing here — they act through the population.
    pub fn log_demand_delta(&self, country: Country, monday: Date) -> f64 {
        ShockPlan::new(self).log_demand_delta(country, monday.to_days())
    }

    /// Intervention windows for the analysis pipeline: one dummy per
    /// demand-side shock, named `s{i}_{keyword}` by position so windows
    /// are unique even when a kind repeats. A [`ShockKind::Deterrence`]
    /// window approximates the exponential decay with a box of
    /// `ceil(3·half_life)` weeks (~88% of the integrated effect);
    /// structural shocks get no window — they reallocate volume without
    /// changing country totals.
    pub fn windows(&self) -> Vec<InterventionWindow> {
        self.shocks
            .iter()
            .enumerate()
            .filter_map(|(i, shock)| {
                let name = format!("s{}_{}", i + 1, shock.kind.keyword());
                let (delay, duration) = match shock.kind {
                    ShockKind::DemandShift {
                        delay_weeks,
                        duration_weeks,
                        ..
                    } => (delay_weeks, duration_weeks),
                    ShockKind::Reprisal { duration_weeks, .. }
                    | ShockKind::DomainSeizure { duration_weeks, .. }
                    | ShockKind::PaymentFriction { duration_weeks, .. } => (0, duration_weeks),
                    ShockKind::Deterrence {
                        half_life_weeks, ..
                    } => (0, (3.0 * half_life_weeks).ceil().max(1.0) as u32),
                    ShockKind::SupplyCut { .. }
                    | ShockKind::Displacement { .. }
                    | ShockKind::Rebrand { .. } => return None,
                };
                Some(InterventionWindow::delayed(
                    &name,
                    shock.date,
                    delay as usize,
                    duration as usize,
                ))
            })
            .collect()
    }

    /// Render the canonical `.scn` source for this spec. Parsing the
    /// result with `crate::scn::parse_scn` yields the spec back exactly
    /// (Rust's `f64` `Display` is shortest-round-trip), which the
    /// `forall!` property suite in `crates/market/tests/scn.rs` pins.
    pub fn to_scn(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "scenario {}", self.name);
        let _ = writeln!(out, "title \"{}\"", self.title);
        if let Some(cite) = &self.cite {
            let _ = writeln!(out, "cite \"{cite}\"");
        }
        for shock in &self.shocks {
            let _ = write!(out, "shock {} {}", shock.date, shock.kind.keyword());
            match &shock.kind {
                ShockKind::SupplyCut { class, count } => {
                    let _ = write!(out, " class={} count={count}", class.keyword());
                }
                ShockKind::DemandShift {
                    pct,
                    delay_weeks,
                    duration_weeks,
                } => {
                    let _ = write!(
                        out,
                        " pct={pct} delay={delay_weeks} duration={duration_weeks}"
                    );
                }
                ShockKind::Displacement { absorb } => {
                    let _ = write!(out, " absorb={absorb}");
                }
                ShockKind::Reprisal {
                    country,
                    pct,
                    duration_weeks,
                } => {
                    let _ = write!(
                        out,
                        " country={} pct={pct} duration={duration_weeks}",
                        country.label()
                    );
                }
                ShockKind::DomainSeizure {
                    domains,
                    pct,
                    recovery,
                    lag_weeks,
                    duration_weeks,
                } => {
                    let _ = write!(
                        out,
                        " domains={domains} pct={pct} recovery={recovery} \
                         lag={lag_weeks} duration={duration_weeks}"
                    );
                }
                ShockKind::Rebrand { migration } => {
                    let _ = write!(out, " migration={migration}");
                }
                ShockKind::PaymentFriction {
                    pct,
                    duration_weeks,
                } => {
                    let _ = write!(out, " pct={pct} duration={duration_weeks}");
                }
                ShockKind::Deterrence {
                    pct,
                    half_life_weeks,
                } => {
                    let _ = write!(out, " pct={pct} half_life={half_life_weeks}");
                }
            }
            out.push('\n');
        }
        out
    }
}

/// A spec compiled for stepping: every shock's onset week resolved once
/// to its Monday's day number ([`Date::to_days`]). Demand-side shocks
/// keep spec order; structural shocks are grouped by onset week, in spec
/// order within a week.
#[derive(Debug, Clone, Default)]
pub(crate) struct ShockPlan {
    demand: Vec<(i64, ShockKind)>,
    structural: Vec<(i64, Vec<ShockKind>)>,
}

impl ShockPlan {
    /// Compile `spec`.
    pub(crate) fn new(spec: &ScenarioSpec) -> ShockPlan {
        let mut plan = ShockPlan::default();
        for shock in &spec.shocks {
            let onset = shock.date.week_start().to_days();
            let kind = shock.kind.clone();
            if kind.is_demand_side() {
                plan.demand.push((onset, kind));
            } else if let Some((_, kinds)) = plan.structural.iter_mut().find(|(d, _)| *d == onset) {
                kinds.push(kind);
            } else {
                plan.structural.push((onset, vec![kind]));
            }
        }
        plan
    }

    /// [`ScenarioSpec::log_demand_delta`] for the week whose Monday is
    /// day number `monday`.
    pub(crate) fn log_demand_delta(&self, country: Country, monday: i64) -> f64 {
        let mut delta = 0.0;
        for (onset, kind) in &self.demand {
            let weeks = (monday - onset) as f64 / 7.0;
            if weeks < 0.0 {
                continue;
            }
            let w = weeks as u32;
            delta += match *kind {
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

    /// Structural shock kinds landing in the week whose Monday is day
    /// number `monday`, in spec order.
    pub(crate) fn structural_for(&self, monday: i64) -> &[ShockKind] {
        self.structural
            .iter()
            .find(|(d, _)| *d == monday)
            .map_or(&[], |(_, kinds)| kinds)
    }
}

/// Log-scale coefficient of a percentage change: `ln(1 + pct/100)`.
fn log_coef(pct: f64) -> f64 {
    (1.0 + pct / 100.0).ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec_with(kind: ShockKind) -> ScenarioSpec {
        ScenarioSpec {
            name: "t".into(),
            title: "t".into(),
            cite: None,
            shocks: vec![Shock {
                date: Date::new(2018, 1, 10),
                kind,
            }],
        }
    }

    #[test]
    fn demand_shift_respects_delay_and_duration() {
        let s = spec_with(ShockKind::DemandShift {
            pct: -50.0,
            delay_weeks: 2,
            duration_weeks: 3,
        });
        let onset = Date::new(2018, 1, 10).week_start();
        assert_eq!(s.log_demand_delta(Country::Us, onset), 0.0);
        assert_eq!(s.log_demand_delta(Country::Us, onset.add_days(7)), 0.0);
        let active = s.log_demand_delta(Country::Us, onset.add_days(14));
        assert!((active - 0.5f64.ln()).abs() < 1e-12, "active={active}");
        assert_eq!(s.log_demand_delta(Country::Us, onset.add_days(35)), 0.0);
    }

    #[test]
    fn reprisal_confines_to_its_country() {
        let s = spec_with(ShockKind::Reprisal {
            country: Country::Nl,
            pct: 146.0,
            duration_weeks: 4,
        });
        let onset = Date::new(2018, 1, 10).week_start();
        assert!(s.log_demand_delta(Country::Nl, onset) > 0.89);
        assert_eq!(s.log_demand_delta(Country::Us, onset), 0.0);
        assert_eq!(s.log_demand_delta(Country::Nl, onset.add_days(28)), 0.0);
    }

    #[test]
    fn domain_seizure_recovers_partially_after_lag() {
        let s = spec_with(ShockKind::DomainSeizure {
            domains: 27,
            pct: -40.0,
            recovery: 0.5,
            lag_weeks: 2,
            duration_weeks: 6,
        });
        let onset = Date::new(2018, 1, 10).week_start();
        let full = s.log_demand_delta(Country::Us, onset);
        let partial = s.log_demand_delta(Country::Us, onset.add_days(21));
        assert!((full - 0.6f64.ln()).abs() < 1e-12);
        assert!((partial - 0.8f64.ln()).abs() < 1e-12);
        assert!(partial > full, "recovery must shrink the cut");
        assert_eq!(s.log_demand_delta(Country::Us, onset.add_days(42)), 0.0);
    }

    #[test]
    fn deterrence_halves_every_half_life() {
        let s = spec_with(ShockKind::Deterrence {
            pct: -20.0,
            half_life_weeks: 4.0,
        });
        let onset = Date::new(2018, 1, 10).week_start();
        let d0 = s.log_demand_delta(Country::Us, onset);
        let d4 = s.log_demand_delta(Country::Us, onset.add_days(28));
        let d8 = s.log_demand_delta(Country::Us, onset.add_days(56));
        assert!((d4 - d0 / 2.0).abs() < 1e-12, "d0={d0} d4={d4}");
        assert!((d8 - d0 / 4.0).abs() < 1e-12);
        assert!(d0 < 0.0 && d8 > d0);
    }

    #[test]
    fn structural_kinds_are_demand_silent() {
        for kind in [
            ShockKind::SupplyCut {
                class: ClassSel::Major,
                count: 2,
            },
            ShockKind::Displacement { absorb: 0.6 },
            ShockKind::Rebrand { migration: 0.7 },
        ] {
            let s = spec_with(kind);
            let onset = Date::new(2018, 1, 10).week_start();
            assert_eq!(s.log_demand_delta(Country::Us, onset), 0.0);
            assert_eq!(ShockPlan::new(&s).structural_for(onset.to_days()).len(), 1);
            assert!(s.windows().is_empty());
        }
    }

    #[test]
    fn windows_are_uniquely_named_and_deterrence_is_boxed() {
        let spec = ScenarioSpec {
            name: "w".into(),
            title: "w".into(),
            cite: None,
            shocks: vec![
                Shock {
                    date: Date::new(2018, 1, 10),
                    kind: ShockKind::DemandShift {
                        pct: -30.0,
                        delay_weeks: 1,
                        duration_weeks: 5,
                    },
                },
                Shock {
                    date: Date::new(2018, 3, 1),
                    kind: ShockKind::Deterrence {
                        pct: -10.0,
                        half_life_weeks: 4.0,
                    },
                },
                Shock {
                    date: Date::new(2018, 3, 1),
                    kind: ShockKind::SupplyCut {
                        class: ClassSel::Any,
                        count: 1,
                    },
                },
            ],
        };
        let ws = spec.windows();
        assert_eq!(ws.len(), 2);
        assert_eq!(ws[0].name, "s1_demand_shift");
        assert_eq!(ws[0].delay_weeks, 1);
        assert_eq!(ws[0].duration_weeks, 5);
        assert_eq!(ws[1].name, "s2_deterrence");
        assert_eq!(ws[1].duration_weeks, 12); // ceil(3 · 4)
    }

    #[test]
    fn baseline_is_empty() {
        let b = ScenarioSpec::baseline();
        assert!(b.shocks.is_empty());
        assert!(b.windows().is_empty());
        assert_eq!(b.log_demand_delta(Country::Us, Date::new(2018, 1, 8)), 0.0);
    }
}
