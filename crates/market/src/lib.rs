#![allow(clippy::module_inception)]
#![warn(missing_docs)]
//! Agent-based simulator of the booter (DDoS-for-hire) market.
//!
//! The paper's raw data — who attacked whom, when, through which booter —
//! is proprietary, so this crate rebuilds the market that generated it.
//! The published regression coefficients (Tables 1 and 2) are embedded as
//! the ground-truth data-generating process: per-country weekly attack
//! intensities follow the paper's log-linear model (trend, monthly
//! seasonality, Easter, intervention windows), and the full analysis
//! pipeline in `booters-core` must *recover* those coefficients from the
//! simulated packet/flow data. Market structure (Figures 7 and 8) emerges
//! from booter agents: births, deaths, resurrections, displacement and
//! the self-reported attack counters with their PHP-counter artifacts.
//!
//! Modules:
//!
//! * [`events`] — the §2 timeline: all fifteen labelled interventions.
//! * [`calibration`] — the paper-derived constants (Table 1 coefficients,
//!   Table 2 per-country effects and durations, Table 3 country shares).
//! * [`demand`] — expected log-intensity of attacks per country per week.
//! * [`protocol_mix`] — protocol popularity over time (Figure 6): the
//!   LDAP rise, the CHARGEN/NTP era, China's distinct mix.
//! * [`booter`] — booter service agents and their self-report counters.
//! * [`lifecycle`] — population dynamics: births, deaths, resurrections
//!   and intervention kill-lists (Figure 8).
//! * [`market`] — the weekly simulation loop tying it all together.
//! * [`commands`] — conversion of weekly market output into packet-level
//!   [`booters_netsim::AttackCommand`]s.
//! * [`shocks`] — composable intervention-shock primitives and the
//!   [`ScenarioSpec`] type naming a timed composition of them.
//! * [`scn`] — the hand-rolled parser for the `.scn` scenario text
//!   format, plus the eight built-in scenarios.

pub mod booter;
pub mod calibration;
pub mod commands;
pub mod concentration;
pub mod demand;
pub mod events;
pub mod lifecycle;
pub mod market;
pub mod protocol_mix;
pub mod scn;
pub mod shocks;

pub use booter::{Booter, BooterState, BooterTraits, SizeClass};
pub use calibration::Calibration;
pub use events::{EventId, EventKind, InterventionEvent};
pub use market::{MarketSim, MarketConfig, WeekOutput};
pub use scn::{builtin_scenarios, parse_scn, ScnError, ScnErrorKind};
pub use shocks::{ClassSel, ScenarioSpec, Shock, ShockKind};
