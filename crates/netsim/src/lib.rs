#![warn(missing_docs)]
//! Packet-level simulator of reflected UDP amplification DoS attacks and
//! the hopscotch-style honeypot sensor fleet that observes them.
//!
//! The paper's primary dataset is "victim IPs seen by a large number of
//! honeypot machines roped into attacks" across ten UDP protocols, with
//! flows "group\[ed\] ... to the same victim IP or prefix for the same
//! protocol until there is a gap of at least 15 minutes", classified as an
//! attack when "any sensor received more than 5 packets". That trace is
//! proprietary, so this crate rebuilds the generative chain:
//!
//! * [`protocol`] — the ten UDP protocols with ports and amplification
//!   factors, plus era-dependent popularity (LDAP's rise drives the
//!   2017–2018 growth, §4.2).
//! * [`addr`] — IPv4 victim address model with per-country prefix blocks.
//! * [`packet`] — sensor packet records and per-command packet logs.
//! * [`reflector`] — the reflector population: real reflectors and
//!   honeypot sensors with hopscotch's defensive behaviours (per-victim
//!   rate limiting, fleet-wide victim reporting, white-hat scanner
//!   filtering).
//! * [`scanner`] — booter and white-hat scanners discovering reflectors.
//! * [`engine`] — turns attack commands (from `booters-market`) into
//!   per-sensor packet observations.
//! * [`flow`] — the paper's exact flow-grouping and attack/scan
//!   classification rules.
//! * [`coverage`] — per-protocol coverage estimation (what fraction of
//!   commanded attacks the sensors observed), mirroring the footnote-1
//!   coverage analysis.

pub mod addr;
pub mod attribution;
pub mod coverage;
pub mod engine;
pub mod flow;
pub mod packet;
pub mod protocol;
pub mod reflector;
pub mod scanner;

pub use addr::{Country, VictimAddr};
pub use engine::{AttackCommand, Engine, EngineConfig};
pub use flow::{
    classify_flows, group_flows_par, sort_flows, Flow, FlowClass, FlowGrouper, VictimKey,
};
pub use packet::SensorPacket;
pub use protocol::UdpProtocol;
