//! Booter service agents and their self-reported attack counters.
//!
//! §3 documents how booters display running totals straight out of their
//! SQL databases (`SELECT COUNT(*) FROM logs`), and the artifacts the
//! paper had to handle: one booter "counted from 150 000 rather than
//! zero", some "wipe their databases ... from time to time", one
//! "reported values which were regularly multiples of 1000 and we exclude
//! it". All three artifact types are modelled so the validation suite in
//! `booters-core` has something real to catch.

use booters_netsim::UdpProtocol;

/// Market size class of a booter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SizeClass {
    /// One of the handful of market-dominating services.
    Major,
    /// Mid-market service.
    Medium,
    /// Small, often unstable service.
    Small,
}

/// Lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BooterState {
    /// Operating and (if it self-reports) scrapeable.
    Alive,
    /// Not responding; may resurrect (§3: "how many subsequently
    /// reappear").
    Dead,
    /// Permanently gone (operator arrested / domain seized and abandoned).
    Retired,
}

/// One booter service.
#[derive(Debug, Clone)]
pub struct Booter {
    /// Stable identifier.
    pub id: u32,
    /// Size class.
    pub size: SizeClass,
    /// Market weight while alive (relative attack share).
    pub weight: f64,
    /// Current state.
    pub state: BooterState,
    /// Week index the booter entered the market.
    pub born_week: usize,
    /// Week index of the most recent death, if any.
    pub died_week: Option<usize>,
    /// Whether the booter displays an attack counter (Webstresser did not).
    pub self_reports: bool,
    /// True cumulative attacks performed.
    pub true_total: u64,
    /// Artifact: constant added to the displayed counter ("counted from
    /// 150 000 rather than zero").
    pub counter_offset: u64,
    /// Artifact: displayed counter is rounded to multiples of 1000 (the
    /// paper excludes this booter).
    pub rounds_to_1000: bool,
    /// Weekly probability of a database wipe (counter resets to zero).
    pub wipe_prob: f64,
    /// Whether the booter filters honeypots from its reflector lists
    /// (low-coverage methods like vDOS' 'SUDP').
    pub avoids_honeypots: bool,
    /// Protocols in this booter's attack portfolio.
    pub protocols: Vec<UdpProtocol>,
}

/// What an observer of the market reads of a booter: fields fixed when
/// the booter spawns, so a copy taken at birth stays exact for the
/// booter's whole life.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BooterTraits {
    /// [`Booter::avoids_honeypots`].
    pub avoids_honeypots: bool,
    /// The first of [`Booter::protocols`], if any.
    pub first_protocol: Option<UdpProtocol>,
}

impl Booter {
    /// The fields an observer reads (see [`BooterTraits`]).
    pub fn traits(&self) -> BooterTraits {
        BooterTraits {
            avoids_honeypots: self.avoids_honeypots,
            first_protocol: self.protocols.first().copied(),
        }
    }

    /// Record `n` attacks performed this week.
    pub fn record_attacks(&mut self, n: u64) {
        self.true_total += n;
    }

    /// Wipe the database (counter artifact).
    pub fn wipe(&mut self) {
        self.true_total = 0;
    }

    /// The counter a scraper would read, `None` when the booter does not
    /// display one or is not reachable.
    pub fn displayed_counter(&self) -> Option<u64> {
        if self.state != BooterState::Alive || !self.self_reports {
            return None;
        }
        let raw = self.true_total + self.counter_offset;
        Some(if self.rounds_to_1000 {
            (raw / 1000) * 1000
        } else {
            raw
        })
    }

    /// True when alive.
    pub fn is_alive(&self) -> bool {
        self.state == BooterState::Alive
    }

    /// Kill the booter (takedown, arrest, or churn). Permanent when
    /// `permanent` (retired), otherwise it may resurrect.
    pub fn kill(&mut self, week: usize, permanent: bool) {
        if self.state == BooterState::Alive {
            self.state = if permanent {
                BooterState::Retired
            } else {
                BooterState::Dead
            };
            self.died_week = Some(week);
        }
    }

    /// Bring a dead booter back ("resurrection").
    pub fn resurrect(&mut self) {
        if self.state == BooterState::Dead {
            self.state = BooterState::Alive;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn booter() -> Booter {
        Booter {
            id: 1,
            size: SizeClass::Medium,
            weight: 0.05,
            state: BooterState::Alive,
            born_week: 0,
            died_week: None,
            self_reports: true,
            true_total: 0,
            counter_offset: 0,
            rounds_to_1000: false,
            wipe_prob: 0.0,
            avoids_honeypots: false,
            protocols: vec![UdpProtocol::Ldap, UdpProtocol::Dns],
        }
    }

    #[test]
    fn counter_accumulates() {
        let mut b = booter();
        b.record_attacks(100);
        b.record_attacks(250);
        assert_eq!(b.displayed_counter(), Some(350));
        assert_eq!(b.true_total, 350);
    }

    #[test]
    fn offset_artifact_inflates_display() {
        let mut b = booter();
        b.counter_offset = 150_000;
        b.record_attacks(42);
        assert_eq!(b.displayed_counter(), Some(150_042));
    }

    #[test]
    fn rounding_artifact() {
        let mut b = booter();
        b.rounds_to_1000 = true;
        b.record_attacks(12_345);
        assert_eq!(b.displayed_counter(), Some(12_000));
    }

    #[test]
    fn wipe_resets_counter_but_not_offset() {
        let mut b = booter();
        b.counter_offset = 1000;
        b.record_attacks(500);
        b.wipe();
        assert_eq!(b.displayed_counter(), Some(1000));
    }

    #[test]
    fn dead_booters_display_nothing() {
        let mut b = booter();
        b.record_attacks(10);
        b.kill(5, false);
        assert_eq!(b.displayed_counter(), None);
        assert_eq!(b.state, BooterState::Dead);
        assert_eq!(b.died_week, Some(5));
        b.resurrect();
        assert_eq!(b.displayed_counter(), Some(10));
    }

    #[test]
    fn retired_booters_cannot_resurrect() {
        let mut b = booter();
        b.kill(3, true);
        b.resurrect();
        assert_eq!(b.state, BooterState::Retired);
    }

    #[test]
    fn non_reporting_booters_display_nothing() {
        let mut b = booter();
        b.self_reports = false;
        b.record_attacks(99);
        assert_eq!(b.displayed_counter(), None);
    }

    #[test]
    fn killing_a_dead_booter_keeps_first_death_week() {
        let mut b = booter();
        b.kill(5, false);
        b.kill(9, false);
        assert_eq!(b.died_week, Some(5));
    }
}
