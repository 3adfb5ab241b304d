//! The reflector population: genuine open reflectors and honeypot sensors.
//!
//! Honeypot sensors implement the hopscotch behaviours described in the
//! paper's ethics appendix:
//!
//! * they rate-limit packets reflected to any single victim;
//! * when a sensor identifies a victim "this is reported to a central
//!   server which informs all the other sensors ... so that they all
//!   refuse to reflect any packets at all to the victim" — but they keep
//!   *logging* (that is the dataset);
//! * they do not respond to known white-hat scanners at all (to avoid
//!   polluting the scanners' results), and hence never appear in
//!   white-hat-derived reflector lists.

use crate::addr::VictimAddr;
use crate::packet::SensorPacket;
use crate::protocol::UdpProtocol;
use std::collections::HashMap;

/// Per-victim reflection state on one sensor.
#[derive(Debug, Clone, Copy, Default)]
struct VictimState {
    /// Packets reflected so far in the current window.
    reflected: u32,
    /// Window start time.
    window_start: u64,
}

/// Configuration of the honeypot fleet.
#[derive(Debug, Clone, Copy)]
pub struct SensorConfig {
    /// Number of honeypot sensors.
    pub sensors: u32,
    /// Max packets a sensor reflects to one victim per window before the
    /// victim is reported fleet-wide.
    pub reflect_limit: u32,
    /// Rate-limit window in seconds.
    pub window_secs: u64,
}

impl Default for SensorConfig {
    fn default() -> Self {
        SensorConfig {
            sensors: 60,
            reflect_limit: 5,
            window_secs: 3600,
        }
    }
}

/// The honeypot fleet with its shared victim blocklist.
#[derive(Debug, Clone)]
pub struct SensorFleet {
    config: SensorConfig,
    /// Fleet-wide blocklist: once a victim is reported, no sensor reflects
    /// to it (but all keep logging).
    blocklist: HashMap<(VictimAddr, UdpProtocol), u64>,
    /// Per-(sensor, victim, protocol) rate-limit state.
    state: HashMap<(u32, VictimAddr, UdpProtocol), VictimState>,
    /// Total packets reflected (i.e. actually amplified towards victims).
    pub reflected_packets: u64,
    /// Total packets absorbed (logged but not reflected).
    pub absorbed_packets: u64,
}

/// What the fleet did with one incoming spoofed packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SensorAction {
    /// Packet was reflected (amplified traffic reached the victim).
    Reflected,
    /// Packet was logged but absorbed (victim on the blocklist or over the
    /// rate limit).
    Absorbed,
    /// Packet came from a white-hat scanner: ignored entirely, not logged
    /// as victim traffic.
    IgnoredWhiteHat,
}

impl SensorFleet {
    /// Create a fleet.
    pub fn new(config: SensorConfig) -> SensorFleet {
        SensorFleet {
            config,
            blocklist: HashMap::new(),
            state: HashMap::new(),
            reflected_packets: 0,
            absorbed_packets: 0,
        }
    }

    /// Number of sensors.
    pub fn sensor_count(&self) -> u32 {
        self.config.sensors
    }

    /// Process one spoofed packet arriving at `sensor`. Returns what
    /// happened; the caller logs a [`crate::packet::SensorPacket`] unless
    /// the packet was white-hat traffic.
    pub fn handle_packet(
        &mut self,
        sensor: u32,
        time: u64,
        victim: VictimAddr,
        protocol: UdpProtocol,
        from_white_hat: bool,
    ) -> SensorAction {
        if from_white_hat {
            return SensorAction::IgnoredWhiteHat;
        }
        if self.blocklist.contains_key(&(victim, protocol)) {
            self.absorbed_packets += 1;
            return SensorAction::Absorbed;
        }
        self.rate_limit(sensor, time, victim, protocol).0
    }

    /// Replay logged attack packets through the fleet, in slice order:
    /// the same state and counters as calling [`SensorFleet::handle_packet`]
    /// on each packet in turn (none from white-hat scanners).
    ///
    /// Built for one command's log, where every packet shares a victim
    /// and protocol: the blocklist is consulted once per run of packets
    /// with the same victim and protocol, rate-limit state is touched
    /// only until the run's victim is reported — about the first 241 of
    /// a typical 1,440-packet log — and the rest of the run is counted as
    /// absorbed in bulk. That is exact because a blocklisted victim's
    /// packets never reach the rate-limit state.
    pub fn handle_command(&mut self, packets: &[SensorPacket]) {
        for run in packets.chunk_by(|a, b| a.victim == b.victim && a.protocol == b.protocol) {
            let (victim, protocol) = (run[0].victim, run[0].protocol);
            let mut replayed = 0;
            if !self.is_blocklisted(victim, protocol) {
                for p in run {
                    replayed += 1;
                    if self.rate_limit(p.sensor, p.time, victim, protocol).1 {
                        break;
                    }
                }
            }
            self.absorbed_packets += (run.len() - replayed) as u64;
        }
    }

    /// Rate-limit one packet to a victim that is not blocklisted. Returns
    /// the action and whether this packet tripped the limit, reporting
    /// the victim fleet-wide.
    fn rate_limit(
        &mut self,
        sensor: u32,
        time: u64,
        victim: VictimAddr,
        protocol: UdpProtocol,
    ) -> (SensorAction, bool) {
        let entry = self
            .state
            .entry((sensor, victim, protocol))
            .or_insert(VictimState {
                reflected: 0,
                window_start: time,
            });
        if time.saturating_sub(entry.window_start) >= self.config.window_secs {
            entry.reflected = 0;
            entry.window_start = time;
        }
        if entry.reflected < self.config.reflect_limit {
            entry.reflected += 1;
            self.reflected_packets += 1;
            // Hitting the limit identifies a victim under attack: report
            // fleet-wide so every sensor absorbs from now on.
            let reported = entry.reflected == self.config.reflect_limit;
            if reported {
                self.blocklist.insert((victim, protocol), time);
            }
            (SensorAction::Reflected, reported)
        } else {
            self.absorbed_packets += 1;
            (SensorAction::Absorbed, false)
        }
    }

    /// True when the victim has been reported fleet-wide.
    pub fn is_blocklisted(&self, victim: VictimAddr, protocol: UdpProtocol) -> bool {
        self.blocklist.contains_key(&(victim, protocol))
    }

    /// Expire blocklist entries older than `ttl_secs` (victims are
    /// unblocked once the attack has long passed, so later unrelated
    /// attacks are processed afresh).
    pub fn expire_blocklist(&mut self, now: u64, ttl_secs: u64) {
        self.blocklist.retain(|_, &mut t| now.saturating_sub(t) < ttl_secs);
        // Drop rate-limit state older than the window to bound memory.
        let window = self.config.window_secs;
        self.state
            .retain(|_, st| now.saturating_sub(st.window_start) < 2 * window);
    }

    /// Fraction of all handled attack packets that were absorbed rather
    /// than reflected — the ethics appendix argues this makes the sensors
    /// net-protective.
    pub fn absorption_ratio(&self) -> f64 {
        let total = self.reflected_packets + self.absorbed_packets;
        if total == 0 {
            return 0.0;
        }
        self.absorbed_packets as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn victim() -> VictimAddr {
        VictimAddr::from_octets(25, 1, 2, 3)
    }

    fn fleet() -> SensorFleet {
        SensorFleet::new(SensorConfig {
            sensors: 4,
            reflect_limit: 5,
            window_secs: 3600,
        })
    }

    #[test]
    fn reflects_until_limit_then_blocklists() {
        let mut f = fleet();
        for i in 0..5 {
            let a = f.handle_packet(0, i, victim(), UdpProtocol::Ntp, false);
            assert_eq!(a, SensorAction::Reflected, "packet {i}");
        }
        assert!(f.is_blocklisted(victim(), UdpProtocol::Ntp));
        let a = f.handle_packet(0, 6, victim(), UdpProtocol::Ntp, false);
        assert_eq!(a, SensorAction::Absorbed);
    }

    #[test]
    fn blocklist_is_fleet_wide() {
        let mut f = fleet();
        for i in 0..5 {
            f.handle_packet(0, i, victim(), UdpProtocol::Ntp, false);
        }
        // A different sensor also refuses now.
        let a = f.handle_packet(3, 10, victim(), UdpProtocol::Ntp, false);
        assert_eq!(a, SensorAction::Absorbed);
    }

    #[test]
    fn blocklist_is_per_protocol() {
        let mut f = fleet();
        for i in 0..5 {
            f.handle_packet(0, i, victim(), UdpProtocol::Ntp, false);
        }
        // Same victim, different protocol: fresh state.
        let a = f.handle_packet(0, 10, victim(), UdpProtocol::Dns, false);
        assert_eq!(a, SensorAction::Reflected);
    }

    #[test]
    fn white_hat_scanners_are_ignored() {
        let mut f = fleet();
        let a = f.handle_packet(0, 0, victim(), UdpProtocol::Ntp, true);
        assert_eq!(a, SensorAction::IgnoredWhiteHat);
        assert_eq!(f.reflected_packets, 0);
        assert_eq!(f.absorbed_packets, 0);
    }

    #[test]
    fn absorption_dominates_long_attacks() {
        let mut f = fleet();
        for i in 0..1000 {
            f.handle_packet((i % 4) as u32, i, victim(), UdpProtocol::Ldap, false);
        }
        assert!(f.absorption_ratio() > 0.9, "ratio={}", f.absorption_ratio());
    }

    #[test]
    fn expiry_unblocks_old_victims() {
        let mut f = fleet();
        for i in 0..5 {
            f.handle_packet(0, i, victim(), UdpProtocol::Ntp, false);
        }
        assert!(f.is_blocklisted(victim(), UdpProtocol::Ntp));
        f.expire_blocklist(50_000, 86_400);
        assert!(f.is_blocklisted(victim(), UdpProtocol::Ntp)); // not yet
        f.expire_blocklist(100_000_000, 86_400);
        assert!(!f.is_blocklisted(victim(), UdpProtocol::Ntp));
        let a = f.handle_packet(0, 100_000_001, victim(), UdpProtocol::Ntp, false);
        assert_eq!(a, SensorAction::Reflected);
    }

    #[test]
    fn rate_window_resets() {
        let mut f = SensorFleet::new(SensorConfig {
            sensors: 1,
            reflect_limit: 3,
            window_secs: 60,
        });
        // Two packets, then wait past the window: counter resets and the
        // victim is never reported.
        assert_eq!(f.handle_packet(0, 0, victim(), UdpProtocol::Dns, false), SensorAction::Reflected);
        assert_eq!(f.handle_packet(0, 1, victim(), UdpProtocol::Dns, false), SensorAction::Reflected);
        assert_eq!(f.handle_packet(0, 100, victim(), UdpProtocol::Dns, false), SensorAction::Reflected);
        assert_eq!(f.handle_packet(0, 101, victim(), UdpProtocol::Dns, false), SensorAction::Reflected);
        assert!(!f.is_blocklisted(victim(), UdpProtocol::Dns));
    }
}
