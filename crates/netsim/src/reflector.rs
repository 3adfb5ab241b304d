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
use crate::flow::SplitMixHasher;
use crate::packet::CommandLog;
use crate::protocol::UdpProtocol;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

/// Per-victim reflection state on one sensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct VictimState {
    /// Packets reflected so far in the current window.
    reflected: u32,
    /// Window start time.
    window_start: u64,
}

/// What a sensor's rate limiter did with one packet to a victim that is
/// not blocklisted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Admit {
    /// Reflected, still under the limit.
    Reflected,
    /// Reflected, and this packet reached the limit: the victim is
    /// reported fleet-wide.
    Reported,
    /// Over the limit: logged but absorbed.
    Absorbed,
}

impl VictimState {
    /// The state a sensor opens for a victim at its first packet.
    fn opened_at(time: u64) -> VictimState {
        VictimState {
            reflected: 0,
            window_start: time,
        }
    }

    /// Rate-limit one packet arriving at `time`.
    fn admit(&mut self, time: u64, config: &SensorConfig) -> Admit {
        if time.saturating_sub(self.window_start) >= config.window_secs {
            self.reflected = 0;
            self.window_start = time;
        }
        if self.reflected < config.reflect_limit {
            self.reflected += 1;
            // Hitting the limit identifies a victim under attack.
            if self.reflected == config.reflect_limit {
                Admit::Reported
            } else {
                Admit::Reflected
            }
        } else {
            Admit::Absorbed
        }
    }
}

/// Configuration of the honeypot fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

/// Fleet maps hash with [`SplitMixHasher`]: keys come from the simulator,
/// and nothing iterates these maps into an output.
type FleetMap<K, V> = HashMap<K, V, BuildHasherDefault<SplitMixHasher>>;

/// The honeypot fleet with its shared victim blocklist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SensorFleet {
    config: SensorConfig,
    /// Fleet-wide blocklist: once a victim is reported, no sensor reflects
    /// to it (but all keep logging).
    blocklist: FleetMap<(VictimAddr, UdpProtocol), u64>,
    /// Per-(sensor, victim, protocol) rate-limit state.
    state: FleetMap<(u32, VictimAddr, UdpProtocol), VictimState>,
    /// Total packets reflected (i.e. actually amplified towards victims).
    pub reflected_packets: u64,
    /// Total packets absorbed (logged but not reflected).
    pub absorbed_packets: u64,
}

/// The order in which [`SensorFleet::handle_command`] replays a log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayOrder {
    /// Generation order, honeypot by honeypot and slot by slot: the
    /// single-command path.
    Generation,
    /// Stable time order, ties in generation order: a batch.
    Time,
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
            blocklist: FleetMap::default(),
            state: FleetMap::default(),
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
        let st = self
            .state
            .entry((sensor, victim, protocol))
            .or_insert(VictimState::opened_at(time));
        match st.admit(time, &self.config) {
            Admit::Absorbed => {
                self.absorbed_packets += 1;
                SensorAction::Absorbed
            }
            admit => {
                self.reflected_packets += 1;
                if admit == Admit::Reported {
                    self.blocklist.insert((victim, protocol), time);
                }
                SensorAction::Reflected
            }
        }
    }

    /// Replay one command's log through the fleet: the same state,
    /// blocklist and counters as calling [`SensorFleet::handle_packet`]
    /// on each of its packets in `order` (none from white-hat scanners).
    ///
    /// The replay works sensor by sensor, not packet by packet. Rate-limit
    /// state is per `(sensor, victim, protocol)`, and until the victim is
    /// reported only the packet that reports it touches the blocklist, so
    /// each sensor's packets run independently up to the report. Each
    /// sensor's packets come in slot order in either replay order, since
    /// its offsets never decrease in `k`. The report happens at the
    /// first packet in replay order at which some sensor, run alone,
    /// reaches the limit: the least `(time, pos, k)` in time order, the
    /// least `(pos, k)` in generation order. Each sensor then replays its
    /// packets up to that one, one map entry per sensor, and the rest
    /// of the log is absorbed: a reported victim's packets never reach
    /// the rate-limit state (DESIGN.md §5k).
    ///
    /// The log's honeypot ids must be distinct and each honeypot's
    /// offsets non-decreasing ([`CommandLog::is_well_formed`]); debug
    /// builds check both.
    pub fn handle_command(&mut self, log: &CommandLog, order: ReplayOrder) {
        debug_assert!(log.is_well_formed(), "malformed command log");
        let (victim, protocol) = (log.victim, log.protocol);
        let total = log.offsets.len() as u64;
        if self.blocklist.contains_key(&(victim, protocol)) {
            self.absorbed_packets += total;
            return;
        }
        let at = |pos: usize, k: usize, offset: u32| match order {
            ReplayOrder::Time => (offset, pos, k),
            ReplayOrder::Generation => (0, pos, k),
        };
        // Pass 1: the reporting packet, as (order key, time).
        let mut report: Option<((u32, usize, usize), u64)> = None;
        for (pos, (sensor, run)) in log.runs().enumerate() {
            let mut st = self.state.get(&(sensor, victim, protocol)).copied();
            for (k, &offset) in run.iter().enumerate() {
                if report.is_some_and(|(r, _)| at(pos, k, offset) > r) {
                    break;
                }
                let time = log.start + offset as u64;
                let st = st.get_or_insert(VictimState::opened_at(time));
                if st.admit(time, &self.config) == Admit::Reported {
                    report = Some((at(pos, k, offset), time));
                    break;
                }
            }
        }
        // Pass 2: each sensor's packets up to the report.
        let mut replayed = 0;
        for (pos, (sensor, run)) in log.runs().enumerate() {
            let n = match report {
                None => run.len(),
                Some((r, _)) => run
                    .iter()
                    .enumerate()
                    .take_while(|&(k, &offset)| at(pos, k, offset) <= r)
                    .count(),
            };
            if n == 0 {
                continue;
            }
            let st = self
                .state
                .entry((sensor, victim, protocol))
                .or_insert(VictimState::opened_at(log.start + run[0] as u64));
            for &offset in &run[..n] {
                match st.admit(log.start + offset as u64, &self.config) {
                    Admit::Absorbed => self.absorbed_packets += 1,
                    _ => self.reflected_packets += 1,
                }
            }
            replayed += n as u64;
        }
        if let Some((_, time)) = report {
            self.blocklist.insert((victim, protocol), time);
        }
        self.absorbed_packets += total - replayed;
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

    fn log(honeypots: &[u32], offsets: &[u32]) -> CommandLog {
        CommandLog {
            start: 0,
            victim: victim(),
            protocol: UdpProtocol::Dns,
            honeypots: honeypots.into(),
            offsets: offsets.to_vec(),
        }
    }

    #[test]
    fn only_generator_shaped_logs_are_well_formed() {
        assert!(log(&[], &[]).is_well_formed());
        assert!(log(&[3, 1], &[0, 0, 5, 7]).is_well_formed());
        assert!(!log(&[3, 1], &[0, 0, 7, 5]).is_well_formed(), "a run decreases");
        assert!(!log(&[3, 3], &[0, 1, 0, 1]).is_well_formed(), "an id repeats");
        assert!(!log(&[3, 1], &[0, 1, 2]).is_well_formed(), "runs differ in length");
        assert!(!log(&[], &[4]).is_well_formed(), "packets without honeypots");
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "malformed command log")]
    fn replaying_a_malformed_log_panics_in_debug_builds() {
        fleet().handle_command(&log(&[3, 3], &[0, 1, 0, 1]), ReplayOrder::Time);
    }
}
