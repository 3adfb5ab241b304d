//! The attack engine: turns booter attack commands into honeypot sensor
//! observations.
//!
//! A booter attack on `victim` via `protocol` sprays spoofed requests over
//! the booter's reflector list. Because hopscotch sensors answer booter
//! scanners, honeypots sit inside those lists, so each attack delivers a
//! share of its packets to sensors — that share is what the dataset sees.
//!
//! The engine offers two fidelities:
//!
//! * [`Engine::simulate_attack_packets`] — full packet-level generation:
//!   every sensor hit is logged as a [`SensorPacket`] and pushed through
//!   the [`SensorFleet`] rate-limit/blocklist machinery. Used by the
//!   measurement-pipeline tests, examples and benches.
//! * [`Engine::would_observe`] — the aggregate fast path used for the
//!   five-year scenario: decides whether the command would be classified
//!   as an attack by the paper's pipeline (≥1 honeypot in the booter's
//!   list and >5 packets landing on a single sensor). A property test
//!   asserts the two paths agree.

use crate::addr::VictimAddr;
use crate::attribution::BooterFingerprint;
use crate::flow::{group_logs, sort_flows, Flow, VictimKey};
use crate::packet::{CommandLog, SensorPacket};
use crate::protocol::UdpProtocol;
use crate::reflector::{ReplayOrder, SensorConfig, SensorFleet};
use crate::scanner::{draw_scan, Found, ScannerKind};
use booters_testkit::rngs::StdRng;
use booters_testkit::{Rng, SeedableRng};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

/// One attack ordered from a booter (produced by `booters-market`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttackCommand {
    /// Start time, seconds since scenario start.
    pub time: u64,
    /// Victim address.
    pub victim: VictimAddr,
    /// Reflection protocol used.
    pub protocol: UdpProtocol,
    /// Attack duration in seconds (paper: "over 50% of attacks were less
    /// than 5 minutes").
    pub duration_secs: u32,
    /// Spoofed requests per second across the whole reflector list.
    pub packets_per_second: u32,
    /// Identifier of the booter running the attack.
    pub booter: u32,
    /// True for booters that filter honeypots out of their lists
    /// ("perhaps choose not to reflect packets off the honeypots" §4.2) —
    /// this is what produces low-coverage methods like vDOS' 'SUDP'.
    pub avoids_honeypots: bool,
}

/// Engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Honeypot fleet configuration.
    pub sensors: SensorConfig,
    /// Scan effort booters put into reflector discovery (0, 1].
    pub scan_effort: f64,
    /// How often booters rebuild their reflector lists, in seconds.
    pub rescan_interval_secs: u64,
    /// Cap on logged packets per sensor per attack (bounds memory; the
    /// classifier only needs ">5").
    pub packet_log_cap: u32,
    /// Probability a honeypot survives in the list of an avoiding booter.
    pub avoidance_leak: f64,
    /// Working-set size: reflectors a booter actually sprays per attack.
    /// Honeypots are preferentially retained (they answer reliably — by
    /// design, "so that they use the honeypots"), real reflectors fill the
    /// remainder.
    pub working_set: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            sensors: SensorConfig::default(),
            scan_effort: 0.4,
            rescan_interval_secs: 7 * 86_400,
            packet_log_cap: 24,
            avoidance_leak: 0.09, // vDOS 'SUDP' coverage was 9%
            working_set: 500,
            seed: 0xB00733,
        }
    }
}

/// A booter's current reflector list for one protocol. The honeypot ids
/// are shared, so a batch hands each command its list without copying
/// it — and an earlier command keeps its list even if a later command of
/// the same batch triggers a rescan.
#[derive(Debug, Clone)]
struct ListState {
    honeypots: Arc<[u32]>,
    real_reflectors: usize,
    refreshed_at: u64,
}

impl ListState {
    /// Expected packets landing on each honeypot in the booter's working
    /// set. Honeypots are always in the working set (they answer every
    /// probe and never go offline); real reflectors fill the remainder up
    /// to the configured working-set size.
    fn per_honeypot_packets(&self, cmd: &AttackCommand, working_set: usize) -> u64 {
        let total = cmd.packets_per_second as u64 * cmd.duration_secs as u64;
        let hp = self.honeypots.len();
        let real = self.real_reflectors.min(working_set.saturating_sub(hp));
        let reflectors = (hp + real).max(1) as u64;
        total / reflectors
    }

    /// Packets logged per honeypot for `cmd`: the expected count, capped.
    fn logged_per_sensor(&self, cmd: &AttackCommand, config: &EngineConfig) -> u32 {
        self.per_honeypot_packets(cmd, config.working_set)
            .min(config.packet_log_cap as u64) as u32
    }
}

/// The two honeypot lists nearly every scan yields — the whole fleet
/// and none — shared by every booter that holds one, so a rescan that
/// finds one of them only bumps a reference count.
#[derive(Debug)]
struct SharedLists {
    whole_fleet: Arc<[u32]>,
    none: Arc<[u32]>,
}

/// Scan for a booter's reflector list. Avoiding booters fingerprint the
/// fleet: with probability 1−leak the scan filters every honeypot out,
/// so per-attack coverage for these booters ≈ the leak rate (vDOS'
/// 'SUDP' was seen at 9%). A list is built only when the scan missed a
/// sensor, which takes a `scan_effort` below 0.25.
fn scan_list(
    config: &EngineConfig,
    shared: &SharedLists,
    protocol: UdpProtocol,
    avoids: bool,
    now: u64,
    rng: &mut StdRng,
) -> ListState {
    let leak = avoids.then_some(config.avoidance_leak);
    let sensors = shared.whole_fleet.len() as u32;
    let (real_reflectors, found) = draw_scan(
        protocol,
        ScannerKind::Booter,
        config.scan_effort,
        sensors,
        leak,
        rng,
    );
    let honeypots = match found {
        Found::None => Arc::clone(&shared.none),
        Found::All => Arc::clone(&shared.whole_fleet),
        Found::Some(ids) => ids.into(),
    };
    ListState {
        honeypots,
        real_reflectors,
        refreshed_at: now,
    }
}

/// The attack engine.
#[derive(Debug)]
pub struct Engine {
    config: EngineConfig,
    fleet: SensorFleet,
    rng: StdRng,
    shared: SharedLists,
    lists: HashMap<(u32, UdpProtocol), ListState>,
}

impl Engine {
    /// Create an engine.
    pub fn new(config: EngineConfig) -> Engine {
        let fleet = SensorFleet::new(config.sensors);
        Engine {
            shared: SharedLists {
                whole_fleet: (0..fleet.sensor_count()).collect(),
                none: Arc::new([]),
            },
            fleet,
            rng: StdRng::seed_from_u64(config.seed),
            config,
            lists: HashMap::new(),
        }
    }

    /// Borrow the honeypot fleet (reflect/absorb statistics).
    pub fn fleet(&self) -> &SensorFleet {
        &self.fleet
    }

    /// The booter's current reflector list for a protocol, rescanning if
    /// stale.
    fn list_for(&mut self, booter: u32, protocol: UdpProtocol, now: u64, avoids: bool) -> &ListState {
        let Engine { config, shared, rng, lists, .. } = self;
        let mut scan = || scan_list(config, shared, protocol, avoids, now, rng);
        match lists.entry((booter, protocol)) {
            Entry::Occupied(e) => {
                let st = e.into_mut();
                if now.saturating_sub(st.refreshed_at) >= config.rescan_interval_secs {
                    *st = scan();
                }
                st
            }
            Entry::Vacant(e) => e.insert(scan()),
        }
    }

    /// Fast path: would the paper's pipeline record this command as an
    /// attack? True iff the booter's list contains at least one honeypot
    /// and more than 5 packets land on a single sensor.
    pub fn would_observe(&mut self, cmd: &AttackCommand) -> bool {
        let ws = self.config.working_set;
        let st = self.list_for(cmd.booter, cmd.protocol, cmd.time, cmd.avoids_honeypots);
        !st.honeypots.is_empty()
            && st.per_honeypot_packets(cmd, ws) > crate::flow::ATTACK_PACKET_THRESHOLD as u64
    }

    /// Full path: generate the sensor packet log for one command and run
    /// it through the fleet's reflect/absorb machinery. Packets are drawn
    /// from the engine's own RNG stream and reach the fleet in generation
    /// order; they are returned in time order.
    pub fn simulate_attack_packets(&mut self, cmd: &AttackCommand) -> Vec<SensorPacket> {
        let config = self.config;
        let st = self.list_for(cmd.booter, cmd.protocol, cmd.time, cmd.avoids_honeypots);
        let honeypots = Arc::clone(&st.honeypots);
        let logged = st.logged_per_sensor(cmd, &config);
        let mut packets = Vec::with_capacity(honeypots.len() * logged as usize);
        let log = draw_log(cmd, &honeypots, logged, &mut self.rng, Some(&mut packets));
        self.fleet.handle_command(&log, ReplayOrder::Generation);
        order_command_log(cmd, packets)
    }

    /// Deterministic parallel batch generation: the packet logs for many
    /// commands at once, on the configured thread count.
    ///
    /// Three phases keep the output a pure function of the engine state
    /// and the command list, independent of thread count:
    ///
    /// 1. **Prepare (sequential).** Reflector lists are resolved through
    ///    the shared engine RNG in submission order — exactly the draws a
    ///    sequential loop would make — and one batch seed is drawn.
    /// 2. **Synthesise (parallel).** Each command's packets are drawn
    ///    from its own RNG stream, split off the batch seed by submission
    ///    index ([`booters_par::stream_seed`]), and put in time order;
    ///    results merge in submission order.
    /// 3. **Replay (sequential).** Each command's log passes through the
    ///    fleet's reflect/absorb machinery in time order
    ///    ([`SensorFleet::handle_command`]), in submission order, and the
    ///    merged log is stably sorted by time.
    ///
    /// Note the per-command jitter streams differ from those of repeated
    /// [`Engine::simulate_attack_packets`] calls (which interleave one
    /// shared stream); the batch API trades that stream compatibility for
    /// thread-count invariance. Flow classification agrees between the
    /// two paths — a test pins that.
    pub fn simulate_attacks_batch(&mut self, cmds: &[AttackCommand]) -> Vec<SensorPacket> {
        booters_obs::span!("synthesize_batch");
        let done = self.synthesize_batch(cmds, |&(_, cmd, ref honeypots, logged), rng| {
            let mut packets = Vec::with_capacity(honeypots.len() * logged as usize);
            let log = draw_log(cmd, honeypots, logged, rng, Some(&mut packets));
            (log, order_command_log(cmd, packets))
        });
        let mut packets = Vec::with_capacity(done.iter().map(|(log, _)| log.offsets.len()).sum());
        for (_, log_packets) in done {
            packets.extend(log_packets);
        }
        packets.sort_by_key(|p| p.time);
        packets
    }

    /// The batch's flows: exactly
    /// `group_flows_par(&self.simulate_attacks_batch(cmds), key)`, with
    /// the same engine draws and fleet replay, but without building any
    /// packet of the batch.
    ///
    /// Each command's pool task keeps only its packets' offsets
    /// ([`CommandLog`]) and groups them straight away. The commands that
    /// share a grouping key (canonical victim and protocol) are grouped
    /// again from the union of their offsets. No flow crosses keys and a
    /// key's flows depend only on its packets' times and sensors, so
    /// [`sort_flows`] yields the trace path's flows (DESIGN.md §5k).
    /// Per-command grouping runs inside the `synthesize_batch` span; only
    /// the shared keys and the canonical sort count under `group`.
    pub fn simulate_attack_flows(&mut self, cmds: &[AttackCommand], key: VictimKey) -> Vec<Flow> {
        let synth = booters_obs::span("synthesize_batch");
        let group = |logs: &[&CommandLog]| {
            group_logs(key.canonical(logs[0].victim), logs[0].protocol, logs)
        };
        let mut done = self.synthesize_batch(cmds, |&(_, cmd, ref honeypots, logged), rng| {
            let log = draw_log(cmd, honeypots, logged, rng, None);
            let flows = group(&[&log]);
            (log, flows)
        });
        drop(synth);
        booters_obs::span!("group");
        // Commands in key order, submission order within a key.
        let grouping_key = |i: &usize| (key.canonical(cmds[*i].victim).0, cmds[*i].protocol.index());
        let mut order: Vec<usize> = (0..cmds.len()).collect();
        order.sort_by_key(grouping_key);
        let mut flows = Vec::new();
        for same_key in order.chunk_by(|a, b| grouping_key(a) == grouping_key(b)) {
            if let [only] = same_key {
                flows.append(&mut done[*only].1);
            } else {
                let logs: Vec<&CommandLog> = same_key.iter().map(|&i| &done[i].0).collect();
                flows.append(&mut group(&logs));
            }
        }
        sort_flows(&mut flows);
        flows
    }

    /// The three phases of a batch (see [`Engine::simulate_attacks_batch`]).
    /// In phase 2, `synthesize` runs in the pool on each command, given
    /// as `(submission index, command, honeypot list, packets logged per
    /// honeypot)` with its own RNG stream, and returns the command's log
    /// ([`draw_log`]) with whatever else it made of the draws. Returns
    /// those pairs in submission order, once the fleet has replayed each
    /// log.
    fn synthesize_batch<'c, T, F>(
        &mut self,
        cmds: &'c [AttackCommand],
        synthesize: F,
    ) -> Vec<(CommandLog, T)>
    where
        T: Send,
        F: Fn(&Prepared<'c>, &mut StdRng) -> (CommandLog, T) + Sync,
    {
        let config = self.config;
        // Phase 1: sequential, stateful — same draw order at any thread
        // count.
        let batch_seed: u64 = self.rng.gen();
        let prepared: Vec<Prepared<'c>> = cmds
            .iter()
            .enumerate()
            .map(|(i, cmd)| {
                let st = self.list_for(cmd.booter, cmd.protocol, cmd.time, cmd.avoids_honeypots);
                (
                    i,
                    cmd,
                    Arc::clone(&st.honeypots),
                    st.logged_per_sensor(cmd, &config),
                )
            })
            .collect();
        // Phase 2: parallel, pure, one pool item per command — a command
        // costs several times the wake-up of a parked helper.
        let done = booters_par::par_map(&prepared, |p| {
            synthesize(
                p,
                &mut StdRng::seed_from_u64(booters_par::stream_seed(batch_seed, p.0 as u64)),
            )
        });
        // Phase 3: sequential replay in submission order, one fleet pass
        // per command.
        for (log, _) in &done {
            self.fleet.handle_command(log, ReplayOrder::Time);
        }
        let emitted: usize = done.iter().map(|(log, _)| log.offsets.len()).sum();
        booters_obs::counter_add("netsim.packets_emitted", emitted as u64);
        booters_obs::counter_add("netsim.commands_simulated", cmds.len() as u64);
        done
    }

    /// Generate white-hat / background scan noise over `[from, to)`:
    /// `scans` scan events, each touching a few sensors with ≤5 packets
    /// (classified as scans by the pipeline — exercised to prove the
    /// classifier separates them from attacks).
    pub fn scan_noise(&mut self, from: u64, to: u64, scans: usize) -> Vec<SensorPacket> {
        let mut packets = Vec::new();
        for _ in 0..scans {
            let time = self.rng.gen_range(from..to.max(from + 1));
            let victim = VictimAddr(self.rng.gen());
            let protocol = UdpProtocol::ALL[self.rng.gen_range(0..UdpProtocol::ALL.len())];
            let touched = self.rng.gen_range(1..=4u32).min(self.fleet.sensor_count());
            // Distinct sensors so no sensor accumulates >5 packets and the
            // event stays a scan under the paper's classifier.
            let mut sensors: Vec<u32> = Vec::with_capacity(touched as usize);
            while sensors.len() < touched as usize {
                let s = self.rng.gen_range(0..self.fleet.sensor_count());
                if !sensors.contains(&s) {
                    sensors.push(s);
                }
            }
            for sensor in sensors {
                let n = self.rng.gen_range(1..=3u32);
                for k in 0..n {
                    packets.push(SensorPacket {
                        time: time + k as u64,
                        sensor,
                        victim,
                        protocol,
                        ttl: self.rng.gen_range(32..=255),
                        src_port: self.rng.gen(),
                    });
                }
            }
        }
        packets.sort_by_key(|p| p.time);
        packets
    }

    /// Housekeeping between simulation chunks: expire stale blocklist
    /// entries so unrelated later attacks start fresh.
    pub fn maintain(&mut self, now: u64) {
        self.fleet.expire_blocklist(now, 86_400);
    }
}

/// A batch command after phase 1: `(submission index, command, honeypot
/// list, packets logged per honeypot)`.
type Prepared<'c> = (usize, &'c AttackCommand, Arc<[u32]>, u32);

/// Draw one command's log: honeypot by honeypot, `logged` packets each,
/// the *k*-th spread to slot `⌊k·dur/logged⌋` of the attack with jitter
/// below the slot width so flow grouping sees realistic spacing. Each
/// packet draws its jitter, TTL and source port from `rng`, in that
/// order — the single-command path passes the engine's shared stream, the
/// batch path a per-command one. Given `packets`, each packet is also
/// pushed there in generation order; without it the TTL and source port
/// are drawn and dropped, so the stream stays the same.
fn draw_log<R: Rng + ?Sized>(
    cmd: &AttackCommand,
    honeypots: &Arc<[u32]>,
    logged: u32,
    rng: &mut R,
    mut packets: Option<&mut Vec<SensorPacket>>,
) -> CommandLog {
    let mut offsets = Vec::with_capacity(honeypots.len() * logged as usize);
    let dur = cmd.duration_secs.max(1) as u64;
    let slots = logged.max(1) as u64;
    let jitter_span = (dur / slots).max(1);
    let fp = BooterFingerprint::for_booter(cmd.booter);
    for &sensor in honeypots.iter() {
        for k in 0..logged as u64 {
            // Below `dur`, so it fits in a `u32` (DESIGN.md §5k).
            let offset = (k * dur / slots + rng.gen_range(0..jitter_span)) as u32;
            let ttl = fp.observed_ttl(rng);
            let src_port = fp.source_port(rng);
            offsets.push(offset);
            if let Some(packets) = packets.as_deref_mut() {
                packets.push(SensorPacket {
                    time: cmd.time + offset as u64,
                    sensor,
                    victim: cmd.victim,
                    protocol: cmd.protocol,
                    ttl,
                    src_port,
                });
            }
        }
    }
    CommandLog {
        start: cmd.time,
        victim: cmd.victim,
        protocol: cmd.protocol,
        honeypots: Arc::clone(honeypots),
        offsets,
    }
}

/// Put the packets from [`draw_log`] for `cmd` in time order: the
/// result equals `packets.sort_by_key(|p| p.time)`, ties kept in input
/// order.
///
/// Every generated packet falls at an offset below the attack's duration
/// from its start, so a stable counting placement over one bucket per
/// second of the attack builds the order in `O(packets + duration)`
/// (DESIGN.md §5k). A log too sparse for its buckets to pay (more than
/// 4,096 buckets and more than four per packet) takes the comparison
/// sort instead; both give the same order.
fn order_command_log(cmd: &AttackCommand, mut packets: Vec<SensorPacket>) -> Vec<SensorPacket> {
    let span = cmd.duration_secs.max(1) as u64;
    let offset = |p: &SensorPacket| p.time - cmd.time;
    let dense = span as usize <= 4 * packets.len().max(1024);
    if packets.len() < 2 || !dense {
        packets.sort_by_key(|p| p.time);
        return packets;
    }
    // next[o]: where the next packet at offset o goes.
    let mut next = vec![0usize; span as usize + 1];
    for p in &packets {
        next[offset(p) as usize + 1] += 1;
    }
    for o in 1..next.len() {
        next[o] += next[o - 1];
    }
    let mut ordered = vec![packets[0]; packets.len()];
    for p in &packets {
        let slot = &mut next[offset(p) as usize];
        ordered[*slot] = *p;
        *slot += 1;
    }
    ordered
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Country;
    use crate::flow::{classify_flows, FlowClass};
    use crate::scanner::run_scan;

    fn cmd(time: u64, protocol: UdpProtocol, booter: u32) -> AttackCommand {
        AttackCommand {
            time,
            victim: VictimAddr::from_octets(25, 7, 7, 7),
            protocol,
            duration_secs: 300,
            packets_per_second: 50_000,
            booter,
            avoids_honeypots: false,
        }
    }

    #[test]
    fn typical_attack_is_observed_and_classified_attack() {
        let mut e = Engine::new(EngineConfig::default());
        let c = cmd(1000, UdpProtocol::Ntp, 1);
        assert!(e.would_observe(&c));
        let packets = e.simulate_attack_packets(&c);
        assert!(!packets.is_empty());
        let flows = classify_flows(&packets);
        assert_eq!(flows.len(), 1);
        assert_eq!(flows[0].1, FlowClass::Attack);
    }

    #[test]
    fn fast_and_full_paths_agree() {
        let mut e = Engine::new(EngineConfig::default());
        for (i, &p) in UdpProtocol::ALL.iter().enumerate() {
            let c = cmd(i as u64 * 10_000, p, i as u32);
            let observed_fast = e.would_observe(&c);
            let packets = e.simulate_attack_packets(&c);
            let observed_full = classify_flows(&packets)
                .iter()
                .any(|(_, cl)| *cl == FlowClass::Attack);
            assert_eq!(observed_fast, observed_full, "protocol {p}");
        }
    }

    #[test]
    fn avoiding_booters_mostly_escape_observation() {
        let mut e = Engine::new(EngineConfig::default());
        let mut observed = 0;
        let n = 200;
        for i in 0..n {
            let mut c = cmd(i * 700_000, UdpProtocol::Dns, 1000 + i as u32);
            c.avoids_honeypots = true;
            if e.would_observe(&c) {
                observed += 1;
            }
        }
        // ~9% leak per honeypot, 60 honeypots: coverage well below the
        // non-avoiding ~100% but far above zero.
        assert!(observed < n, "observed={observed}");
        let mut baseline = 0;
        for i in 0..n {
            let c = cmd(i * 700_000, UdpProtocol::Dns, 5000 + i as u32);
            if e.would_observe(&c) {
                baseline += 1;
            }
        }
        assert!(baseline as f64 >= observed as f64, "baseline={baseline} observed={observed}");
        assert_eq!(baseline, n as i32, "non-avoiding booters should always be covered");
    }

    #[test]
    fn weak_attacks_are_not_observed_as_attacks() {
        let mut e = Engine::new(EngineConfig::default());
        let mut c = cmd(0, UdpProtocol::Dns, 2);
        // 2 pps over a huge DNS list: well under 5 packets per sensor.
        c.packets_per_second = 2;
        c.duration_secs = 10;
        assert!(!e.would_observe(&c));
        let packets = e.simulate_attack_packets(&c);
        let any_attack = classify_flows(&packets)
            .iter()
            .any(|(_, cl)| *cl == FlowClass::Attack);
        assert!(!any_attack);
    }

    #[test]
    fn scan_noise_is_classified_scan() {
        let mut e = Engine::new(EngineConfig::default());
        let packets = e.scan_noise(0, 10_000, 50);
        assert!(!packets.is_empty());
        let flows = classify_flows(&packets);
        let attacks = flows.iter().filter(|(_, c)| *c == FlowClass::Attack).count();
        assert_eq!(attacks, 0, "scan noise must not classify as attacks");
    }

    #[test]
    fn packets_are_time_ordered_and_within_duration() {
        let mut e = Engine::new(EngineConfig::default());
        let c = cmd(5_000, UdpProtocol::Ldap, 9);
        let packets = e.simulate_attack_packets(&c);
        for w in packets.windows(2) {
            assert!(w[0].time <= w[1].time);
        }
        for p in &packets {
            assert!(p.time >= c.time);
            assert!(p.time <= c.time + c.duration_secs as u64 + 1);
        }
    }

    #[test]
    fn fleet_absorbs_most_of_a_sustained_attack() {
        let mut e = Engine::new(EngineConfig::default());
        let c = cmd(0, UdpProtocol::Chargen, 3);
        e.simulate_attack_packets(&c);
        // With the log cap at 24 per sensor and the reflect limit at 5, at
        // most 5 packets per sensor were amplified.
        assert!(e.fleet().absorption_ratio() > 0.5);
    }

    #[test]
    fn victims_can_be_country_targeted() {
        let mut e = Engine::new(EngineConfig::default());
        let mut rng = StdRng::seed_from_u64(9);
        let victim = VictimAddr::sample_in(Country::Nl, &mut rng);
        let c = AttackCommand {
            victim,
            ..cmd(0, UdpProtocol::Ldap, 4)
        };
        let packets = e.simulate_attack_packets(&c);
        assert!(packets.iter().all(|p| p.victim.country() == Country::Nl));
    }

    #[test]
    fn batch_generation_is_thread_count_invariant() {
        let cmds: Vec<AttackCommand> = (0..20)
            .map(|i| {
                let mut c = cmd(i * 2_000, UdpProtocol::ALL[i as usize % 10], i as u32);
                c.victim = VictimAddr::from_octets(25, 0, i as u8, 1);
                c
            })
            .collect();
        let run = |threads: usize| {
            booters_par::with_threads(threads, || {
                let mut e = Engine::new(EngineConfig::default());
                e.simulate_attacks_batch(&cmds)
            })
        };
        let baseline = run(1);
        assert!(!baseline.is_empty());
        for t in [2usize, 4, 8] {
            assert_eq!(run(t), baseline, "threads={t}");
        }
    }

    #[test]
    fn batch_classification_agrees_with_per_command_path() {
        // Distinct victims so flows never merge across commands: the
        // batch trace must classify exactly the commands would_observe
        // says are observable as attacks.
        let cmds: Vec<AttackCommand> = (0..12)
            .map(|i| {
                let mut c = cmd(i * 5_000, UdpProtocol::ALL[i as usize % 10], 100 + i as u32);
                c.victim = VictimAddr::from_octets(25, 1, i as u8, 7);
                c
            })
            .collect();
        let mut oracle = Engine::new(EngineConfig::default());
        let expected = cmds.iter().filter(|c| oracle.would_observe(c)).count();
        let mut e = Engine::new(EngineConfig::default());
        let packets = e.simulate_attacks_batch(&cmds);
        let attacks = classify_flows(&packets)
            .iter()
            .filter(|(_, cl)| *cl == FlowClass::Attack)
            .count();
        assert_eq!(attacks, expected);
    }

    #[test]
    fn batch_output_is_time_ordered_and_feeds_the_fleet() {
        let cmds: Vec<AttackCommand> = (0..6)
            .map(|i| cmd(i * 1_000, UdpProtocol::Chargen, 50 + i as u32))
            .collect();
        let mut e = Engine::new(EngineConfig::default());
        let packets = e.simulate_attacks_batch(&cmds);
        for w in packets.windows(2) {
            assert!(w[0].time <= w[1].time);
        }
        let fleet_total = e.fleet().reflected_packets + e.fleet().absorbed_packets;
        assert_eq!(fleet_total, packets.len() as u64);
    }

    #[test]
    fn batch_on_empty_command_list_is_empty() {
        let mut e = Engine::new(EngineConfig::default());
        assert!(e.simulate_attacks_batch(&[]).is_empty());
    }

    booters_testkit::forall! {
        #![cases(256)]

        fn command_log_order_equals_stable_time_sort(
            duration in 1u32..20_000,
            short in booters_testkit::any::<bool>(),
            sensors in 0u32..70,
            logged in 0u32..30,
            seed in booters_testkit::any::<u64>(),
        ) {
            // Half the cases shorter than the log (q = 0): slots share
            // seconds. Long sparse logs take the comparison sort.
            let duration = if short { 1 + duration % 40 } else { duration };
            let mut c = cmd(1_000, UdpProtocol::Dns, 3);
            c.duration_secs = duration;
            let honeypots: Arc<[u32]> = (0..sensors).collect();
            let mut packets = Vec::new();
            draw_log(&c, &honeypots, logged, &mut StdRng::seed_from_u64(seed), Some(&mut packets));
            let mut expected = packets.clone();
            expected.sort_by_key(|p| p.time);
            booters_testkit::prop_assert_eq!(order_command_log(&c, packets), expected);
        }

        fn each_sensors_offsets_never_decrease(
            duration in 1u32..20_000,
            short in booters_testkit::any::<bool>(),
            sensors in 0u32..70,
            logged in 0u32..30,
            seed in booters_testkit::any::<u64>(),
        ) {
            let duration = if short { 1 + duration % 40 } else { duration };
            let mut c = cmd(1_000, UdpProtocol::Dns, 3);
            c.duration_secs = duration;
            let honeypots: Arc<[u32]> = (0..sensors).collect();
            let log = draw_log(&c, &honeypots, logged, &mut StdRng::seed_from_u64(seed), None);
            booters_testkit::prop_assert_eq!(log.offsets.len(), (sensors * logged) as usize);
            for (_, run) in log.runs() {
                booters_testkit::prop_assert!(run.windows(2).all(|w| w[0] <= w[1]), "{:?}", run);
                booters_testkit::prop_assert!(run.iter().all(|&o| o < duration), "{:?}", run);
            }
        }

        fn offset_grouping_equals_flow_grouper(
            parts in booters_testkit::strategy::prop::collection::vec(
                (0u64..3_000, 1u32..20_000, 0usize..3, 0u32..60, 0u32..30),
                1..4,
            ),
            seed in booters_testkit::any::<u64>(),
        ) {
            // Commands on one key: short ones put slots on one second,
            // medium ones span just over the 15-minute gap, long sparse
            // ones split into several flows, and gaps under 15 minutes
            // merge commands.
            let mut rng = StdRng::seed_from_u64(seed);
            let mut time = 1_000;
            let mut packets = Vec::new();
            let mut logs = Vec::new();
            for &(gap, duration, class, sensors, logged) in &parts {
                time += gap;
                let mut c = cmd(time, UdpProtocol::Dns, 3);
                c.duration_secs = [1 + duration % 40, 900 + duration % 3_000, duration][class];
                let honeypots: Arc<[u32]> = (0..sensors).map(|s| s * 7 % 60).collect();
                logs.push(draw_log(&c, &honeypots, logged, &mut rng, Some(&mut packets)));
            }
            packets.sort_by_key(|p| p.time);
            let logs: Vec<&CommandLog> = logs.iter().collect();
            let mut flows = group_logs(logs[0].victim, logs[0].protocol, &logs);
            sort_flows(&mut flows);
            booters_testkit::prop_assert_eq!(flows, crate::flow::group_flows_par(&packets, VictimKey::ByIp));
        }
    }

    booters_testkit::forall! {
        #![cases(256)]

        fn rescans_make_run_scans_draws_and_share_the_whole_fleet(
            effort in 0.001f64..=1.0,
            low in booters_testkit::any::<bool>(),
            leak in 0.0f64..=1.0,
            avoids in booters_testkit::any::<bool>(),
            sensors in 0u32..=80,
            seed in booters_testkit::any::<u64>(),
        ) {
            // Half the cases below 0.25, where scans miss sensors.
            let scan_effort = if low { effort * 0.25 } else { effort };
            let protocol = UdpProtocol::ALL[(seed % 10) as usize];
            let mut e = Engine::new(EngineConfig {
                sensors: SensorConfig { sensors, ..SensorConfig::default() },
                scan_effort,
                avoidance_leak: leak,
                seed,
                ..EngineConfig::default()
            });
            let mut oracle = e.rng.clone();
            // The first probe scans; each one a week later rescans.
            for week in 0..4u64 {
                let st = e.list_for(3, protocol, week * 7 * 86_400, avoids).clone();
                let mut expected =
                    run_scan(protocol, ScannerKind::Booter, scan_effort, sensors, &mut oracle);
                if avoids && oracle.gen::<f64>() >= leak {
                    expected.honeypots.clear();
                }
                booters_testkit::prop_assert_eq!(&st.honeypots[..], &expected.honeypots[..]);
                booters_testkit::prop_assert_eq!(st.real_reflectors, expected.real_reflectors);
                booters_testkit::prop_assert_eq!(&e.rng, &oracle);
                if st.honeypots.len() == sensors as usize {
                    let whole = Arc::ptr_eq(&st.honeypots, &e.shared.whole_fleet);
                    let none = Arc::ptr_eq(&st.honeypots, &e.shared.none);
                    booters_testkit::prop_assert!(whole || (sensors == 0 && none));
                } else if st.honeypots.is_empty() {
                    booters_testkit::prop_assert!(Arc::ptr_eq(&st.honeypots, &e.shared.none));
                }
            }
        }
    }

    #[test]
    fn rescan_refreshes_lists() {
        let mut e = Engine::new(EngineConfig {
            rescan_interval_secs: 100,
            ..EngineConfig::default()
        });
        let c0 = cmd(0, UdpProtocol::Ntp, 7);
        let _ = e.would_observe(&c0);
        let first = e.lists.get(&(7, UdpProtocol::Ntp)).unwrap().refreshed_at;
        let c1 = cmd(1_000, UdpProtocol::Ntp, 7);
        let _ = e.would_observe(&c1);
        let second = e.lists.get(&(7, UdpProtocol::Ntp)).unwrap().refreshed_at;
        assert!(second > first);
    }
}
