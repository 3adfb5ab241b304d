//! Property-based tests for the netsim substrate: flow grouping
//! invariants, classification rules, addressing and the engine.

use booters_netsim::flow::{FlowGrouper, FLOW_GAP_SECS};
use booters_netsim::packet::CommandLog;
use booters_netsim::reflector::{ReplayOrder, SensorConfig, SensorFleet};
use booters_netsim::{
    classify_flows, group_flows_par, sort_flows, AttackCommand, Country, Engine, EngineConfig, Flow, FlowClass,
    SensorPacket, UdpProtocol, VictimAddr, VictimKey,
};
use booters_testkit::rng::SplitMix64;
use booters_testkit::strategy::prop;
use booters_testkit::{any, forall, prop_assert, prop_assert_eq, Strategy};

/// Strategy: an arbitrary packet stream over a small victim/sensor space,
/// time-ordered.
fn packet_stream() -> impl Strategy<Value = Vec<SensorPacket>> {
    prop::collection::vec(
        (
            0u64..200_000,  // time
            0u32..6,        // sensor
            0u8..4,         // victim last octet
            0usize..UdpProtocol::ALL.len(),
        ),
        0..200,
    )
    .prop_map(|mut raw| {
        raw.sort_by_key(|r| r.0);
        raw.into_iter()
            .map(|(time, sensor, v, p)| SensorPacket {
                time,
                sensor,
                victim: VictimAddr::from_octets(25, 0, 0, v),
                protocol: UdpProtocol::ALL[p],
                ttl: 50,
                src_port: 4444,
            })
            .collect()
    })
}

forall! {
    #![cases(128)]

    fn flow_grouping_conserves_packets(packets in packet_stream()) {
        let flows = classify_flows(&packets);
        let total: u64 = flows.iter().map(|(f, _)| f.total_packets).sum();
        prop_assert_eq!(total, packets.len() as u64);
    }

    fn per_sensor_counts_sum_to_flow_total(packets in packet_stream()) {
        for (f, _) in classify_flows(&packets) {
            let sum: u64 = f.per_sensor.values().map(|&c| c as u64).sum();
            prop_assert_eq!(sum, f.total_packets);
        }
    }

    fn flows_of_same_key_are_gap_separated(packets in packet_stream()) {
        let flows = classify_flows(&packets);
        // Group closed flows by key and check consecutive flows are at
        // least the gap apart.
        use std::collections::HashMap;
        let mut by_key: HashMap<(VictimAddr, UdpProtocol), Vec<(u64, u64)>> = HashMap::new();
        for (f, _) in &flows {
            by_key.entry((f.victim, f.protocol)).or_default().push((f.start, f.end));
        }
        for ranges in by_key.values_mut() {
            ranges.sort();
            for w in ranges.windows(2) {
                prop_assert!(
                    w[1].0 >= w[0].1 + FLOW_GAP_SECS,
                    "flows too close: {:?} then {:?}",
                    w[0],
                    w[1]
                );
            }
        }
    }

    fn classification_matches_rule(packets in packet_stream()) {
        for (f, class) in classify_flows(&packets) {
            let expect = if f.max_sensor_packets() > 5 {
                FlowClass::Attack
            } else {
                FlowClass::Scan
            };
            prop_assert_eq!(class, expect);
        }
    }

    fn flow_bounds_are_consistent(packets in packet_stream()) {
        for (f, _) in classify_flows(&packets) {
            prop_assert!(f.start <= f.end);
            prop_assert!(f.total_packets >= 1);
        }
    }

    fn flush_before_is_equivalent_to_batch(packets in packet_stream()) {
        // Periodic flushing must produce the same flows as one-shot
        // grouping.
        let batch = classify_flows(&packets);
        let mut grouper = FlowGrouper::new();
        let mut flows = Vec::new();
        for (i, p) in packets.iter().enumerate() {
            grouper.push(p);
            if i % 17 == 0 {
                grouper.flush_before(p.time.saturating_sub(FLOW_GAP_SECS * 2));
                flows.extend(grouper.take_closed());
            }
        }
        flows.extend(grouper.finish());
        prop_assert_eq!(flows.len(), batch.len());
        let total: u64 = flows.iter().map(|f| f.total_packets).sum();
        prop_assert_eq!(total, packets.len() as u64);
    }

    fn geolocation_total(raw in any::<u32>()) {
        // Every address maps to exactly one country.
        let addr = VictimAddr(raw);
        let c = addr.country();
        prop_assert!(Country::ALL.contains(&c));
    }

    fn engine_observation_is_deterministic_per_command(
        pps in 1u32..100_000,
        dur in 1u32..2_000,
        booter in 0u32..20,
        avoids in any::<bool>(),
    ) {
        let cmd = AttackCommand {
            time: 1000,
            victim: VictimAddr::from_octets(25, 1, 1, 1),
            protocol: UdpProtocol::Ldap,
            duration_secs: dur,
            packets_per_second: pps,
            booter,
            avoids_honeypots: avoids,
        };
        let mut e1 = Engine::new(EngineConfig::default());
        let mut e2 = Engine::new(EngineConfig::default());
        prop_assert_eq!(e1.would_observe(&cmd), e2.would_observe(&cmd));
    }

    fn packet_generation_respects_log_cap(
        pps in 1_000u32..200_000,
        dur in 60u32..1_200,
    ) {
        let config = EngineConfig::default();
        let cap = config.packet_log_cap as usize;
        let sensors = config.sensors.sensors as usize;
        let mut engine = Engine::new(config);
        let cmd = AttackCommand {
            time: 0,
            victim: VictimAddr::from_octets(25, 2, 2, 2),
            protocol: UdpProtocol::Ntp,
            duration_secs: dur,
            packets_per_second: pps,
            booter: 1,
            avoids_honeypots: false,
        };
        let packets = engine.simulate_attack_packets(&cmd);
        prop_assert!(packets.len() <= cap * sensors);
        // Time-ordered.
        for w in packets.windows(2) {
            prop_assert!(w[0].time <= w[1].time);
        }
    }
}

/// A command's log laid out as the engine lays it out: its honeypots in
/// list order, `logged` packets each, the *k*-th at slot
/// `⌊k·dur/logged⌋` plus a jitter below the slot width — so durations
/// shorter than `logged` put several slots on one second. Returned in
/// compact form and as packets in generation order.
fn command_log(
    cmd: &AttackCommand,
    honeypots: &[u32],
    logged: u64,
    seed: u64,
) -> (CommandLog, Vec<SensorPacket>) {
    let mut rng = SplitMix64::new(seed);
    let dur = cmd.duration_secs.max(1) as u64;
    let slots = logged.max(1);
    let jitter_span = (dur / slots).max(1);
    let mut offsets = Vec::new();
    let mut packets = Vec::new();
    for &sensor in honeypots {
        for k in 0..logged {
            let offset = k * dur / slots + rng.next_u64() % jitter_span;
            offsets.push(offset as u32);
            packets.push(SensorPacket {
                time: cmd.time + offset,
                sensor,
                victim: cmd.victim,
                protocol: cmd.protocol,
                ttl: rng.next_u64() as u8,
                src_port: k as u16,
            });
        }
    }
    let log = CommandLog {
        start: cmd.time,
        victim: cmd.victim,
        protocol: cmd.protocol,
        honeypots: honeypots.into(),
        offsets,
    };
    (log, packets)
}

/// Replay `log` into `bulk` with [`SensorFleet::handle_command`] and its
/// packets into `each` one [`SensorFleet::handle_packet`] at a time, in
/// `order`: generation order, or stably sorted by time.
fn replay_both(
    bulk: &mut SensorFleet,
    each: &mut SensorFleet,
    log: &CommandLog,
    packets: &[SensorPacket],
    order: ReplayOrder,
) {
    bulk.handle_command(log, order);
    let mut packets = packets.to_vec();
    if order == ReplayOrder::Time {
        packets.sort_by_key(|p| p.time);
    }
    for p in &packets {
        each.handle_packet(p.sensor, p.time, p.victim, p.protocol, false);
    }
}

fn command_at(time: u64, duration_secs: u32, victim: VictimAddr, protocol: UdpProtocol) -> AttackCommand {
    AttackCommand {
        time,
        victim,
        protocol,
        duration_secs,
        packets_per_second: 1,
        booter: 0,
        avoids_honeypots: false,
    }
}

/// Test-only grouping oracle: the paper's rule on a SipHash-keyed map of
/// open flows, in canonical order.
fn siphash_grouper(packets: &[SensorPacket], key: VictimKey) -> Vec<Flow> {
    use std::collections::HashMap;
    let mut open: HashMap<(VictimAddr, UdpProtocol), Flow> = HashMap::new();
    let mut flows = Vec::new();
    for p in packets {
        let k = (key.canonical(p.victim), p.protocol);
        let fresh = Flow {
            victim: k.0,
            protocol: k.1,
            start: p.time,
            end: p.time,
            total_packets: 0,
            per_sensor: HashMap::new(),
        };
        let flow = open.entry(k).or_insert_with(|| fresh.clone());
        if p.time.saturating_sub(flow.end) >= FLOW_GAP_SECS {
            flows.push(std::mem::replace(flow, fresh));
        }
        flow.end = flow.end.max(p.time);
        flow.total_packets += 1;
        *flow.per_sensor.entry(p.sensor).or_insert(0) += 1;
    }
    flows.extend(open.into_values());
    sort_flows(&mut flows);
    flows
}

forall! {
    #![cases(256)]

    fn handle_command_equals_per_packet_replay(
        limit in 1u32..8,
        window in 30u64..4_000,
        commands in prop::collection::vec(
            ((0u8..3, 0usize..2, 0usize..3), (1u32..6_000, any::<bool>()), any::<u8>(), 0u64..40),
            1..12,
        ),
        by_time in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let order = if by_time { ReplayOrder::Time } else { ReplayOrder::Generation };
        let config = SensorConfig { sensors: 8, reflect_limit: limit, window_secs: window };
        let mut bulk = SensorFleet::new(config);
        let mut each = SensorFleet::new(config);
        let mut now = 0u64;
        for (i, &((v, p, gap), (duration, short), mask, logged)) in commands.iter().enumerate() {
            // A victim comes back at once, inside its rate-limit window,
            // or after it; short commands put several slots on a second,
            // long ones slots wider than the window.
            now += [0, 200, 5_000][gap];
            let duration = if short { 1 + duration % 40 } else { duration };
            let honeypots: Vec<u32> = (0..8).filter(|s| mask >> s & 1 == 1).collect();
            let cmd = command_at(now, duration, VictimAddr::from_octets(25, 5, 5, v), UdpProtocol::ALL[p]);
            let (log, packets) = command_log(&cmd, &honeypots, logged, seed ^ i as u64);
            replay_both(&mut bulk, &mut each, &log, &packets, order);
            prop_assert_eq!(&bulk, &each, "command {}", i);
            if i % 4 == 3 {
                bulk.expire_blocklist(now + 1_000, 2_000);
                each.expire_blocklist(now + 1_000, 2_000);
            }
        }
    }

    fn grouper_equals_siphash_oracle(packets in packet_stream(), by_prefix in any::<bool>()) {
        let key = if by_prefix { VictimKey::ByPrefix24 } else { VictimKey::ByIp };
        let mut grouper = FlowGrouper::with_key(key);
        for p in &packets {
            grouper.push(p);
        }
        let mut flows = grouper.finish();
        sort_flows(&mut flows);
        prop_assert_eq!(flows, siphash_grouper(&packets, key));
    }
}

/// The fleet after each command of a named case, with the command's log.
type Steps = [(CommandLog, SensorFleet)];

fn blocked(fleet: &SensorFleet) -> bool {
    fleet.is_blocklisted(VictimAddr::from_octets(25, 5, 5, 1), UdpProtocol::Ldap)
}

fn packets(steps: &Steps) -> u64 {
    steps.iter().map(|(log, _)| log.offsets.len() as u64).sum()
}

#[test]
fn handle_command_covers_the_named_cases() {
    let all: Vec<u32> = (0..8).collect();
    // (name, rate window, commands as (start, duration, honeypots,
    // logged), what makes the case the case its name gives).
    type Case = (
        &'static str,
        u64,
        Vec<(u64, u32, Vec<u32>, u64)>,
        fn(&Steps) -> bool,
    );
    let cases: [Case; 6] = [
        (
            "state left inside the window trips the second command",
            3_600,
            vec![(0, 300, all.clone(), 3), (100, 300, all.clone(), 3)],
            |steps| !blocked(&steps[0].1) && blocked(&steps[1].1),
        ),
        (
            "slots wider than the window reset it at every packet",
            60,
            vec![(0, 1_000, all.clone(), 4)],
            |steps| !blocked(&steps[0].1) && steps[0].1.reflected_packets == packets(steps),
        ),
        (
            "fewer packets than the limit never trip",
            3_600,
            vec![(0, 300, all.clone(), 4)],
            |steps| !blocked(&steps[0].1) && steps[0].1.reflected_packets == packets(steps),
        ),
        (
            "an empty honeypot list changes nothing",
            3_600,
            vec![(0, 300, Vec::new(), 24)],
            |steps| steps[0].1.reflected_packets + steps[0].1.absorbed_packets == 0,
        ),
        (
            "a duration shorter than the log ties slots",
            3_600,
            vec![(0, 5, all.clone(), 24)],
            |steps| steps[0].0.offsets.windows(2).any(|w| w[0] == w[1]) && blocked(&steps[0].1),
        ),
        (
            "an already blocklisted victim absorbs everything",
            3_600,
            vec![(0, 300, all.clone(), 24), (400, 300, all.clone(), 24)],
            |steps| {
                let (before, after) = (&steps[0].1, &steps[1].1);
                blocked(before)
                    && after.absorbed_packets - before.absorbed_packets
                        == steps[1].0.offsets.len() as u64
            },
        ),
    ];
    for order in [ReplayOrder::Time, ReplayOrder::Generation] {
        for (name, window, commands, is_the_case) in &cases {
            let config = SensorConfig {
                sensors: 8,
                reflect_limit: 5,
                window_secs: *window,
            };
            let mut bulk = SensorFleet::new(config);
            let mut each = SensorFleet::new(config);
            let mut steps = Vec::new();
            for (i, (start, duration, honeypots, logged)) in commands.iter().enumerate() {
                let cmd = command_at(
                    *start,
                    *duration,
                    VictimAddr::from_octets(25, 5, 5, 1),
                    UdpProtocol::Ldap,
                );
                let (log, packets) = command_log(&cmd, honeypots, *logged, i as u64);
                replay_both(&mut bulk, &mut each, &log, &packets, order);
                assert_eq!(bulk, each, "{name} ({order:?}), command {i}");
                steps.push((log, bulk.clone()));
            }
            assert!(is_the_case(&steps), "{name} ({order:?})");
        }
    }
}

/// Gaps between consecutive commands, in seconds: small ones put a
/// victim's commands in one flow, large ones split them.
const GAPS: [u64; 7] = [0, 120, 500, 899, 900, 2_000, 40_000];
/// Durations: the short ones give logs with fewer seconds than packets.
const DURATIONS: [u32; 6] = [1, 7, 23, 60, 300, 1_800];
const RATES: [u32; 3] = [3, 800, 50_000];

/// A batch from compact draws `(gap, victim, protocol, duration, rate,
/// booter, avoids)`: each command starts `gap` seconds after the previous
/// one, on one of three addresses in a single /24, with one of two
/// protocols.
fn batch_from(raw: &[(u64, u8, usize, u32, u32, u32, bool)]) -> Vec<AttackCommand> {
    let mut time = 1_000;
    raw.iter()
        .map(|&(gap, v, p, duration_secs, packets_per_second, booter, avoids_honeypots)| {
            time += gap;
            AttackCommand {
                time,
                victim: VictimAddr::from_octets(25, 9, 9, v),
                protocol: UdpProtocol::ALL[p],
                duration_secs,
                packets_per_second,
                booter,
                avoids_honeypots,
            }
        })
        .collect()
}

/// Twin engines with the same seed and history must agree: the flows
/// entry point returns exactly the grouped batch trace, at 1, 2 and 4
/// threads, and leaves the fleet exactly as the trace path leaves it.
fn assert_flows_equal_grouped_trace(history: &[AttackCommand], cmds: &[AttackCommand], key: VictimKey) {
    let twin = || {
        let mut e = Engine::new(EngineConfig::default());
        e.simulate_attacks_batch(history);
        e
    };
    let mut trace_path = twin();
    let expected = group_flows_par(&trace_path.simulate_attacks_batch(cmds), key);
    let expected_fleet = trace_path.fleet();
    for threads in [1usize, 2, 4] {
        let mut flows_path = twin();
        let flows =
            booters_par::with_threads(threads, || flows_path.simulate_attack_flows(cmds, key));
        prop_assert_eq!(&flows, &expected, "threads={}", threads);
        // The whole fleet: counters, rate-limit entries, blocklist times.
        prop_assert_eq!(flows_path.fleet(), expected_fleet, "threads={}", threads);
    }
}

forall! {
    #![cases(48)]

    fn flows_entry_point_equals_grouped_batch_trace(
        raw in prop::collection::vec(
            (
                (0usize..GAPS.len(), 0u8..3, 0usize..2),
                (0usize..DURATIONS.len(), 0usize..RATES.len(), 0u32..4, any::<bool>()),
            ),
            1..9,
        ),
        history_len in 0usize..3,
        by_prefix in any::<bool>(),
    ) {
        let raw: Vec<_> = raw
            .into_iter()
            .map(|((g, v, p), (d, r, b, a))| (GAPS[g], v, p, DURATIONS[d], RATES[r], b, a))
            .collect();
        let cmds = batch_from(&raw);
        // The history replays the first few commands earlier, so lists
        // and the blocklist are already warm for the same victims.
        let history: Vec<AttackCommand> = cmds[..history_len.min(cmds.len())]
            .iter()
            .map(|c| AttackCommand { time: c.time.saturating_sub(500), ..*c })
            .collect();
        let key = if by_prefix { VictimKey::ByPrefix24 } else { VictimKey::ByIp };
        assert_flows_equal_grouped_trace(&history, &cmds, key);
    }
}

#[test]
fn flows_entry_point_covers_the_named_cases() {
    type Raw = (u64, u8, usize, u32, u32, u32, bool);
    let cases: [(&str, Vec<Raw>, VictimKey, usize); 6] = [
        (
            "same victim and protocol under 15 minutes apart: one merged flow",
            vec![(0, 1, 0, 300, 50_000, 0, false), (600, 1, 0, 300, 50_000, 1, false)],
            VictimKey::ByIp,
            1,
        ),
        (
            "same pair over 15 minutes apart: two flows",
            vec![(0, 1, 0, 60, 50_000, 0, false), (2_000, 1, 0, 60, 50_000, 1, false)],
            VictimKey::ByIp,
            2,
        ),
        (
            "different addresses in one /24 under the prefix key: one flow",
            vec![
                (0, 0, 1, 300, 50_000, 0, false),
                (30, 1, 1, 300, 50_000, 1, false),
                (30, 2, 1, 300, 50_000, 2, false),
            ],
            VictimKey::ByPrefix24,
            1,
        ),
        (
            "an avoiding booter with an empty list next to a visible one",
            vec![(0, 1, 0, 300, 50_000, 3, true), (10, 1, 0, 300, 50_000, 0, false)],
            VictimKey::ByIp,
            1,
        ),
        (
            "commands shorter than the packet log cap (q = 0)",
            vec![(0, 2, 1, 7, 50_000, 0, false), (3, 2, 1, 1, 50_000, 1, false)],
            VictimKey::ByIp,
            1,
        ),
        ("a batch of one command", vec![(0, 0, 0, 300, 50_000, 0, false)], VictimKey::ByIp, 1),
    ];
    for (name, raw, key, flows) in cases {
        let cmds = batch_from(&raw);
        assert_flows_equal_grouped_trace(&[], &cmds, key);
        let got = Engine::new(EngineConfig::default()).simulate_attack_flows(&cmds, key);
        assert_eq!(got.len(), flows, "{name}");
    }
    // The avoiding booter's list is empty at the default seed, so that
    // case really has a command with no packets.
    let avoiding = batch_from(&[(0, 1, 0, 300, 50_000, 3, true)]);
    assert!(Engine::new(EngineConfig::default()).simulate_attacks_batch(&avoiding).is_empty());
}
