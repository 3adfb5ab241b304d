//! Property-based tests for the netsim substrate: flow grouping
//! invariants, classification rules, addressing and the engine.

use booters_netsim::flow::{FlowGrouper, FLOW_GAP_SECS};
use booters_netsim::reflector::{SensorConfig, SensorFleet};
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

/// A command's log laid out as the engine lays it out: `sensors` honeypots
/// in generation order, `logged` packets each, the *k*-th at slot
/// `⌊k·dur/logged⌋` plus a jitter below the slot width — so durations
/// shorter than `logged` put several slots on one second.
fn command_log(cmd: &AttackCommand, sensors: u32, logged: u64, seed: u64) -> Vec<SensorPacket> {
    let mut rng = SplitMix64::new(seed);
    let dur = cmd.duration_secs.max(1) as u64;
    let slots = logged.max(1);
    let jitter_span = (dur / slots).max(1);
    let mut packets = Vec::new();
    for sensor in 0..sensors {
        for k in 0..logged {
            packets.push(SensorPacket {
                time: cmd.time + k * dur / slots + rng.next_u64() % jitter_span,
                sensor,
                victim: cmd.victim,
                protocol: cmd.protocol,
                ttl: rng.next_u64() as u8,
                src_port: k as u16,
            });
        }
    }
    packets
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
        commands in prop::collection::vec((0u8..3, 0usize..2, 1u32..400, 0u32..8, 0u64..40), 1..12),
        seed in any::<u64>(),
    ) {
        let config = SensorConfig { sensors: 8, reflect_limit: limit, window_secs: window };
        let mut bulk = SensorFleet::new(config);
        let mut each = SensorFleet::new(config);
        let mut now = 0u64;
        let mut logs = Vec::new();
        for (i, &(v, p, duration, sensors, logged)) in commands.iter().enumerate() {
            now += 200 * (i as u64 % 3);
            let victim = VictimAddr::from_octets(25, 5, 5, v);
            let cmd = command_at(now, duration, victim, UdpProtocol::ALL[p]);
            // The batch replays time-ordered logs, the single-command path
            // generation order.
            let mut log = command_log(&cmd, sensors, logged, seed ^ i as u64);
            if i % 2 == 0 {
                log.sort_by_key(|p| p.time);
            }
            logs.push(log);
        }
        // One mixed slice too: runs of several victims back to back.
        logs.push(logs.concat());
        for (i, log) in logs.iter().enumerate() {
            bulk.handle_command(log);
            for p in log {
                each.handle_packet(p.sensor, p.time, p.victim, p.protocol, false);
            }
            if i % 4 == 3 {
                bulk.expire_blocklist(now + i as u64 * 1_000, 2_000);
                each.expire_blocklist(now + i as u64 * 1_000, 2_000);
            }
            prop_assert_eq!(bulk.reflected_packets, each.reflected_packets);
            prop_assert_eq!(bulk.absorbed_packets, each.absorbed_packets);
        }
        // Same blocklist and rate-limit state: every probe is treated alike.
        for v in 0u8..3 {
            for &protocol in &UdpProtocol::ALL[..2] {
                let victim = VictimAddr::from_octets(25, 5, 5, v);
                prop_assert_eq!(bulk.is_blocklisted(victim, protocol), each.is_blocklisted(victim, protocol));
                for sensor in 0..8 {
                    prop_assert_eq!(
                        bulk.handle_packet(sensor, now + 100, victim, protocol, false),
                        each.handle_packet(sensor, now + 100, victim, protocol, false)
                    );
                }
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
/// threads and with the small-work cutoff off, and leaves the fleet
/// exactly as the trace path leaves it.
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
        for min_items in [None, Some(1)] {
            let mut flows_path = twin();
            let flows = booters_par::with_threads(threads, || match min_items {
                Some(n) => booters_par::with_min_items(n, || flows_path.simulate_attack_flows(cmds, key)),
                None => flows_path.simulate_attack_flows(cmds, key),
            });
            let case = format!("threads={threads} min_items={min_items:?}");
            prop_assert_eq!(&flows, &expected, "{}", case);
            let fleet = flows_path.fleet();
            prop_assert_eq!(fleet.reflected_packets, expected_fleet.reflected_packets, "{}", case);
            prop_assert_eq!(fleet.absorbed_packets, expected_fleet.absorbed_packets, "{}", case);
            for c in cmds {
                prop_assert_eq!(
                    fleet.is_blocklisted(c.victim, c.protocol),
                    expected_fleet.is_blocklisted(c.victim, c.protocol),
                    "{}",
                    case
                );
            }
        }
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
