//! Byte-level goldens for the in-memory full-packet chain.
//!
//! Packet synthesis, the honeypot fleet's reflect/absorb replay and flow
//! grouping are each folded into an FNV-1a 64-bit digest: the batch
//! path's time-sorted packets, the single-command path's packets, the fleet counters, the grouped
//! flows, and the honeypot series of one `Fidelity::FullPackets` run.
//! Any change that moves one packet time, one RNG draw, one fleet
//! decision or one flow moves a digest.
//!
//! The command batches cover the chain's corner cases: two commands on
//! the same victim/protocol inside one batch, a repeat victim in the next
//! batch (the fleet's blocklist carries over), durations shorter than the
//! packet log cap (several packets share one slot time), and booters that
//! filter every honeypot out of their lists.

use booting_the_booters::core::scenario::{Fidelity, Scenario, ScenarioConfig};
use booting_the_booters::market::market::MarketConfig;
use booting_the_booters::netsim::{
    group_flows_par, AttackCommand, Country, Engine, EngineConfig, Flow, SensorPacket,
    UdpProtocol, VictimAddr, VictimKey,
};
use booters_testkit::rng::SplitMix64;

/// FNV-1a, 64-bit.
struct Fnv64(u64);

impl Fnv64 {
    fn new() -> Fnv64 {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

fn packets_digest(packets: &[SensorPacket]) -> u64 {
    let mut h = Fnv64::new();
    h.u64(packets.len() as u64);
    for p in packets {
        h.u64(p.time);
        h.u64(p.sensor as u64);
        h.u64(p.victim.0 as u64);
        h.u64(p.protocol.index() as u64);
        h.u64(p.ttl as u64);
        h.u64(p.src_port as u64);
    }
    h.0
}

fn flows_digest(flows: &[Flow]) -> u64 {
    let mut h = Fnv64::new();
    h.u64(flows.len() as u64);
    for f in flows {
        h.u64(f.victim.0 as u64);
        h.u64(f.protocol.index() as u64);
        h.u64(f.start);
        h.u64(f.end);
        h.u64(f.total_packets);
        let mut per_sensor: Vec<(u32, u32)> = f.per_sensor.iter().map(|(&s, &n)| (s, n)).collect();
        per_sensor.sort_unstable();
        h.u64(per_sensor.len() as u64);
        for (s, n) in per_sensor {
            h.u64(s as u64);
            h.u64(n as u64);
        }
    }
    h.0
}

fn command(
    time: u64,
    victim: VictimAddr,
    protocol: UdpProtocol,
    duration_secs: u32,
    packets_per_second: u32,
    booter: u32,
) -> AttackCommand {
    AttackCommand {
        time,
        victim,
        protocol,
        duration_secs,
        packets_per_second,
        booter,
        avoids_honeypots: false,
    }
}

/// Victims of the first batch's avoiding booters: one each, so their
/// share of the batch's packets can be counted per command.
fn avoiding_victim(i: u8) -> VictimAddr {
    VictimAddr::from_octets(25, 9, 9, i)
}

/// Two batches against one engine, built to hit the chain's corner cases,
/// plus a deterministic spread of ordinary commands.
fn batches() -> [Vec<AttackCommand>; 2] {
    let repeat = VictimAddr::from_octets(25, 7, 7, 7);
    let short = VictimAddr::from_octets(25, 8, 8, 8);
    let mut first = vec![
        command(1_000, repeat, UdpProtocol::Ntp, 300, 50_000, 1),
        // Same victim and protocol, overlapping in time: one flow, one
        // fleet blocklist entry.
        command(1_200, repeat, UdpProtocol::Ntp, 120, 40_000, 2),
        // Shorter than the 24-packet log cap: logged packets share slot
        // times.
        command(5_000, short, UdpProtocol::Dns, 10, 200_000, 3),
        command(5_003, short, UdpProtocol::Ssdp, 1, 900_000, 4),
        // Too weak to log more than a handful of packets per sensor.
        command(6_000, VictimAddr::from_octets(25, 6, 6, 6), UdpProtocol::Chargen, 10, 2, 5),
    ];
    for i in 0..6u8 {
        first.push(AttackCommand {
            avoids_honeypots: true,
            ..command(8_000 + i as u64 * 100, avoiding_victim(i), UdpProtocol::Ldap, 200, 60_000, 100 + i as u32)
        });
    }
    let mut rng = SplitMix64::new(0x9AC4_E7C1);
    let mut second = vec![
        // Repeat victim: the blocklist entry from the first batch is
        // still live.
        command(2_500, repeat, UdpProtocol::Ntp, 600, 30_000, 1),
        command(90_000, short, UdpProtocol::Dns, 17, 150_000, 3),
    ];
    for i in 0..24u64 {
        let r = rng.next_u64();
        second.push(AttackCommand {
            time: 10_000 + i * 700 + r % 500,
            victim: VictimAddr::from_octets(25, 3, (r >> 8) as u8 % 4, (r >> 16) as u8),
            protocol: UdpProtocol::ALL[(r >> 24) as usize % UdpProtocol::ALL.len()],
            duration_secs: 1 + (r >> 32) as u32 % 2_000,
            packets_per_second: 1_000 + (r >> 44) as u32 % 99_000,
            booter: 20 + (r >> 60) as u32,
            avoids_honeypots: i % 7 == 3,
        });
    }
    [first, second]
}

/// The batch path's digests and fleet counters, one entry per quantity.
fn batch_chain_digests() -> Vec<(&'static str, u64)> {
    let [first, second] = batches();
    let mut e = Engine::new(EngineConfig::default());
    let sorted_first = e.simulate_attacks_batch(&first);
    // At least one avoiding booter filtered every honeypot out: its
    // command contributes no packets at all.
    let empty = (0..6u8)
        .filter(|&i| !sorted_first.iter().any(|p| p.victim == avoiding_victim(i)))
        .count();
    assert!(empty >= 1, "no avoiding booter ended with an empty list");
    let reflected_first = e.fleet().reflected_packets;
    let absorbed_first = e.fleet().absorbed_packets;
    let packets = e.simulate_attacks_batch(&second);
    let mut all = sorted_first.clone();
    all.extend_from_slice(&packets);
    all.sort_by_key(|p| p.time);
    vec![
        ("reflected_first", reflected_first),
        ("absorbed_first", absorbed_first),
        ("batch_packets", packets_digest(&packets)),
        ("reflected_second", e.fleet().reflected_packets),
        ("absorbed_second", e.fleet().absorbed_packets),
        ("flows_first", flows_digest(&group_flows_par(&sorted_first, VictimKey::ByIp))),
        ("flows_second", flows_digest(&group_flows_par(&packets, VictimKey::ByIp))),
        ("flows_all_prefix", flows_digest(&group_flows_par(&all, VictimKey::ByPrefix24))),
    ]
}

const BATCH_GOLDEN: [(&str, u64); 8] = [
    ("reflected_first", 669),
    ("absorbed_first", 6531),
    ("batch_packets", 0x4202_7750_5216_f5cc),
    ("reflected_second", 5489),
    ("absorbed_second", 33391),
    ("flows_first", 0xa194_d96d_d490_096e),
    ("flows_second", 0x8a3a_7b32_60cd_ae84),
    ("flows_all_prefix", 0x29bb_6fdc_2059_8722),
];

#[test]
fn batch_chain_digests_are_pinned() {
    assert_eq!(batch_chain_digests(), BATCH_GOLDEN);
}

#[test]
fn single_command_path_digest_is_pinned() {
    let [first, second] = batches();
    let mut e = Engine::new(EngineConfig::default());
    let mut h = Fnv64::new();
    for cmd in first.iter().chain(&second) {
        h.u64(packets_digest(&e.simulate_attack_packets(cmd)));
    }
    h.u64(e.fleet().reflected_packets);
    h.u64(e.fleet().absorbed_packets);
    assert_eq!(h.0, 0x7302_67cc_0159_4395);
}

#[test]
fn full_packets_honeypot_series_digest_is_pinned() {
    let s = Scenario::run(ScenarioConfig {
        market: MarketConfig {
            scale: 0.05,
            seed: 0x6F11_9AC3,
            ..MarketConfig::default()
        },
        fidelity: Fidelity::FullPackets { per_week: 8 },
        ..ScenarioConfig::default()
    });
    let mut h = Fnv64::new();
    for c in Country::ALL {
        for p in UdpProtocol::ALL {
            let series = s.honeypot.country_protocol(c, p);
            h.u64(series.len() as u64);
            for i in 0..series.len() {
                h.u64(series.get(i).to_bits());
            }
        }
    }
    assert_eq!(h.0, 0x928e_c931_c6f6_57e6);
}
