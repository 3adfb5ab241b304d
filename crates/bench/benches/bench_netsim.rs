//! Netsim benchmarks: packet generation, flow grouping throughput, and
//! the fast observation path with its weekly list rescans.
//!
//! Run with `BENCH_JSON=BENCH_netsim.json cargo bench --offline -p
//! booters-bench --bench bench_netsim` to append to the recorded
//! baseline.

use booters_netsim::flow::{classify_flows, FlowGrouper};
use booters_netsim::{
    group_flows_par, AttackCommand, Engine, EngineConfig, SensorPacket, UdpProtocol, VictimAddr,
    VictimKey,
};
use booters_testkit::bench::{Criterion, Throughput};
use booters_testkit::rng::SplitMix64;
use booters_testkit::{bench_group, bench_main};
use std::hint::black_box;

fn sample_commands(n: usize) -> Vec<AttackCommand> {
    (0..n)
        .map(|i| AttackCommand {
            time: (i as u64) * 1_800,
            victim: VictimAddr::from_octets(25, (i / 250 % 250) as u8, (i % 250) as u8, 1),
            protocol: UdpProtocol::ALL[i % UdpProtocol::ALL.len()],
            duration_secs: 300,
            packets_per_second: 50_000,
            booter: (i % 40) as u32,
            avoids_honeypots: i % 9 == 0,
        })
        .collect()
}

fn bench_would_observe(c: &mut Criterion) {
    let cmds = sample_commands(10_000);
    let mut group = c.benchmark_group("netsim");
    group.throughput(Throughput::Elements(cmds.len() as u64));
    group.bench_function("would_observe_10k_commands", |b| {
        b.iter(|| {
            let mut engine = Engine::new(EngineConfig::default());
            let observed = cmds.iter().filter(|c| engine.would_observe(c)).count();
            black_box(observed)
        })
    });
    group.finish();
}

/// A year of the Aggregate observer's probes: each of 200 booters (every
/// ninth avoiding the honeypots) probed once a week, so every probe after
/// the first rescans the booter's list.
fn bench_weekly_rescans(c: &mut Criterion) {
    const WEEK: u64 = 7 * 86_400;
    let probes: Vec<AttackCommand> = (0..52u64)
        .flat_map(|week| {
            (0..200u32).map(move |i| AttackCommand {
                time: week * WEEK + u64::from(i) * 60,
                victim: VictimAddr::from_octets(25, 4, i as u8, 1),
                protocol: UdpProtocol::ALL[i as usize % UdpProtocol::ALL.len()],
                duration_secs: 300,
                packets_per_second: 50_000,
                booter: i,
                avoids_honeypots: i % 9 == 0,
            })
        })
        .collect();
    let mut group = c.benchmark_group("netsim");
    group.throughput(Throughput::Elements(probes.len() as u64));
    group.bench_function("weekly_rescan_probes", |b| {
        b.iter(|| {
            let mut engine = Engine::new(EngineConfig::default());
            black_box(probes.iter().filter(|c| engine.would_observe(c)).count())
        })
    });
    group.finish();
}

fn bench_packet_generation(c: &mut Criterion) {
    let cmds = sample_commands(200);
    c.bench_function("simulate_attack_packets_200", |b| {
        b.iter(|| {
            let mut engine = Engine::new(EngineConfig::default());
            let mut total = 0usize;
            for cmd in &cmds {
                total += engine.simulate_attack_packets(cmd).len();
            }
            black_box(total)
        })
    });
}

fn bench_flow_grouping(c: &mut Criterion) {
    // Pre-generate a realistic packet trace.
    let mut engine = Engine::new(EngineConfig::default());
    let mut packets: Vec<SensorPacket> = Vec::new();
    for cmd in sample_commands(500) {
        packets.extend(engine.simulate_attack_packets(&cmd));
    }
    packets.sort_by_key(|p| p.time);
    let mut group = c.benchmark_group("netsim");
    group.throughput(Throughput::Elements(packets.len() as u64));
    group.bench_function("flow_grouping", |b| {
        b.iter(|| {
            let mut grouper = FlowGrouper::new();
            for p in &packets {
                grouper.push(p);
            }
            black_box(grouper.finish().len())
        })
    });
    group.bench_function("classify_flows", |b| {
        b.iter(|| black_box(classify_flows(&packets).len()))
    });
    group.finish();
}

/// One `full_packets` week's commands: four attacks (the workload
/// averages ~3.6 a week) drawn like `commands_for_week` draws them —
/// uniform start in the week, 55% under five minutes with a tail to 30,
/// 10k–100k packets per second — one of them from an avoiding booter.
fn full_packets_week() -> Vec<AttackCommand> {
    let mut rng = SplitMix64::new(0xF011_9AC4);
    (0..4u32)
        .map(|i| {
            let r = rng.next_u64();
            let duration_secs = if r % 100 < 55 {
                30 + (r >> 8) as u32 % 270
            } else {
                300 + (r >> 8) as u32 % 1_500
            };
            AttackCommand {
                time: 100 * 604_800 + (r >> 24) % 604_800,
                victim: VictimAddr::from_octets(25, 6, (r >> 48) as u8, (r >> 56) as u8),
                protocol: UdpProtocol::ALL[(r >> 40) as usize % UdpProtocol::ALL.len()],
                duration_secs,
                packets_per_second: 10_000 + (r >> 20) as u32 % 90_000,
                booter: 7 + i,
                avoids_honeypots: i == 3,
            }
        })
        .collect()
}

fn bench_full_packets_week(c: &mut Criterion) {
    let cmds = full_packets_week();
    let packets = Engine::new(EngineConfig::default()).simulate_attacks_batch(&cmds);
    let mut group = c.benchmark_group("netsim");
    group.throughput(Throughput::Elements(packets.len() as u64));
    group.bench_function("simulate_attacks_batch_week", |b| {
        b.iter_with_setup(
            || Engine::new(EngineConfig::default()),
            |mut engine| black_box(engine.simulate_attacks_batch(&cmds).len()),
        )
    });
    group.bench_function("group_flows_week", |b| {
        b.iter(|| black_box(group_flows_par(&packets, VictimKey::ByIp).len()))
    });
    // The two above fused, as the in-memory full-packet scenario runs
    // them: per-command grouping on the pool, no week-wide sort.
    group.bench_function("simulate_attack_flows_week", |b| {
        b.iter_with_setup(
            || Engine::new(EngineConfig::default()),
            |mut engine| black_box(engine.simulate_attack_flows(&cmds, VictimKey::ByIp).len()),
        )
    });
    group.finish();
}

fn bench_attribution(c: &mut Criterion) {
    use booters_netsim::attribution::{FlowFeatures, KnnAttributor};
    let mut engine = Engine::new(EngineConfig::default());
    let mut attributor = KnnAttributor::new();
    let mut probes = Vec::new();
    for (i, cmd) in sample_commands(120).into_iter().enumerate() {
        let packets = engine.simulate_attack_packets(&cmd);
        if let Some(f) = FlowFeatures::from_packets(&packets) {
            if i % 4 == 0 {
                probes.push(f);
            } else {
                attributor.train(f, cmd.booter);
            }
        }
    }
    c.bench_function("knn_attribution_90train_30probe", |b| {
        b.iter(|| {
            let hits = probes
                .iter()
                .filter(|f| attributor.attribute(f, 3, 0.67).is_some())
                .count();
            black_box(hits)
        })
    });
}

bench_group!(
    benches,
    bench_would_observe,
    bench_weekly_rescans,
    bench_packet_generation,
    bench_flow_grouping,
    bench_full_packets_week,
    bench_attribution
);
bench_main!(benches);
