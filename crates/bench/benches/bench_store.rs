//! Storage-layer benchmarks: chunked-columnar ingest throughput (MB/s and
//! packets/s), codec encode/decode cost, whole-file scan speed (with the
//! achieved compression ratio embedded in the benchmark name so it lands
//! in `BENCH_store.json`), per-kernel fast-vs-oracle timings (slice-by-8
//! CRC, SWAR delta decode, batched column encode — DESIGN.md §5f), the
//! canonical flow sort, and out-of-core
//! vs in-memory flow grouping wall time under a spill-forcing budget.
//!
//! Run with `BENCH_JSON=BENCH_store.json cargo bench --offline -p
//! booters-bench --bench bench_store` to refresh the recorded baseline.

use booters_netsim::flow::VictimKey;
use booters_netsim::packet::SensorPacket;
use booters_netsim::{group_flows_par, AttackCommand, Engine, EngineConfig, UdpProtocol, VictimAddr};
use booters_store::varint::{decode_deltas, decode_deltas_scalar, encode_u64, zigzag};
use booters_store::{
    decode_chunk, encode_chunk, encode_chunk_scalar, group_out_of_core, ChunkReader, ChunkWriter,
    SpillConfig, PACKET_BYTES,
};
use booters_testkit::bench::{Criterion, Throughput};
use booters_testkit::{bench_group, bench_main};
use std::hint::black_box;
use std::path::PathBuf;

/// Spill budget small enough that the grouping benchmark genuinely runs
/// the external sort/merge path on the sample trace.
const SPILL_BUDGET: usize = 256 << 10;

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("booters-bench-store-{}-{name}", std::process::id()))
}

/// A deterministic engine trace: a spread of victims and protocols large
/// enough that chunk encode/merge costs dominate fixed overheads.
fn sample_packets() -> Vec<SensorPacket> {
    let mut engine = Engine::new(EngineConfig::default());
    let cmds: Vec<AttackCommand> = (0..400u32)
        .map(|i| AttackCommand {
            time: 600 * i as u64,
            victim: VictimAddr::from_octets(25, (i % 7) as u8, (i / 7) as u8, 1),
            protocol: UdpProtocol::ALL[i as usize % UdpProtocol::ALL.len()],
            duration_secs: 300,
            packets_per_second: 50_000,
            booter: i % 23,
            avoids_honeypots: i % 5 == 0,
        })
        .collect();
    engine.simulate_attacks_batch(&cmds)
}

fn bench_ingest(c: &mut Criterion) {
    let packets = sample_packets();
    let raw = (packets.len() * PACKET_BYTES) as u64;
    let path = scratch("ingest.bst");

    // Same workload twice so the JSON carries both a bytes-normalised
    // (MB/s) and an elements-normalised (packets/s) record.
    let mut group = c.benchmark_group("store_ingest_bytes");
    group.sample_size(10);
    group.throughput(Throughput::Bytes(raw));
    group.bench_function("chunk_writer", |b| {
        b.iter(|| {
            let mut w = ChunkWriter::create(&path).unwrap();
            w.push_all(&packets).unwrap();
            black_box(w.finish().unwrap().file_bytes)
        })
    });
    group.finish();

    let mut group = c.benchmark_group("store_ingest_packets");
    group.sample_size(10);
    group.throughput(Throughput::Elements(packets.len() as u64));
    group.bench_function("chunk_writer", |b| {
        b.iter(|| {
            let mut w = ChunkWriter::create(&path).unwrap();
            w.push_all(&packets).unwrap();
            black_box(w.finish().unwrap().packets)
        })
    });
    group.finish();
    let _ = std::fs::remove_file(&path);
}

fn bench_codec(c: &mut Criterion) {
    let packets: Vec<SensorPacket> = sample_packets().into_iter().take(4096).collect();
    let raw = (packets.len() * PACKET_BYTES) as u64;
    let encoded = encode_chunk(&packets);
    let mut group = c.benchmark_group("store_codec");
    group.sample_size(20);
    group.throughput(Throughput::Bytes(raw));
    group.bench_function("encode", |b| b.iter(|| black_box(encode_chunk(&packets).len())));
    group.bench_function("decode", |b| {
        b.iter(|| black_box(decode_chunk(&encoded).unwrap().len()))
    });
    group.finish();
}

fn bench_scan(c: &mut Criterion) {
    let packets = sample_packets();
    let path = scratch("scan.bst");
    let mut w = ChunkWriter::create(&path).unwrap();
    w.push_all(&packets).unwrap();
    let meta = w.finish().unwrap();
    // Embed the achieved compression ratio in the benchmark name so the
    // JSON baseline records it alongside the scan time.
    let name = format!("read_all_ratio_x{:.2}", meta.compression_ratio());
    let mut group = c.benchmark_group("store_scan");
    group.sample_size(10);
    group.throughput(Throughput::Bytes(meta.raw_bytes));
    group.bench_function(&name, |b| {
        b.iter(|| {
            let mut r = ChunkReader::open(&path).unwrap();
            black_box(r.read_all().unwrap().len())
        })
    });
    group.finish();
    let _ = std::fs::remove_file(&path);
}

/// Each fast kernel timed against its scalar oracle on the same input,
/// both called directly, so the JSON trajectory records the speedup
/// ratio per kernel (DESIGN.md §5f), not just the end-to-end effect.
fn bench_kernels(c: &mut Criterion) {
    let packets: Vec<SensorPacket> = sample_packets().into_iter().take(4096).collect();
    let encoded = encode_chunk(&packets);

    let mut group = c.benchmark_group("store_kernel_crc32");
    group.sample_size(20);
    group.throughput(Throughput::Bytes(encoded.len() as u64));
    group.bench_function("slice8", |b| {
        b.iter(|| black_box(booters_store::crc32(&encoded)))
    });
    group.bench_function("bytewise_oracle", |b| {
        b.iter(|| black_box(booters_store::crc32_bytewise(&encoded)))
    });
    group.finish();

    // The time column of the chunk above, delta-zig-zag encoded.
    let mut times = Vec::new();
    let mut prev = 0i64;
    for p in &packets {
        encode_u64(zigzag((p.time as i64).wrapping_sub(prev)), &mut times);
        prev = p.time as i64;
    }
    let n = packets.len();
    let mut group = c.benchmark_group("store_kernel_decode");
    group.sample_size(20);
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function("swar", |b| {
        b.iter(|| black_box(decode_deltas(&times, n, u64::MAX, "time").unwrap()))
    });
    group.bench_function("scalar_oracle", |b| {
        b.iter(|| black_box(decode_deltas_scalar(&times, n, u64::MAX, "time").unwrap()))
    });
    group.finish();

    let mut group = c.benchmark_group("store_kernel_encode");
    group.sample_size(20);
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function("batched", |b| {
        b.iter(|| black_box(encode_chunk(&packets).len()))
    });
    group.bench_function("scalar_oracle", |b| {
        b.iter(|| black_box(encode_chunk_scalar(&packets).len()))
    });
    group.finish();

    // The canonical flow sort (a plain comparison sort, so no oracle) on
    // a duplicate-heavy flow set.
    let mut trace = sample_packets();
    trace.sort_by_key(|p| p.time);
    let flows = group_flows_par(&trace, VictimKey::ByIp);
    let mut group = c.benchmark_group("store_kernel_sort");
    group.sample_size(20);
    group.throughput(Throughput::Elements(flows.len() as u64));
    group.bench_function("comparison_oracle", |b| {
        b.iter(|| {
            let mut f = flows.clone();
            booters_netsim::sort_flows(&mut f);
            black_box(f.len())
        })
    });
    group.finish();
}

fn bench_grouping(c: &mut Criterion) {
    let mut packets = sample_packets();
    packets.sort_by_key(|p| p.time);
    let mut group = c.benchmark_group("store_grouping");
    group.sample_size(10);
    group.throughput(Throughput::Elements(packets.len() as u64));
    group.bench_function("in_memory", |b| {
        b.iter(|| black_box(group_flows_par(&packets, VictimKey::ByIp).len()))
    });
    group.bench_function("out_of_core_256k", |b| {
        b.iter(|| {
            let cfg = SpillConfig {
                budget_bytes: SPILL_BUDGET,
                ..SpillConfig::default()
            };
            let out = group_out_of_core(&packets, cfg).unwrap();
            assert!(out.stats.spill_runs >= 3);
            black_box(out.flows.len())
        })
    });
    group.finish();
}

bench_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_ingest, bench_codec, bench_scan, bench_kernels, bench_grouping
}
bench_main!(benches);
