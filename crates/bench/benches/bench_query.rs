//! Query-engine benchmarks: zone-map pruning economics (a selective
//! time window against a full scan over the same ≥32-chunk store — the
//! pruned scan must win by an integer multiple), group-by-week panel
//! throughput (rows/s, no row materialization), and concurrent-reader
//! scaling (whole scans/s with 1, 2, 4, and 8 readers sharing one
//! engine via `Arc` clones).
//!
//! Run with `BENCH_JSON=BENCH_query.json cargo bench --offline -p
//! booters-bench --bench bench_query` to refresh the recorded baseline.

use booters_netsim::{AttackCommand, Engine, EngineConfig, SensorPacket, UdpProtocol, VictimAddr};
use booters_query::{Predicate, QueryEngine, WEEK_SECS};
use booters_store::ChunkWriter;
use booters_testkit::bench::{black_box, Criterion, Throughput};
use booters_testkit::{bench_group, bench_main};
use std::path::PathBuf;

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("booters-bench-query-{}-{name}", std::process::id()))
}

/// A deterministic engine trace spread over four weeks so time zone
/// maps separate cleanly across chunks.
fn sample_packets() -> Vec<SensorPacket> {
    let mut engine = Engine::new(EngineConfig::default());
    let cmds: Vec<AttackCommand> = (0..400u32)
        .map(|i| AttackCommand {
            time: (4 * WEEK_SECS / 400) * i as u64,
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

/// Write the trace into a store with at least 32 chunks, so pruning has
/// real room to show an integer-multiple win.
fn sample_store(name: &str) -> (PathBuf, usize) {
    let packets = sample_packets();
    let cap = (packets.len() / 48).max(1);
    let path = scratch(name);
    let mut w = ChunkWriter::with_capacity(&path, cap).unwrap();
    w.push_all(&packets).unwrap();
    w.finish().unwrap();
    (path, packets.len())
}

/// A narrow window in week 2: survives in a handful of chunks, prunes
/// the rest from the footer alone.
fn narrow_window() -> Predicate {
    Predicate::all().with_time(WEEK_SECS, WEEK_SECS + WEEK_SECS / 8)
}

fn bench_pruning(c: &mut Criterion) {
    let (path, rows) = sample_store("pruning.bstore");
    let eng = QueryEngine::open(&path).unwrap();
    assert!(eng.chunk_count() >= 32, "store too small: {}", eng.chunk_count());
    let narrow = narrow_window();
    let plan = eng.plan(&narrow);
    assert!(
        plan.pruned * 2 >= plan.total,
        "window should prune most chunks ({}/{} pruned)",
        plan.pruned,
        plan.total
    );
    let mut group = c.benchmark_group("query_pruning");
    group.sample_size(20);
    group.throughput(Throughput::Elements(rows as u64));
    group.bench_function("full_scan", |b| {
        b.iter(|| black_box(eng.scan(&Predicate::all()).unwrap().rows.len()))
    });
    group.bench_function("pruned_window", |b| {
        b.iter(|| black_box(eng.scan(&narrow).unwrap().rows.len()))
    });
    group.bench_function("pruned_count_footer", |b| {
        b.iter(|| black_box(eng.count(&narrow).unwrap().0))
    });
    group.finish();
    let _ = std::fs::remove_file(&path);
}

fn bench_group_by_week(c: &mut Criterion) {
    let (path, rows) = sample_store("panel.bstore");
    let eng = QueryEngine::open(&path).unwrap();
    let mut group = c.benchmark_group("query_group_by_week");
    group.sample_size(10);
    group.throughput(Throughput::Elements(rows as u64));
    group.bench_function("weekly_panel", |b| {
        b.iter(|| black_box(eng.group_by_week(&Predicate::all()).unwrap().0.cells.len()))
    });
    group.finish();
    let _ = std::fs::remove_file(&path);
}

/// N readers each run one whole pruned scan; elements = scans, so the
/// recorded throughput is scans/s at that reader count.
fn bench_readers(c: &mut Criterion) {
    let (path, _) = sample_store("readers.bstore");
    let eng = QueryEngine::open(&path).unwrap();
    let pred = narrow_window();
    let mut group = c.benchmark_group("query_readers");
    group.sample_size(10);
    for readers in [1usize, 2, 4, 8] {
        group.throughput(Throughput::Elements(readers as u64));
        group.bench_function(&format!("scans_{readers}_readers"), |b| {
            b.iter(|| {
                let handles: Vec<_> = (0..readers)
                    .map(|_| {
                        let eng = eng.clone();
                        let pred = pred.clone();
                        std::thread::spawn(move || eng.scan(&pred).unwrap().rows.len())
                    })
                    .collect();
                let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
                black_box(total)
            })
        });
    }
    group.finish();
    let _ = std::fs::remove_file(&path);
}

bench_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_pruning, bench_group_by_week, bench_readers
}
bench_main!(benches);
