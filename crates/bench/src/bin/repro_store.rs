//! Exercise the columnar event store: ingest a synthetic sensor trace
//! into the chunked on-disk format and report throughput and
//! compression. The out-of-core grouping path's equivalence with
//! in-memory grouping is pinned on engine packet batches by
//! `tests/flow_backends.rs`.
//!
//! Usage: `cargo run --release -p booters-bench --bin repro_store`

use booters_bench::write_artifact;
use booters_store::{ChunkWriter, PACKET_BYTES};
use booters_netsim::{AttackCommand, Engine, EngineConfig, UdpProtocol, VictimAddr};
use std::time::Instant;

/// Time a raw ingest of one engine trace through the chunk writer.
fn ingest_report() -> String {
    let mut engine = Engine::new(EngineConfig::default());
    let cmds: Vec<AttackCommand> = (0..600u32)
        .map(|i| AttackCommand {
            time: 500 * i as u64,
            victim: VictimAddr::from_octets(25, (i % 9) as u8, (i / 9) as u8, 1),
            protocol: UdpProtocol::ALL[i as usize % UdpProtocol::ALL.len()],
            duration_secs: 300,
            packets_per_second: 50_000,
            booter: i % 31,
            avoids_honeypots: i % 5 == 0,
        })
        .collect();
    let packets = engine.simulate_attacks_batch(&cmds);
    let raw = packets.len() * PACKET_BYTES;
    let path = std::env::temp_dir().join(format!("booters-repro-store-{}.bst", std::process::id()));
    let start = Instant::now();
    let mut w = ChunkWriter::create(&path).expect("create store file");
    w.push_all(&packets).expect("ingest");
    let meta = w.finish().expect("finish store file");
    let secs = start.elapsed().as_secs_f64();
    let _ = std::fs::remove_file(&path);
    format!(
        "ingest: {} packets ({:.1} MB raw) in {:.3}s -> {:.1} MB/s, {:.0} packets/s\n\
         on disk: {:.1} MB across {} chunks, compression x{:.2}\n",
        meta.packets,
        raw as f64 / 1e6,
        secs,
        raw as f64 / 1e6 / secs,
        meta.packets as f64 / secs,
        meta.file_bytes as f64 / 1e6,
        meta.chunks,
        meta.compression_ratio(),
    )
}

fn main() {
    let report = ingest_report();
    println!("{report}");
    write_artifact("store.txt", &report);
}
