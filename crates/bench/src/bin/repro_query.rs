//! Exercise the predicate-pushdown query engine: run canned pushdown
//! queries (time window, victim prefix, protocol set) against a
//! many-chunk store, report the pruning economics, and write the weekly
//! `(week × country × protocol)` panel as a CSV artifact. The query
//! path's equivalence with in-memory flow grouping is pinned on engine
//! packet batches by `tests/flow_backends.rs`.
//!
//! Usage: `cargo run --release -p booters-bench --bin repro_query`

use booters_bench::write_artifact;
use booters_netsim::{AttackCommand, Engine, EngineConfig, UdpProtocol, VictimAddr};
use booters_query::{Predicate, QueryEngine, WEEK_SECS};
use booters_store::ChunkWriter;
use std::fmt::Write as _;

/// One synthetic trace spanning several weeks, chunked small so the
/// canned queries face a store with plenty of chunks to prune.
fn canned_store() -> std::path::PathBuf {
    let mut engine = Engine::new(EngineConfig::default());
    let cmds: Vec<AttackCommand> = (0..400u32)
        .map(|i| AttackCommand {
            time: (3 * WEEK_SECS / 400) * i as u64,
            victim: VictimAddr::from_octets(25, (i % 9) as u8, (i / 40) as u8, 1),
            protocol: UdpProtocol::ALL[i as usize % UdpProtocol::ALL.len()],
            duration_secs: 300,
            packets_per_second: 20_000,
            booter: i % 31,
            avoids_honeypots: i % 5 == 0,
        })
        .collect();
    let packets = engine.simulate_attacks_batch(&cmds);
    let path = std::env::temp_dir().join(format!(
        "booters-repro-query-{}.bstore",
        std::process::id()
    ));
    let mut w = ChunkWriter::with_capacity(&path, 1024).expect("create store file");
    w.push_all(&packets).expect("ingest");
    w.finish().expect("finish store file");
    path
}

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

fn canned_queries_report() -> (String, String) {
    let path = canned_store();
    let eng = QueryEngine::open(&path).expect("open store");
    let mut report = String::new();
    let _ = writeln!(
        report,
        "canned pushdown queries over {} chunks / {} packets:",
        eng.chunk_count(),
        eng.total_packets()
    );

    let canned: Vec<(&str, Predicate)> = vec![
        (
            "week 1 only (time window)",
            Predicate::all().with_time(WEEK_SECS, 2 * WEEK_SECS),
        ),
        (
            "one /24 victim prefix",
            Predicate::all().with_prefix24(VictimAddr::from_octets(25, 3, 0, 0)),
        ),
        (
            "DNS + NTP reflectors",
            Predicate::all().with_protocols(&[UdpProtocol::Dns, UdpProtocol::Ntp]),
        ),
        (
            "prefix x protocol x window",
            Predicate::all()
                .with_time(0, WEEK_SECS)
                .with_prefix24(VictimAddr::from_octets(25, 1, 0, 0))
                .with_protocols(&[UdpProtocol::Dns]),
        ),
        ("off the trace (all pruned)", Predicate::all().with_time(9 * WEEK_SECS, 10 * WEEK_SECS)),
    ];
    for (name, pred) in &canned {
        let (n, st) = eng.count(pred).expect("count");
        let _ = writeln!(
            report,
            "  {name}: {n} rows; pruned {}/{} chunks ({:.0}%), {} covered, {} decoded, {} cached",
            st.chunks_pruned,
            st.chunks_total,
            pct(st.chunks_pruned, st.chunks_total),
            st.chunks_covered,
            st.chunks_decoded,
            st.chunks_cached,
        );
    }

    let (panel, st) = eng.group_by_week(&Predicate::all()).expect("panel");
    let _ = writeln!(
        report,
        "weekly panel: {} cells over {} weeks from {} rows (no row materialization)",
        panel.cells.len(),
        panel.weeks().len(),
        st.rows_scanned,
    );
    let csv = panel.to_csv();
    std::fs::remove_file(&path).expect("remove canned store");
    (report, csv)
}

fn main() {
    let (canned, panel_csv) = canned_queries_report();
    let report = format!(
        "decoded-chunk cache budget: {} bytes\n\n{canned}",
        booters_store::cache_bytes(),
    );
    println!("{report}");
    write_artifact("query_panel.csv", &panel_csv);
    write_artifact("query.txt", &report);
}
