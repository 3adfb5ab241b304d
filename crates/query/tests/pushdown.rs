//! Pruning-soundness property suite: for *arbitrary* packet sets, chunk
//! layouts, and predicates, a zone-map-pruned scan must return exactly
//! what a brute-force full decode + row filter returns — including the
//! degenerate shapes (empty results, single-chunk hits, every chunk
//! pruned) — and the no-materialization kernels must agree with the
//! materializing oracle.
//!
//! The generator is adversarial on purpose: victim/time ranges are tight
//! so zone envelopes overlap, chunk capacities are tiny so stores have
//! many chunks, and predicates are drawn independently of the data so
//! they regularly hit nothing, one chunk, or everything.

use booters_netsim::{SensorPacket, UdpProtocol, VictimAddr};
use booters_query::{Column, Predicate, QueryEngine, WeeklyPanel, WEEK_SECS};
use booters_store::ChunkWriter;
use booters_testkit::strategy::prop;
use booters_testkit::{forall, prop_assert, prop_assert_eq, Strategy};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn test_path(name: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "booters_query_prop_{name}_{}_{seq}.bstore",
        std::process::id()
    ))
}

/// One packet in a deliberately tight domain: times inside two weeks,
/// victims in a 40-key band that crosses a /24 boundary (base 0x190700C0
/// = 25.7.0.192, so +40 spills into 25.7.1.*), protocols across the
/// full table.
fn packet() -> impl Strategy<Value = SensorPacket> {
    (
        0u64..(2 * WEEK_SECS),
        0u32..40,
        0usize..UdpProtocol::ALL.len(),
        0u32..4,
    )
        .prop_map(|(time, v, proto, sensor)| SensorPacket {
            time,
            sensor,
            victim: VictimAddr(0x1907_00C0 + v),
            protocol: UdpProtocol::ALL[proto],
            ttl: 64,
            src_port: 123,
        })
}

/// A predicate drawn independently of the data: each clause is present
/// or absent, and the victim clause exercises every filter shape.
fn predicate() -> impl Strategy<Value = Predicate> {
    (
        (
            0u8..4,                // time clause selector
            0u64..(2 * WEEK_SECS), // time window start
            0u64..WEEK_SECS,       // time window length
        ),
        (
            0u8..6,   // victim clause selector
            0u32..48, // victim operand a
            0u32..48, // victim operand b
        ),
        (
            0u8..4, // protocol clause selector
            0usize..UdpProtocol::ALL.len(),
        ),
    )
        .prop_map(|((tsel, from, len), (vsel, va, vb), (psel, proto))| {
            let mut p = Predicate::all();
            match tsel {
                0 => {}                                     // no time clause
                1 => p = p.with_time(from, from + len + 1), // plausible window
                2 => p = p.with_time(from, from),           // empty window
                _ => p = p.with_time(3 * WEEK_SECS, 4 * WEEK_SECS), // off the data
            }
            let addr = |k: u32| VictimAddr(0x1907_00C0 + k);
            match vsel {
                0 => {}
                1 => p = p.with_victim(addr(va)),
                2 => p = p.with_victim_set(&[addr(va), addr(vb), addr(va / 2)]),
                3 => p = p.with_victim_set(&[]),
                4 => p = p.with_prefix24(addr(va)),
                _ => {
                    let (lo, hi) = (va.min(vb), va.max(vb));
                    p = p.with_victim_range(addr(lo), addr(hi));
                }
            }
            match psel {
                0 => {}
                1 => p = p.with_protocols(&[UdpProtocol::ALL[proto]]),
                2 => p = p.with_protocols(&UdpProtocol::ALL),
                _ => p = p.with_protocols(&[]),
            }
            p
        })
}

fn write_store(name: &str, packets: &[SensorPacket], cap: usize) -> PathBuf {
    let path = test_path(name);
    let mut w = ChunkWriter::with_capacity(&path, cap).unwrap();
    w.push_all(packets).unwrap();
    w.finish().unwrap();
    path
}

forall! {
    #![cases(96)]
    fn pruned_scan_equals_brute_force_oracle(
        packets in prop::collection::vec(packet(), 1..160),
        cap in 1usize..24,
        pred in predicate()
    ) {
        let path = write_store("scan", &packets, cap);
        let eng = QueryEngine::open(&path).unwrap();
        let res = eng.scan(&pred).unwrap();
        std::fs::remove_file(&path).unwrap();

        // The brute-force oracle: every row, filtered in store order.
        let oracle: Vec<SensorPacket> =
            packets.iter().filter(|p| pred.matches(p)).cloned().collect();
        prop_assert_eq!(&res.rows, &oracle);

        // Accounting is conservation-law consistent.
        let chunks = packets.len().div_ceil(cap) as u64;
        prop_assert_eq!(res.stats.chunks_total, chunks);
        prop_assert_eq!(
            res.stats.chunks_pruned + res.stats.chunks_decoded,
            chunks
        );
        prop_assert_eq!(res.stats.rows_returned, oracle.len() as u64);
        prop_assert!(res.stats.rows_scanned <= packets.len() as u64);

        // Soundness: every row the oracle found came from an unpruned
        // chunk, so pruning everything implies an empty result.
        if res.stats.chunks_pruned == chunks {
            prop_assert!(oracle.is_empty());
        }
    }
}

forall! {
    #![cases(96)]
    fn kernels_agree_with_materializing_oracle(
        packets in prop::collection::vec(packet(), 1..160),
        cap in 1usize..24,
        pred in predicate()
    ) {
        let path = write_store("kernels", &packets, cap);
        let eng = QueryEngine::open(&path).unwrap();
        let (n, _) = eng.count(&pred).unwrap();
        let (sum, _) = eng.sum(&pred, Column::Time).unwrap();
        let (mm, _) = eng.min_max(&pred, Column::Victim).unwrap();
        let (panel, _) = eng.group_by_week(&pred).unwrap();
        std::fs::remove_file(&path).unwrap();

        let oracle: Vec<&SensorPacket> = packets.iter().filter(|p| pred.matches(p)).collect();
        prop_assert_eq!(n, oracle.len() as u64);
        prop_assert_eq!(sum, oracle.iter().map(|p| p.time as u128).sum::<u128>());
        let mm_oracle = oracle.iter().fold(None, |acc: Option<(u64, u64)>, p| {
            let v = p.victim.0 as u64;
            Some(match acc {
                None => (v, v),
                Some((lo, hi)) => (lo.min(v), hi.max(v)),
            })
        });
        prop_assert_eq!(mm, mm_oracle);

        let mut panel_oracle = WeeklyPanel::default();
        for p in &oracle {
            let key = (
                p.time / WEEK_SECS,
                p.victim.country().index() as u8,
                p.protocol.index() as u8,
            );
            *panel_oracle.cells.entry(key).or_insert(0) += 1;
        }
        prop_assert_eq!(&panel, &panel_oracle);
    }
}

forall! {
    #![cases(48)]
    fn pruning_and_results_are_plan_shape_invariant(
        packets in prop::collection::vec(packet(), 1..120),
        cap_a in 1usize..12,
        cap_b in 12usize..40,
        pred in predicate()
    ) {
        // The same rows stored under two different chunk layouts answer
        // every query identically — pruning is an optimisation, never a
        // semantics change.
        let path_a = write_store("layout_a", &packets, cap_a);
        let path_b = write_store("layout_b", &packets, cap_b);
        let ea = QueryEngine::open(&path_a).unwrap();
        let eb = QueryEngine::open(&path_b).unwrap();
        let ra = ea.scan(&pred).unwrap();
        let rb = eb.scan(&pred).unwrap();
        let ca = ea.count(&pred).unwrap().0;
        let cb = eb.count(&pred).unwrap().0;
        std::fs::remove_file(&path_a).unwrap();
        std::fs::remove_file(&path_b).unwrap();
        prop_assert_eq!(&ra.rows, &rb.rows);
        prop_assert_eq!(ca, cb);
        prop_assert_eq!(ra.stats.rows_returned, ca);
    }
}

#[test]
fn single_chunk_hit_decodes_exactly_one_chunk() {
    // Ten well-separated time bands, one chunk each; a predicate inside
    // band 6 must decode exactly chunk 6.
    let packets: Vec<SensorPacket> = (0..10u64)
        .flat_map(|band| {
            (0..16u64).map(move |i| SensorPacket {
                time: band * 10_000 + i,
                sensor: 0,
                victim: VictimAddr(100 + band as u32),
                protocol: UdpProtocol::ALL[(band % 10) as usize],
                ttl: 64,
                src_port: 123,
            })
        })
        .collect();
    let path = write_store("single_hit", &packets, 16);
    let eng = QueryEngine::open(&path).unwrap();
    assert_eq!(eng.chunk_count(), 10);
    let pred = Predicate::all().with_time(60_000, 60_008);
    let res = eng.scan(&pred).unwrap();
    assert_eq!(res.stats.chunks_decoded, 1);
    assert_eq!(res.stats.chunks_pruned, 9);
    assert_eq!(res.rows.len(), 8);
    assert!(res.rows.iter().all(|p| p.victim == VictimAddr(106)));

    // And a predicate off every band prunes all ten chunks: zero I/O,
    // empty result.
    let res = eng.scan(&Predicate::all().with_time(95_000, 99_000)).unwrap();
    assert_eq!(res.stats.chunks_pruned, 10);
    assert_eq!(res.stats.chunks_decoded, 0);
    assert!(res.rows.is_empty());
    std::fs::remove_file(&path).unwrap();
}
