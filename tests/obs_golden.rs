//! Golden tests for the observability contract (DESIGN.md §5e):
//!
//! 1. Turning metrics recording on changes **no output bytes** — Table 1
//!    and Table 2 render byte-identically with `booters-obs` enabled.
//! 2. Workload counters merged out of worker threads are deterministic:
//!    the same totals at `BOOTERS_THREADS` 1 and 4.
//!
//! The obs registry is process-global, so the tests in this file (which
//! is its own process, like every integration-test binary) serialise on
//! a local mutex and reset the registry at each step.

use booting_the_booters::core::pipeline::{
    build_dataset_query, build_dataset_serve, fit_global, PipelineConfig,
};
use booting_the_booters::core::detect::{detect_interventions, DetectOptions};
use booting_the_booters::core::report::{table1, table2};
use booting_the_booters::core::scenarios::{run_suite, ScenarioRunConfig};
use booting_the_booters::core::scenario::{Fidelity, Scenario, ScenarioConfig};
use booting_the_booters::market::calibration::Calibration;
use booting_the_booters::market::market::MarketConfig;
use booting_the_booters::market::scn::builtin_scenarios;
use booting_the_booters::obs;
use booting_the_booters::par::{with_min_items, with_threads};
use booting_the_booters::query::QueryConfig;
use booting_the_booters::serve::ServeConfig;
use booting_the_booters::timeseries::{Date, WeeklySeries};
use std::collections::BTreeMap;
use std::sync::Mutex;

static OBS_LOCK: Mutex<()> = Mutex::new(());

const SMOKE_SEED: u64 = 0x5EED_B007;

fn run(seed: u64) -> Scenario {
    Scenario::run(ScenarioConfig {
        market: MarketConfig {
            scale: 0.05,
            seed,
            ..MarketConfig::default()
        },
        fidelity: Fidelity::Aggregate,
        ..ScenarioConfig::default()
    })
}

/// Full pipeline → rendered Table 1 + Table 2.
fn render_tables() -> (String, String) {
    let s = run(SMOKE_SEED);
    let cal = Calibration::default();
    let cfg = PipelineConfig::default();
    let fit = fit_global(&s.honeypot, &cal, &cfg).unwrap();
    (table1(&fit), table2(&s.honeypot, &cal, &cfg).unwrap())
}

#[test]
fn metrics_on_changes_no_output_bytes() {
    let _g = OBS_LOCK.lock().unwrap();

    obs::set_enabled(false);
    obs::reset();
    let (t1_off, t2_off) = render_tables();

    obs::set_enabled(true);
    obs::reset();
    let (t1_on, t2_on) = render_tables();
    let snap = obs::snapshot();
    obs::set_enabled(false);
    obs::reset();

    assert_eq!(t1_off, t1_on, "Table 1 must be byte-identical with BOOTERS_OBS on");
    assert_eq!(t2_off, t2_on, "Table 2 must be byte-identical with BOOTERS_OBS on");
    // And the instrumented run actually recorded something — otherwise
    // this golden proves nothing.
    assert!(snap.counter("glm.irls_fits") > 0, "expected IRLS fits recorded");
    assert!(snap.counter("core.weeks_simulated") > 0, "expected weeks recorded");
    assert!(snap.spans.contains_key("simulate"), "expected simulate span");
}

/// Run the pipeline with metrics on under `threads` workers and return
/// the merged workload counters.
fn workload_at(threads: usize) -> BTreeMap<String, u64> {
    obs::set_enabled(true);
    obs::reset();
    // min_items 1 forces even the eight-country fan-out through the
    // pool, so worker-thread flushing is genuinely exercised.
    with_min_items(1, || {
        with_threads(threads, || {
            let (t1, t2) = render_tables();
            assert!(!t1.is_empty() && !t2.is_empty());
        })
    });
    let snap = obs::snapshot();
    obs::set_enabled(false);
    obs::reset();
    snap.workload_counters()
}

#[test]
fn workload_counters_are_thread_count_invariant() {
    let _g = OBS_LOCK.lock().unwrap();
    let seq = workload_at(1);
    let par = workload_at(4);
    assert!(!seq.is_empty(), "sequential run recorded no counters");
    assert_eq!(
        seq, par,
        "workload counters must merge to identical totals at 1 and 4 threads"
    );
    assert!(
        seq.contains_key("glm.irls_iterations"),
        "expected IRLS iteration counts in the workload set"
    );
}

/// Full-packet scenario routed through the streaming (booters-serve)
/// backend, over the paper's modelling window with a small weekly
/// command sample — the same shape the serve-equivalence golden pins.
fn render_streaming_tables() -> (String, String) {
    let cal = Calibration {
        scenario_start: Date::new(2016, 6, 6),
        scenario_end: Date::new(2019, 4, 1),
        ..Calibration::default()
    };
    let config = ScenarioConfig {
        market: MarketConfig {
            calibration: cal,
            scale: 0.05,
            seed: SMOKE_SEED,
            ..MarketConfig::default()
        },
        fidelity: Fidelity::FullPackets { per_week: 4 },
        ..ScenarioConfig::default()
    };
    let serve = ServeConfig {
        shards: 4,
        queue_capacity: 256,
        ..ServeConfig::default()
    };
    let s = build_dataset_serve(config, serve).expect("streaming scenario");
    assert!(s.serve_stats.as_ref().expect("serve path ran").packets > 0);
    let cal = Calibration::default();
    let cfg = PipelineConfig::default();
    let fit = fit_global(&s.honeypot, &cal, &cfg).unwrap();
    (table1(&fit), table2(&s.honeypot, &cal, &cfg).unwrap())
}

#[test]
fn streaming_metrics_on_changes_no_output_bytes() {
    let _g = OBS_LOCK.lock().unwrap();

    obs::set_enabled(false);
    obs::reset();
    let (t1_off, t2_off) = render_streaming_tables();

    obs::set_enabled(true);
    obs::reset();
    let (t1_on, t2_on) = render_streaming_tables();
    let snap = obs::snapshot();
    obs::set_enabled(false);
    obs::reset();

    assert_eq!(
        t1_off, t1_on,
        "streaming Table 1 must be byte-identical with BOOTERS_OBS on"
    );
    assert_eq!(
        t2_off, t2_on,
        "streaming Table 2 must be byte-identical with BOOTERS_OBS on"
    );
    // The streaming stages really were instrumented.
    assert!(
        snap.counter("serve.packets_grouped") > 0,
        "expected grouped-packet counts recorded"
    );
    assert!(
        snap.counter("serve.weeks_closed") > 0,
        "expected week closes recorded"
    );
    assert!(
        snap.spans.keys().any(|k| k.contains("serve.close_epoch")),
        "expected the epoch-close span somewhere in the hierarchy: {:?}",
        snap.spans.keys().collect::<Vec<_>>()
    );
}

/// Streaming pipeline with metrics on under `threads` workers → merged
/// workload counters.
fn streaming_workload_at(threads: usize) -> BTreeMap<String, u64> {
    obs::set_enabled(true);
    obs::reset();
    with_min_items(1, || {
        with_threads(threads, || {
            let (t1, t2) = render_streaming_tables();
            assert!(!t1.is_empty() && !t2.is_empty());
        })
    });
    let snap = obs::snapshot();
    obs::set_enabled(false);
    obs::reset();
    snap.workload_counters()
}

#[test]
fn streaming_workload_counters_are_thread_count_invariant() {
    let _g = OBS_LOCK.lock().unwrap();
    let seq = streaming_workload_at(1);
    let par = streaming_workload_at(4);
    assert!(!seq.is_empty(), "sequential streaming run recorded no counters");
    assert_eq!(
        seq, par,
        "streaming workload counters must merge to identical totals at 1 and 4 threads"
    );
    assert!(
        seq.contains_key("serve.packets_grouped"),
        "expected serve intake counts in the workload set"
    );
    assert!(
        seq.contains_key("serve.flows_closed"),
        "expected flow-close counts in the workload set"
    );
}

/// Full-packet scenario routed through the query (booters-query)
/// backend, over the paper's modelling window with a small weekly
/// command sample — the same shape the query-equivalence golden pins.
fn render_query_tables() -> (String, String) {
    let cal = Calibration {
        scenario_start: Date::new(2016, 6, 6),
        scenario_end: Date::new(2019, 4, 1),
        ..Calibration::default()
    };
    let config = ScenarioConfig {
        market: MarketConfig {
            calibration: cal,
            scale: 0.05,
            seed: SMOKE_SEED,
            ..MarketConfig::default()
        },
        fidelity: Fidelity::FullPackets { per_week: 4 },
        ..ScenarioConfig::default()
    };
    let query = QueryConfig {
        chunk_capacity: 512,
        ..QueryConfig::default()
    };
    let s = build_dataset_query(config, query).expect("query-backed scenario");
    assert!(s.query_stats.expect("query path ran").scans > 0);
    let cal = Calibration::default();
    let cfg = PipelineConfig::default();
    let fit = fit_global(&s.honeypot, &cal, &cfg).unwrap();
    (table1(&fit), table2(&s.honeypot, &cal, &cfg).unwrap())
}

#[test]
fn query_metrics_on_changes_no_output_bytes() {
    let _g = OBS_LOCK.lock().unwrap();

    obs::set_enabled(false);
    obs::reset();
    let (t1_off, t2_off) = render_query_tables();
    let snap_off = obs::snapshot();

    obs::set_enabled(true);
    obs::reset();
    let (t1_on, t2_on) = render_query_tables();
    let snap = obs::snapshot();
    obs::set_enabled(false);
    obs::reset();

    assert_eq!(
        t1_off, t1_on,
        "query-backed Table 1 must be byte-identical with BOOTERS_OBS on"
    );
    assert_eq!(
        t2_off, t2_on,
        "query-backed Table 2 must be byte-identical with BOOTERS_OBS on"
    );
    // Off means off: no query.* counters leak from a disabled run.
    assert!(
        !snap_off.counters.keys().any(|k| k.starts_with("query.")),
        "query.* counters recorded with BOOTERS_OBS off: {:?}",
        snap_off.counters.keys().collect::<Vec<_>>()
    );
    // The query stages really were instrumented.
    assert!(
        snap.counter("query.scans") > 0,
        "expected scan counts recorded"
    );
    assert!(
        snap.counter("query.chunks_decoded") > 0,
        "expected chunk-decode counts recorded"
    );
    assert!(
        snap.counter("query.rows_returned") > 0,
        "expected returned-row counts recorded"
    );
    assert!(
        snap.spans.keys().any(|k| k.contains("query.scan")),
        "expected the query scan span somewhere in the hierarchy: {:?}",
        snap.spans.keys().collect::<Vec<_>>()
    );
}

/// Query-backed pipeline with metrics on under `threads` workers →
/// merged workload counters.
fn query_workload_at(threads: usize) -> BTreeMap<String, u64> {
    obs::set_enabled(true);
    obs::reset();
    with_min_items(1, || {
        with_threads(threads, || {
            let (t1, t2) = render_query_tables();
            assert!(!t1.is_empty() && !t2.is_empty());
        })
    });
    let snap = obs::snapshot();
    obs::set_enabled(false);
    obs::reset();
    snap.workload_counters()
}

#[test]
fn query_workload_counters_are_thread_count_invariant() {
    let _g = OBS_LOCK.lock().unwrap();
    let seq = query_workload_at(1);
    let par = query_workload_at(4);
    assert!(!seq.is_empty(), "sequential query run recorded no counters");
    assert_eq!(
        seq, par,
        "query workload counters must merge to identical totals at 1 and 4 threads"
    );
    assert!(
        seq.contains_key("query.scans"),
        "expected scan counts in the workload set"
    );
    assert!(
        seq.contains_key("query.rows_scanned"),
        "expected scanned-row counts in the workload set"
    );
}

/// Build a small store and run a fixed query sequence against it under
/// `threads` workers, returning the merged workload counters and gauges.
/// The cache is cleared first and a fresh store file (fresh `StoreId`)
/// is used per call, so every run starts cold and the `cache.*` family
/// is a pure function of the query sequence.
fn cache_workload_at(threads: usize) -> (BTreeMap<String, u64>, BTreeMap<String, u64>) {
    use booting_the_booters::netsim::{SensorPacket, UdpProtocol, VictimAddr};
    use booting_the_booters::query::{Column, Predicate, QueryEngine};
    use booting_the_booters::store::ChunkWriter;

    let path = std::env::temp_dir().join(format!(
        "booters-obs-cache-{}-{threads}.bstore",
        std::process::id()
    ));
    let packets: Vec<SensorPacket> = (0..4096u64)
        .map(|i| SensorPacket {
            time: i,
            sensor: (i % 4) as u32,
            victim: VictimAddr((i % 37) as u32),
            protocol: UdpProtocol::ALL[i as usize % UdpProtocol::ALL.len()],
            ttl: 64,
            src_port: 123,
        })
        .collect();
    {
        let mut w = ChunkWriter::with_capacity(&path, 256).unwrap();
        w.push_all(&packets).unwrap();
        w.finish().unwrap();
    }
    booting_the_booters::store::cache::clear();
    obs::set_enabled(true);
    obs::reset();
    with_threads(threads, || {
        let engine = QueryEngine::open(&path).unwrap();
        for _ in 0..2 {
            let r = engine.scan(&Predicate::all()).unwrap();
            assert_eq!(r.rows.len(), packets.len());
        }
        // sum() always decodes its planned chunks (unlike count(), which
        // a full-coverage predicate answers from the footer alone), so
        // this third pass is a second full round of cache hits.
        let (total, _) = engine.sum(&Predicate::all(), Column::Ttl).unwrap();
        assert_eq!(total, 64 * packets.len() as u128);
    });
    let snap = obs::snapshot();
    obs::set_enabled(false);
    obs::reset();
    std::fs::remove_file(&path).unwrap();
    (snap.workload_counters(), snap.gauges)
}

#[test]
fn cache_counters_are_absent_when_the_cache_is_off() {
    let _g = OBS_LOCK.lock().unwrap();
    let prev = booting_the_booters::store::set_cache_bytes(0);
    let (counters, gauges) = cache_workload_at(1);
    booting_the_booters::store::set_cache_bytes(prev);
    // Budget 0 is bit-for-bit off: no cache.* counter or gauge may even
    // exist, let alone read zero.
    assert!(
        !counters.keys().any(|k| k.starts_with("cache.")),
        "cache.* counters recorded with the cache off: {:?}",
        counters.keys().collect::<Vec<_>>()
    );
    assert!(
        !gauges.keys().any(|k| k.starts_with("cache.")),
        "cache.* gauges recorded with the cache off: {:?}",
        gauges.keys().collect::<Vec<_>>()
    );
}

#[test]
fn cache_counters_are_thread_count_invariant() {
    let _g = OBS_LOCK.lock().unwrap();
    let prev = booting_the_booters::store::set_cache_bytes(8 << 20);
    let (seq, seq_gauges) = cache_workload_at(1);
    let (par, par_gauges) = cache_workload_at(4);
    booting_the_booters::store::set_cache_bytes(prev);
    assert_eq!(
        seq, par,
        "cache-inclusive workload counters must merge to identical totals at 1 and 4 threads"
    );
    assert_eq!(
        seq_gauges.get("cache.peak_bytes"),
        par_gauges.get("cache.peak_bytes"),
        "peak-bytes gauge must be thread-count invariant"
    );
    // The workload genuinely exercised the cache: the first scan misses
    // every chunk, the repeat scan and the sum hit every chunk.
    let chunks = seq.get("cache.misses").copied().unwrap_or(0);
    assert!(chunks > 0, "expected cold misses recorded: {seq:?}");
    assert_eq!(
        seq.get("cache.hits").copied().unwrap_or(0),
        2 * chunks,
        "warm scan + sum must hit every chunk once each: {seq:?}"
    );
    assert!(
        seq.get("cache.inserted_bytes").copied().unwrap_or(0) > 0,
        "expected inserted bytes recorded: {seq:?}"
    );
    assert!(
        seq_gauges.get("cache.peak_bytes").copied().unwrap_or(0) > 0,
        "expected a peak-bytes gauge: {seq_gauges:?}"
    );
}

#[test]
fn disabled_runs_leave_registry_empty() {
    let _g = OBS_LOCK.lock().unwrap();
    obs::set_enabled(false);
    obs::reset();
    let (t1, _t2) = render_tables();
    assert!(!t1.is_empty());
    let snap = obs::snapshot();
    assert!(snap.counters.is_empty(), "disabled run must record nothing");
    assert!(snap.spans.is_empty(), "disabled run must record no spans");
}

/// `fit` spans recorded anywhere (pool workers included).
fn fit_spans(snap: &obs::Snapshot) -> u64 {
    snap.spans
        .iter()
        .filter(|(path, _)| path.rsplit('/').next() == Some("fit"))
        .map(|(_, s)| s.count)
        .sum()
}

#[test]
fn detection_fits_once_per_round_plus_the_baseline() {
    let _g = OBS_LOCK.lock().unwrap();
    // A smooth series with two planted drops, so detection accepts more
    // than one window.
    let mut series = WeeklySeries::zeros(Date::new(2016, 6, 6), 140);
    for i in 0..140 {
        let drop = match i {
            40..=47 => -0.6,
            95..=104 => -0.4,
            _ => 0.0,
        };
        let wiggle = 0.03 * ((i * 7919 % 13) as f64 - 6.0) / 6.0;
        series.set(i, (9.0 + 0.01 * i as f64 + drop + wiggle).exp().round());
    }
    let cfg = PipelineConfig::default();
    let all = detect_interventions(&series, &cfg, &DetectOptions::default()).unwrap();
    let rounds = all.len();
    assert!(rounds >= 2, "expected at least two detections, got {rounds}");

    // With the window budget set to exactly the accepted count, every
    // round accepts its candidate: one baseline fit, then one fit per
    // round, because each accepted fit is the next round's baseline.
    obs::set_enabled(true);
    obs::reset();
    let budgeted = detect_interventions(
        &series,
        &cfg,
        &DetectOptions {
            max_windows: rounds,
            ..DetectOptions::default()
        },
    )
    .unwrap();
    let snap = obs::snapshot();
    obs::set_enabled(false);
    obs::reset();

    assert_eq!(fit_spans(&snap), rounds as u64 + 1);
    assert_eq!(budgeted.len(), rounds);
    for (a, b) in budgeted.iter().zip(&all) {
        assert_eq!(a.start, b.start);
        assert_eq!(a.duration_weeks, b.duration_weeks);
        assert_eq!(a.coef.to_bits(), b.coef.to_bits());
        assert_eq!(a.p_value.to_bits(), b.p_value.to_bits());
    }
}

#[test]
fn scenario_suite_dispatches_to_the_pool() {
    let _g = OBS_LOCK.lock().unwrap();
    let specs = &builtin_scenarios()[..1];
    let cfg = ScenarioRunConfig {
        scale: 0.02,
        ..ScenarioRunConfig::default()
    };
    obs::set_enabled(true);
    obs::reset();
    let suite = with_threads(2, || run_suite(specs, &cfg)).expect("suite");
    let snap = obs::snapshot();
    obs::set_enabled(false);
    obs::reset();

    assert_eq!(suite.outcomes.len(), 1);
    assert!(
        snap.counter("par.pool_dispatches") >= 1,
        "the suite must fan out at two threads: {:?}",
        snap.counters
    );
    // Every fit of both scenarios ran, on whichever thread.
    assert_eq!(fit_spans(&snap), 2 * 8);
}
