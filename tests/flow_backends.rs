//! Equivalence goldens for the flow backends, fed identical packet batches.
//!
//! The paper's measurement rule (§3) is one chain: spoofed requests hit
//! the sensors, packets are grouped into flows per victim and protocol
//! with a 15-minute gap, and a flow with more than 5 packets at some
//! sensor is an attack. `group_flows_par` is the reference grouping. Each
//! other backend consumes exactly the same batches and must agree with
//! it:
//!
//! - the out-of-core spill grouper (booters-store, DESIGN.md §5c) under a
//!   32 KiB budget, so the external sort and k-way merge really run:
//!   identical flows;
//! - one long-running streaming node (booters-serve, §5g), closed with
//!   one epoch per week: identical flows;
//! - a columnar store written per batch and read back through the
//!   pushdown engine (booters-query, §5h): identical weekly attack
//!   counts, and time-window scans that prune chunks yet return exactly
//!   the matching packets.
//!
//! Every backend is checked at 1, 2, 4 and 8 threads; the backends' work
//! counters must not move with the thread count.
//!
//! The batches come from a seeded market over the paper's modelling
//! window (June 2016 – April 2019) at scale 0.05: four commands a week
//! from `commands_for_week`, each week's packets from
//! `Engine::simulate_attacks_batch`.

use booters_testkit::rngs::StdRng;
use booters_testkit::SeedableRng;
use booting_the_booters::market::calibration::Calibration;
use booting_the_booters::market::commands::commands_for_week;
use booting_the_booters::market::market::{MarketConfig, MarketSim};
use booting_the_booters::netsim::{
    classify_flows, group_flows_par, Engine, EngineConfig, Flow, FlowClass, SensorPacket, VictimKey,
};
use booting_the_booters::obs;
use booting_the_booters::par::with_threads;
use booting_the_booters::query::{Predicate, QueryEngine, QueryStats, WEEK_SECS};
use booting_the_booters::serve::{ServeConfig, ServeNode, ServeStats};
use booting_the_booters::store::{
    classify_out_of_core, ChunkWriter, SpillConfig, SpillGrouper, SpillStats,
};
use booting_the_booters::timeseries::Date;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

const SEED: u64 = 0x57_0BE5;

/// Commands expanded per market week.
const COMMANDS_PER_WEEK: usize = 4;

/// About 1 365 packets: every busy week spills several sorted runs, so
/// the k-way merge genuinely merges.
const SPILL_BUDGET: usize = 32 << 10;

/// Small chunks, so every week's store spans several of them and the
/// query engine's per-chunk fan-out and pruning genuinely run.
const CHUNK_PACKETS: usize = 512;

/// Thread count of every backend run.
const CONFIGS: [usize; 4] = [1, 2, 4, 8];

/// The metrics registry is process-wide, and several tests here switch
/// it, so the tests of this file run one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

/// Holds [`SERIAL`]. On release it first flushes the test thread's
/// metrics, so none of them reach the registry after the next test has
/// reset it (this matters when `BOOTERS_OBS=1` records everything).
struct Serial {
    _lock: MutexGuard<'static, ()>,
}

impl Drop for Serial {
    fn drop(&mut self) {
        obs::flush();
    }
}

fn serial() -> Serial {
    Serial {
        _lock: SERIAL.lock().unwrap_or_else(|e| e.into_inner()),
    }
}

/// One market week's packets, in the time order the engine emits them.
struct Batch {
    /// End of the week in stream seconds: where its epoch closes.
    end: u64,
    packets: Vec<SensorPacket>,
}

/// Every week of the modelling window, empty weeks included.
fn batches() -> &'static [Batch] {
    static BATCHES: OnceLock<Vec<Batch>> = OnceLock::new();
    BATCHES.get_or_init(|| {
        let mut sim = MarketSim::new(MarketConfig {
            calibration: calibration(),
            scale: 0.05,
            seed: SEED,
            ..MarketConfig::default()
        });
        let mut engine = Engine::new(EngineConfig::default());
        let mut rng = StdRng::seed_from_u64(SEED);
        let mut batches = Vec::new();
        while let Some(out) = sim.step() {
            let cmds = commands_for_week(
                &out,
                sim.population().booters(),
                &mut rng,
                COMMANDS_PER_WEEK,
            );
            batches.push(Batch {
                end: (out.week as u64 + 1) * WEEK_SECS,
                packets: engine.simulate_attacks_batch(&cmds),
            });
            engine.maintain(out.week as u64 * WEEK_SECS);
        }
        batches
    })
}

fn calibration() -> Calibration {
    Calibration {
        scenario_start: Date::new(2016, 6, 6),
        scenario_end: Date::new(2019, 4, 1),
        ..Calibration::default()
    }
}

/// The reference: each batch grouped in memory, sequentially.
fn reference() -> &'static [Vec<Flow>] {
    static FLOWS: OnceLock<Vec<Vec<Flow>>> = OnceLock::new();
    FLOWS.get_or_init(|| {
        with_threads(1, || {
            batches()
                .iter()
                .map(|b| group_flows_par(&b.packets, VictimKey::ByIp))
                .collect()
        })
    })
}

/// Attack flows per week of their first packet, as
/// `QueryEngine::weekly_attacks` counts them.
fn attack_weeks(flows: &[Flow]) -> BTreeMap<u64, u64> {
    let mut weeks = BTreeMap::new();
    for f in flows.iter().filter(|f| f.classify() == FlowClass::Attack) {
        *weeks.entry(f.start / WEEK_SECS).or_insert(0) += 1;
    }
    weeks
}

/// Each batch through its own spill grouper.
fn run_store() -> Vec<(Vec<Flow>, SpillStats)> {
    batches()
        .iter()
        .map(|b| {
            let mut g = SpillGrouper::new(SpillConfig {
                budget_bytes: SPILL_BUDGET,
                key: VictimKey::ByIp,
                ..SpillConfig::default()
            });
            g.push_all(&b.packets).expect("spill push");
            let out = g.finish().expect("spill merge");
            (out.flows, out.stats)
        })
        .collect()
}

/// Every batch through one streaming node, one epoch per week.
fn run_serve() -> (Vec<Vec<Flow>>, ServeStats) {
    let mut node = ServeNode::new(ServeConfig {
        shards: 4,
        // Small rings, so intake exercises backpressure and drains.
        queue_capacity: 256,
        epoch_start: calibration().scenario_start,
        ..ServeConfig::default()
    });
    let flows = batches()
        .iter()
        .map(|b| {
            for p in &b.packets {
                node.ingest(p).expect("ingest");
            }
            node.close_epoch_at(b.end).expect("epoch close")
        })
        .collect();
    (flows, node.stats())
}

/// What the query backend answers for one batch's store.
#[derive(Debug, PartialEq)]
struct QueryAnswer {
    weeks: BTreeMap<u64, u64>,
    attacks_stats: QueryStats,
    /// Rows of the first half-week scan, and its accounting.
    window_rows: Vec<SensorPacket>,
    window_stats: QueryStats,
}

/// The first half of a batch's week, in stream seconds.
fn half_week(b: &Batch) -> (u64, u64) {
    let start = b.end - WEEK_SECS;
    (start, start + WEEK_SECS / 2)
}

/// Each non-empty batch written to its own store and read back: the
/// weekly attack counts over every row, then a half-week time-window
/// scan, which zone maps can prune.
fn run_query() -> Vec<QueryAnswer> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    batches()
        .iter()
        .filter(|b| !b.packets.is_empty())
        .map(|b| {
            let path: PathBuf = std::env::temp_dir().join(format!(
                "booters-flow-backends-{}-{}.bstore",
                std::process::id(),
                SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            let answer = (|| {
                let mut w = ChunkWriter::with_capacity(&path, CHUNK_PACKETS)?;
                w.push_all(&b.packets)?;
                w.finish()?;
                let q = QueryEngine::open(&path)?;
                let (weeks, attacks_stats) =
                    q.weekly_attacks(&Predicate::all(), VictimKey::ByIp)?;
                let (from, to) = half_week(b);
                let window = q.scan(&Predicate::all().with_time(from, to))?;
                Ok::<_, booting_the_booters::store::StoreError>(QueryAnswer {
                    weeks,
                    attacks_stats,
                    window_rows: window.rows,
                    window_stats: window.stats,
                })
            })();
            let _ = std::fs::remove_file(&path);
            answer.expect("query backend")
        })
        .collect()
}

/// Check the query answers against the reference flows and packets.
fn check_query(answers: &[QueryAnswer], label: &str) {
    let busy: Vec<(&Batch, &Vec<Flow>)> = batches()
        .iter()
        .zip(reference())
        .filter(|(b, _)| !b.packets.is_empty())
        .collect();
    assert_eq!(answers.len(), busy.len());
    let mut pruned = 0;
    for (i, (a, (b, flows))) in answers.iter().zip(&busy).enumerate() {
        assert_eq!(
            a.weeks,
            attack_weeks(flows),
            "{label}: attack counts of batch {i}"
        );
        let (from, to) = half_week(b);
        let expected: Vec<SensorPacket> = b
            .packets
            .iter()
            .filter(|p| (from..to).contains(&p.time))
            .copied()
            .collect();
        assert!(
            a.window_rows == expected,
            "{label}: half-week scan of batch {i}"
        );
        for s in [&a.attacks_stats, &a.window_stats] {
            assert_eq!(
                s.chunks_pruned + s.chunks_covered + s.chunks_decoded,
                s.chunks_total,
                "{label}: planner accounting leak in batch {i}"
            );
        }
        assert_eq!(
            a.attacks_stats.chunks_pruned, 0,
            "{label}: Predicate::all() pruned a chunk"
        );
        assert_eq!(a.attacks_stats.rows_returned, b.packets.len() as u64);
        pruned += a.window_stats.chunks_pruned;
    }
    let chunks: u64 = answers.iter().map(|a| a.attacks_stats.chunks_total).sum();
    assert!(
        chunks > 2 * answers.len() as u64,
        "{label}: single-chunk stores ({chunks} chunks)"
    );
    assert!(pruned > 0, "{label}: no half-week scan pruned a chunk");
}

/// Every [`CONFIGS`] run of one backend, in [`CONFIGS`] order, tagged
/// with its thread count.
type Runs<T> = Vec<(usize, T)>;

fn runs_of<T>(run: impl Fn() -> T) -> Runs<T> {
    CONFIGS
        .iter()
        .map(|&t| (t, with_threads(t, &run)))
        .collect()
}

/// The store matrix, run once and shared by the store tests.
fn store_runs() -> &'static Runs<Vec<(Vec<Flow>, SpillStats)>> {
    static RUNS: OnceLock<Runs<Vec<(Vec<Flow>, SpillStats)>>> = OnceLock::new();
    RUNS.get_or_init(|| runs_of(run_store))
}

/// The serve matrix, run once and shared by the serve tests.
fn serve_runs() -> &'static Runs<(Vec<Vec<Flow>>, ServeStats)> {
    static RUNS: OnceLock<Runs<(Vec<Vec<Flow>>, ServeStats)>> = OnceLock::new();
    RUNS.get_or_init(|| runs_of(run_serve))
}

/// The query matrix, run once and shared by the query tests.
fn query_runs() -> &'static Runs<Vec<QueryAnswer>> {
    static RUNS: OnceLock<Runs<Vec<QueryAnswer>>> = OnceLock::new();
    RUNS.get_or_init(|| runs_of(run_query))
}

/// Check one store run's flows against the reference.
fn check_store(runs: &[(Vec<Flow>, SpillStats)], label: &str) {
    assert_eq!(runs.len(), reference().len());
    for (i, ((flows, _), want)) in runs.iter().zip(reference()).enumerate() {
        assert!(
            flows == want,
            "{label}: store flows of batch {i} differ from in-memory"
        );
    }
}

/// Check one serve run's flows against the reference.
fn check_serve(flows: &[Vec<Flow>], label: &str) {
    assert_eq!(flows.len(), reference().len());
    for (i, (got, want)) in flows.iter().zip(reference()).enumerate() {
        assert!(
            got == want,
            "{label}: streamed flows of week {i} differ from in-memory"
        );
    }
}

#[test]
fn store_flows_match_in_memory_across_threads_and_budget() {
    let _g = serial();
    let (_, base) = &store_runs()[0];
    for (threads, runs) in store_runs() {
        check_store(runs, &format!("threads={threads}"));
        // Real external merging, not a lucky in-RAM pass.
        let spill_runs: usize = runs.iter().map(|(_, s)| s.spill_runs).sum();
        assert!(
            spill_runs >= 3,
            "threads={threads}: only {spill_runs} spill runs under the tiny budget"
        );
        assert!(
            runs.iter().map(|r| &r.1).eq(base.iter().map(|r| &r.1)),
            "threads={threads}: SpillStats drifted"
        );
    }
}

#[test]
fn serve_flows_match_in_memory_across_threads() {
    let _g = serial();
    let weeks = batches().len() as u64;
    let packets: u64 = batches().iter().map(|b| b.packets.len() as u64).sum();
    for (threads, (flows, stats)) in serve_runs() {
        check_serve(flows, &format!("threads={threads}"));
        assert_eq!(stats.packets, packets);
        assert_eq!(
            stats.grouped, packets,
            "threads={threads}: packets lost between intake and grouping"
        );
        assert_eq!(stats.epochs, weeks);
        assert_eq!(
            stats.weeks_closed, weeks,
            "threads={threads}: one week closes per epoch"
        );
        assert_eq!(stats.late_packets, 0, "watermark contract violated");
        assert!(
            stats.backpressure_events > 0,
            "threads={threads}: small rings never pushed back"
        );
    }
}

#[test]
fn serve_stats_are_thread_invariant() {
    let _g = serial();
    // ServeStats are part of the determinism contract: every counter is
    // derived from packet content and watermark schedule, never from
    // scheduling order, so the thread count moves none.
    let (_, (_, base)) = &serve_runs()[0];
    assert!(
        base.refits_warm >= 1,
        "no warm-started refit (warm={} full={} failures={})",
        base.refits_warm,
        base.refits_full,
        base.refit_failures
    );
    for (threads, (_, stats)) in &serve_runs()[1..] {
        assert_eq!(stats, base, "threads={threads}: ServeStats drifted");
    }
}

#[test]
fn query_attacks_match_in_memory_across_threads() {
    let _g = serial();
    for (threads, answers) in query_runs() {
        check_query(answers, &format!("threads={threads}"));
    }
}

#[test]
fn query_stats_are_thread_invariant() {
    let _g = serial();
    // QueryStats are part of the determinism contract: pruning depends
    // only on the footer, and per-chunk work is summed in submission
    // order, so every counter is identical at any thread count.
    let stats = |answers: &'static [QueryAnswer]| {
        answers.iter().map(|a| (&a.attacks_stats, &a.window_stats))
    };
    let (_, base) = &query_runs()[0];
    for (threads, answers) in &query_runs()[1..] {
        assert!(
            stats(answers).eq(stats(base)),
            "threads={threads}: QueryStats drifted"
        );
    }
}

/// `run` with metrics off, then on: each run's output and snapshot.
fn off_then_on<T>(run: impl Fn() -> T) -> [(T, obs::Snapshot); 2] {
    let _ = reference();
    [false, true].map(|on| {
        obs::set_enabled(on);
        obs::reset();
        let out = run();
        let snap = obs::snapshot();
        obs::set_enabled(false);
        obs::reset();
        (out, snap)
    })
}

/// No counter under `prefixes` with metrics off; each of `counters` and
/// `spans` recorded with metrics on.
fn check_metrics(
    off: &obs::Snapshot,
    on: &obs::Snapshot,
    prefixes: &[&str],
    counters: &[&str],
    spans: &[&str],
) {
    // Off means off: no backend counter leaks from a disabled run.
    assert!(
        !off.counters
            .keys()
            .any(|k| prefixes.iter().any(|p| k.starts_with(p))),
        "backend counters recorded with metrics off: {:?}",
        off.counters.keys().collect::<Vec<_>>()
    );
    // The backend really was instrumented.
    for counter in counters {
        assert!(on.counter(counter) > 0, "expected {counter} recorded");
    }
    for span in spans {
        assert!(
            on.spans.keys().any(|k| k.contains(span)),
            "expected the {span} span somewhere in the hierarchy: {:?}",
            on.spans.keys().collect::<Vec<_>>()
        );
    }
}

#[test]
fn store_metrics_on_changes_no_flow() {
    let _g = serial();
    let [(off_runs, off), (on_runs, on)] = off_then_on(run_store);
    check_store(&off_runs, "metrics off");
    check_store(&on_runs, "metrics on");
    assert!(off_runs == on_runs, "SpillStats moved with metrics on");
    check_metrics(&off, &on, &["store."], &["store.spill_runs"], &[]);
}

#[test]
fn serve_metrics_on_changes_no_flow() {
    let _g = serial();
    let [(off_run, off), (on_run, on)] = off_then_on(run_serve);
    check_serve(&off_run.0, "metrics off");
    check_serve(&on_run.0, "metrics on");
    assert_eq!(off_run.1, on_run.1, "ServeStats moved with metrics on");
    check_metrics(
        &off,
        &on,
        &["serve."],
        &["serve.packets_grouped", "serve.weeks_closed"],
        &["serve.close_epoch"],
    );
}

#[test]
fn query_metrics_on_changes_no_answer() {
    let _g = serial();
    let [(off_answers, off), (on_answers, on)] = off_then_on(run_query);
    check_query(&off_answers, "metrics off");
    check_query(&on_answers, "metrics on");
    assert!(
        off_answers == on_answers,
        "query answers or stats moved with metrics on"
    );
    check_metrics(
        &off,
        &on,
        &["store.", "query."],
        &["query.scans", "query.chunks_decoded", "query.rows_returned"],
        &["query.scan"],
    );
}

/// The workload counters `run` records with metrics on at `threads`.
fn workload_at<T>(threads: usize, run: impl Fn() -> T) -> BTreeMap<String, u64> {
    obs::set_enabled(true);
    obs::reset();
    with_threads(threads, &run);
    let snap = obs::snapshot();
    obs::set_enabled(false);
    obs::reset();
    snap.workload_counters()
}

/// `run`'s workload counters merge to identical totals at 1 and 4
/// threads, and include each of `counters`.
fn check_workload_invariant<T>(run: impl Fn() -> T, counters: &[&str]) {
    let _ = reference();
    let seq = workload_at(1, &run);
    let par = workload_at(4, &run);
    assert_eq!(
        seq, par,
        "workload counters must merge to identical totals at 1 and 4 threads"
    );
    for counter in counters {
        assert!(
            seq.contains_key(*counter),
            "expected {counter} in the workload set: {seq:?}"
        );
    }
}

#[test]
fn store_workload_counters_are_thread_count_invariant() {
    let _g = serial();
    check_workload_invariant(run_store, &["store.spill_runs"]);
}

#[test]
fn serve_workload_counters_are_thread_count_invariant() {
    let _g = serial();
    check_workload_invariant(run_serve, &["serve.packets_grouped", "serve.flows_closed"]);
}

#[test]
fn query_workload_counters_are_thread_count_invariant() {
    let _g = serial();
    check_workload_invariant(run_query, &["query.scans", "query.rows_scanned"]);
}

#[test]
fn store_backed_classification_matches_in_memory_on_an_engine_trace() {
    // Serialised too: with metrics on elsewhere, this engine run's
    // counters would leak into another test's snapshot.
    let _g = serial();
    // A real engine batch (not hand-built packets), classified both ways.
    // The spill config comes from the environment here, so the
    // `BOOTERS_STORE_BUDGET` verify pass drives this test through the
    // spill/merge path while the default run stays in RAM — the outputs
    // must be identical either way.
    use booting_the_booters::netsim::{AttackCommand, UdpProtocol, VictimAddr};
    let cmds: Vec<AttackCommand> = (0..30)
        .map(|i| AttackCommand {
            time: i * 2_000,
            victim: VictimAddr::from_octets(25, 3, (i % 11) as u8, 7),
            protocol: UdpProtocol::ALL[i as usize % 10],
            duration_secs: 300,
            packets_per_second: 50_000,
            booter: 70 + i as u32,
            avoids_honeypots: false,
        })
        .collect();
    let mut engine = Engine::new(EngineConfig::default());
    let packets = engine.simulate_attacks_batch(&cmds);
    assert!(!packets.is_empty());

    let mut expected = classify_flows(&packets);
    // classify_flows emits close-order; canonicalise like the store does.
    expected.sort_by_key(|(f, _)| (f.start, f.victim.0, f.protocol.index(), f.end));
    let (got, _) = classify_out_of_core(&packets, SpillConfig::default()).expect("ooc classify");
    assert_eq!(got, expected);
}
