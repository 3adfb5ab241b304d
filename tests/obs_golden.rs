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

use booting_the_booters::core::pipeline::{fit_global, PipelineConfig};
use booting_the_booters::core::detect::{detect_interventions, DetectOptions};
use booting_the_booters::core::report::{table1, table2};
use booting_the_booters::core::scenarios::{run_suite, ScenarioRunConfig};
use booting_the_booters::core::scenario::{Fidelity, Scenario, ScenarioConfig};
use booting_the_booters::market::calibration::Calibration;
use booting_the_booters::market::market::MarketConfig;
use booting_the_booters::market::scn::builtin_scenarios;
use booting_the_booters::obs;
use booting_the_booters::par::with_threads;
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
    with_threads(threads, || {
        let (t1, t2) = render_tables();
        assert!(!t1.is_empty() && !t2.is_empty());
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
