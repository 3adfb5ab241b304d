#![warn(missing_docs)]
//! # booters-obs
//!
//! Zero-dependency tracing/metrics for the simulate → group → fit →
//! report pipeline: hierarchical span timers, monotonic counters and
//! peak gauges, and a thread-aware registry that merges worker-thread
//! metrics deterministically.
//!
//! ## The one rule: metrics can never alter results
//!
//! Instrumented code calls [`counter_add`], [`gauge_max`] or [`span!`]
//! unconditionally; every entry point checks [`enabled`] first, and when
//! observability is off that check is **one relaxed atomic load** — no
//! locks, no TLS access, no clock reads — so goldens and benches see the
//! uninstrumented hot path. Nothing in this crate is ever read back by
//! pipeline code: metrics flow out of the workers into the registry, and
//! from the registry only into reports. `DESIGN.md` §5e states the
//! contract; `tests/obs_golden.rs` pins it (byte-identical Table 1/2 with
//! observability on).
//!
//! ## Enabling
//!
//! Observability is **off by default**. It turns on when the
//! `BOOTERS_OBS` environment variable is set to anything other than `0`
//! (read once, at first use), or programmatically via [`set_enabled`]
//! (used by `repro report` and the golden tests).
//!
//! ## Determinism of merged counters
//!
//! Worker threads accumulate into thread-local maps; a thread's map is
//! folded into the process-wide registry when the thread exits, when it
//! calls [`flush`] (each parked `booters-par` helper flushes before it
//! reports its share of a dispatch done, so every helper's metrics are in
//! the registry by the time a `par_map` call returns) or when it calls
//! [`snapshot`]. Counter merging is addition and gauge merging is `max` —
//! both commutative and associative — so the merged totals are
//! independent of thread scheduling and arrival order. Workload counters
//! (packets emitted, IRLS iterations, spill runs …) are therefore
//! identical at every `BOOTERS_THREADS` setting, because the work itself
//! is deterministic. Scheduling counters (`par.pool_dispatches` /
//! `par.seq_fallbacks`) and span *durations* legitimately vary with
//! thread count and wall clock; tests compare only workload counters.
//!
//! ## Spans
//!
//! ```
//! booters_obs::set_enabled(true);
//! {
//!     booters_obs::span!("group_flows");
//!     // ... nested spans record under "group_flows/..." ...
//! }
//! let snap = booters_obs::snapshot();
//! assert_eq!(snap.spans["group_flows"].count, 1);
//! # booters_obs::set_enabled(false);
//! # booters_obs::reset();
//! ```

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;
use std::time::Instant;

// ---------------------------------------------------------------------------
// Enabled state: the no-op fast path.
// ---------------------------------------------------------------------------

/// Tri-state: 0 = not yet initialised from the environment, 1 = off,
/// 2 = on. After first use, [`enabled`] is a single relaxed load.
static ENABLED: AtomicU8 = AtomicU8::new(STATE_UNSET);

const STATE_UNSET: u8 = 0;
const STATE_OFF: u8 = 1;
const STATE_ON: u8 = 2;

#[cold]
fn init_from_env() -> bool {
    let on = match std::env::var("BOOTERS_OBS") {
        Ok(v) => !matches!(v.trim(), "" | "0"),
        Err(_) => false,
    };
    ENABLED.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
    on
}

/// Whether metrics are being recorded. When off, every recording entry
/// point returns after this one relaxed atomic load — the documented
/// no-op fast path.
#[inline]
pub fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        STATE_ON => true,
        STATE_OFF => false,
        _ => init_from_env(),
    }
}

/// Turn recording on or off programmatically, overriding `BOOTERS_OBS`.
/// Used by `repro report` (always wants timings) and by tests.
pub fn set_enabled(on: bool) {
    ENABLED.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// The registry: thread-local accumulation, commutative global merge.
// ---------------------------------------------------------------------------

/// Accumulated timing of one span path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Times the span was entered and exited.
    pub count: u64,
    /// Total wall time spent inside, in nanoseconds.
    pub total_ns: u64,
}

/// One thread's pending metrics; folded into [`GLOBAL`] on thread exit or
/// [`snapshot`].
#[derive(Default)]
struct Local {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, u64>,
    spans: BTreeMap<String, SpanStat>,
    /// The active span stack: name per open guard (paths are the
    /// "/"-joined prefixes of this stack).
    stack: Vec<&'static str>,
}

#[derive(Default)]
struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
    spans: BTreeMap<String, SpanStat>,
}

impl Registry {
    fn absorb(&mut self, local: &mut Local) {
        for (k, v) in std::mem::take(&mut local.counters) {
            *self.counters.entry(k.to_string()).or_insert(0) += v;
        }
        for (k, v) in std::mem::take(&mut local.gauges) {
            let g = self.gauges.entry(k.to_string()).or_insert(0);
            *g = (*g).max(v);
        }
        for (k, v) in std::mem::take(&mut local.spans) {
            let s = self.spans.entry(k).or_default();
            s.count += v.count;
            s.total_ns += v.total_ns;
        }
    }
}

static GLOBAL: Mutex<Registry> = Mutex::new(Registry {
    counters: BTreeMap::new(),
    gauges: BTreeMap::new(),
    spans: BTreeMap::new(),
});

/// Flushes the thread's metrics into [`GLOBAL`] when the thread exits.
struct FlushOnDrop(std::cell::RefCell<Local>);

impl Drop for FlushOnDrop {
    fn drop(&mut self) {
        let local = self.0.get_mut();
        if let Ok(mut global) = GLOBAL.lock() {
            global.absorb(local);
        }
    }
}

thread_local! {
    static LOCAL: FlushOnDrop = FlushOnDrop(std::cell::RefCell::new(Local::default()));
}

/// Run `f` on this thread's local metrics. No-op (returns `None`) during
/// thread teardown, when the TLS slot is already gone — a metric recorded
/// that late is dropped rather than panicking.
fn with_local<T>(f: impl FnOnce(&mut Local) -> T) -> Option<T> {
    LOCAL.try_with(|l| f(&mut l.0.borrow_mut())).ok()
}

/// Add `v` to the monotonic counter `name`. No-op unless [`enabled`].
#[inline]
pub fn counter_add(name: &'static str, v: u64) {
    if !enabled() {
        return;
    }
    with_local(|l| *l.counters.entry(name).or_insert(0) += v);
}

/// Raise the peak gauge `name` to at least `v`. No-op unless [`enabled`].
#[inline]
pub fn gauge_max(name: &'static str, v: u64) {
    if !enabled() {
        return;
    }
    with_local(|l| {
        let g = l.gauges.entry(name).or_insert(0);
        *g = (*g).max(v);
    });
}

// ---------------------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------------------

/// RAII timer for one span. Created by [`span()`] / [`span!`]; records the
/// elapsed wall time under the hierarchical "/"-joined path of all spans
/// open on this thread when it drops. Inert (records nothing) when
/// observability was off at creation.
#[must_use = "a span guard times the scope it lives in; dropping it immediately records nothing useful"]
pub struct SpanGuard {
    /// Full hierarchical path, e.g. `"simulate/group"`. `None` when
    /// recording was disabled at creation (the inert guard).
    path: Option<String>,
    /// Stack depth after our push — drop truncates back to `depth - 1`,
    /// which also repairs the stack if inner guards leaked.
    depth: usize,
    start: Instant,
}

/// Open a span named `name`, timed until the returned guard drops. The
/// recorded path is the "/"-join of every span open on this thread, so
/// nested spans produce `outer/inner` entries. Inert unless [`enabled`].
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard {
            path: None,
            depth: 0,
            start: Instant::now(),
        };
    }
    let (path, depth) = with_local(|l| {
        l.stack.push(name);
        (l.stack.join("/"), l.stack.len())
    })
    .unwrap_or_else(|| (name.to_string(), 0));
    SpanGuard {
        path: Some(path),
        depth,
        start: Instant::now(),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(path) = self.path.take() else {
            return;
        };
        let elapsed = self.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        let depth = self.depth;
        with_local(|l| {
            let s = l.spans.entry(path).or_default();
            s.count += 1;
            s.total_ns += elapsed;
            if depth > 0 && l.stack.len() >= depth {
                l.stack.truncate(depth - 1);
            }
        });
    }
}

/// Time the rest of the enclosing scope as a span:
/// `booters_obs::span!("fit")` expands to a guard bound for the scope.
/// Use [`span()`] directly when the guard needs an explicit lifetime.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        let _booters_obs_span_guard = $crate::span($name);
    };
}

// ---------------------------------------------------------------------------
// Snapshot / reset.
// ---------------------------------------------------------------------------

/// A merged, point-in-time copy of every recorded metric: the calling
/// thread's pending metrics plus everything already flushed to the
/// process-wide registry (all exited worker threads, all prior
/// snapshotting threads).
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Monotonic counters, by name.
    pub counters: BTreeMap<String, u64>,
    /// Peak gauges, by name.
    pub gauges: BTreeMap<String, u64>,
    /// Span timings, by "/"-joined hierarchical path.
    pub spans: BTreeMap<String, SpanStat>,
}

impl Snapshot {
    /// A counter's value, 0 when never recorded.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The workload counters: every counter except the `par.` scheduling
    /// family, which legitimately varies with thread count. Everything
    /// here is a pure function of the work performed, so it must be
    /// identical at every `BOOTERS_THREADS` setting.
    pub fn workload_counters(&self) -> BTreeMap<String, u64> {
        self.counters
            .iter()
            .filter(|(k, _)| !k.starts_with("par."))
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }
}

/// Fold the calling thread's pending metrics into the process-wide
/// registry now, instead of at thread exit. Long-lived worker threads
/// call this after each batch of work so a [`snapshot`] taken on another
/// thread sees it. Open spans stay open. No-op unless [`enabled`].
pub fn flush() {
    if !enabled() {
        return;
    }
    with_local(|l| {
        if l.counters.is_empty() && l.gauges.is_empty() && l.spans.is_empty() {
            return;
        }
        if let Ok(mut global) = GLOBAL.lock() {
            global.absorb(l);
        }
    });
}

/// Flush the calling thread's pending metrics and return a merged copy of
/// the registry. Live threads other than the caller contribute only what
/// they have already flushed (pool helpers flush at the end of each
/// dispatch, so after a `par_*` call returns their metrics are all
/// present).
pub fn snapshot() -> Snapshot {
    let mut global = GLOBAL.lock().expect("obs registry poisoned");
    with_local(|l| {
        let stack = std::mem::take(&mut l.stack);
        global.absorb(l);
        // absorb() drains the maps; the open-span stack must survive the
        // flush so guards created before the snapshot still close cleanly.
        l.stack = stack;
    });
    Snapshot {
        counters: global.counters.clone(),
        gauges: global.gauges.clone(),
        spans: global.spans.clone(),
    }
}

/// Clear the registry and the calling thread's pending metrics. Metrics
/// other live threads have not yet flushed survive in their TLS; tests
/// that need exact totals serialise around `reset` + workload +
/// [`snapshot`].
pub fn reset() {
    let mut global = GLOBAL.lock().expect("obs registry poisoned");
    *global = Registry::default();
    with_local(|l| {
        let stack = std::mem::take(&mut l.stack);
        *l = Local::default();
        l.stack = stack;
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as TestMutex;

    /// Recording state and the registry are process-global; tests that
    /// toggle them serialise here.
    static TEST_LOCK: TestMutex<()> = TestMutex::new(());

    fn locked_enabled() -> std::sync::MutexGuard<'static, ()> {
        let guard = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        set_enabled(true);
        reset();
        guard
    }

    #[test]
    fn disabled_is_a_no_op() {
        let _g = locked_enabled();
        set_enabled(false);
        counter_add("off.counter", 5);
        gauge_max("off.gauge", 7);
        {
            span!("off_span");
        }
        set_enabled(true);
        let snap = snapshot();
        assert_eq!(snap.counter("off.counter"), 0);
        assert!(!snap.gauges.contains_key("off.gauge"));
        assert!(!snap.spans.contains_key("off_span"));
        set_enabled(false);
    }

    #[test]
    fn counters_accumulate_and_gauges_peak() {
        let _g = locked_enabled();
        counter_add("t.count", 2);
        counter_add("t.count", 3);
        gauge_max("t.peak", 10);
        gauge_max("t.peak", 4);
        let snap = snapshot();
        assert_eq!(snap.counter("t.count"), 5);
        assert_eq!(snap.gauges["t.peak"], 10);
        set_enabled(false);
    }

    #[test]
    fn span_nesting_builds_hierarchical_paths() {
        let _g = locked_enabled();
        {
            span!("outer");
            {
                span!("inner");
            }
            {
                span!("inner");
            }
        }
        let snap = snapshot();
        assert_eq!(snap.spans["outer"].count, 1);
        assert_eq!(snap.spans["outer/inner"].count, 2);
        assert!(!snap.spans.contains_key("inner"));
        set_enabled(false);
    }

    #[test]
    fn guard_drop_order_unwinds_the_stack() {
        let _g = locked_enabled();
        // Explicit guards dropped in reverse creation order (normal RAII).
        let a = span("a");
        let b = span("b");
        drop(b);
        // After the inner guard closed, a new span nests under "a" only.
        {
            span!("c");
        }
        drop(a);
        // The stack is empty again: a fresh span is a root.
        {
            span!("d");
        }
        let snap = snapshot();
        assert_eq!(snap.spans["a"].count, 1);
        assert_eq!(snap.spans["a/b"].count, 1);
        assert_eq!(snap.spans["a/c"].count, 1);
        assert_eq!(snap.spans["d"].count, 1);
        set_enabled(false);
    }

    #[test]
    fn out_of_order_drop_repairs_the_stack() {
        let _g = locked_enabled();
        let a = span("a");
        let b = span("b");
        // Dropping the outer guard first truncates the stack through the
        // inner entry; the inner guard then finds the stack shorter than
        // its depth and leaves it alone.
        drop(a);
        drop(b);
        {
            span!("after");
        }
        let snap = snapshot();
        assert_eq!(snap.spans["a"].count, 1);
        assert_eq!(snap.spans["a/b"].count, 1);
        assert_eq!(snap.spans["after"].count, 1, "stack must be empty again");
        set_enabled(false);
    }

    #[test]
    fn spans_record_elapsed_time() {
        let _g = locked_enabled();
        {
            span!("sleepy");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let snap = snapshot();
        assert!(snap.spans["sleepy"].total_ns >= 1_000_000);
        set_enabled(false);
    }

    #[test]
    fn worker_threads_flush_on_exit_and_merge_commutes() {
        let _g = locked_enabled();
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..4u64)
                .map(|i| {
                    s.spawn(move || {
                        counter_add("w.items", i + 1);
                        gauge_max("w.peak", i);
                    })
                })
                .collect();
            // Join each worker explicitly: that waits for the thread to
            // exit, TLS flush included. The scope's implicit join only
            // waits for the closures to return, so a worker's flush could
            // still be in flight when the snapshot below is taken.
            for w in workers {
                w.join().unwrap();
            }
        });
        let snap = snapshot();
        assert_eq!(snap.counter("w.items"), 1 + 2 + 3 + 4);
        assert_eq!(snap.gauges["w.peak"], 3);
        set_enabled(false);
    }

    #[test]
    fn flush_hands_a_live_threads_metrics_to_the_registry() {
        let _g = locked_enabled();
        let (flushed, done) = (std::sync::Barrier::new(2), std::sync::Barrier::new(2));
        std::thread::scope(|s| {
            s.spawn(|| {
                let outer = span("live_outer");
                counter_add("live.items", 4);
                flush();
                flushed.wait();
                // The open span survived the flush and still nests.
                {
                    span!("after");
                }
                drop(outer);
                done.wait();
            });
            flushed.wait();
            // The worker is still alive: only flush() can have delivered it.
            assert_eq!(snapshot().counter("live.items"), 4);
            done.wait();
        });
        set_enabled(false);
    }

    #[test]
    fn snapshot_preserves_open_spans() {
        let _g = locked_enabled();
        let outer = span("open_outer");
        let _snap = snapshot(); // must not clobber the open-span stack
        {
            span!("child");
        }
        drop(outer);
        let snap = snapshot();
        assert_eq!(snap.spans["open_outer/child"].count, 1);
        assert_eq!(snap.spans["open_outer"].count, 1);
        set_enabled(false);
    }

    #[test]
    fn workload_counters_exclude_scheduling() {
        let _g = locked_enabled();
        counter_add("par.pool_dispatches", 2);
        counter_add("glm.irls_iterations", 9);
        let snap = snapshot();
        let w = snap.workload_counters();
        assert!(!w.contains_key("par.pool_dispatches"));
        assert_eq!(w["glm.irls_iterations"], 9);
        set_enabled(false);
    }

    #[test]
    fn reset_clears_everything() {
        let _g = locked_enabled();
        counter_add("r.count", 1);
        {
            span!("r_span");
        }
        reset();
        let snap = snapshot();
        assert_eq!(snap.counter("r.count"), 0);
        assert!(snap.spans.is_empty());
        set_enabled(false);
    }
}
