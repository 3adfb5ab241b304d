//! Runtime selection between optimized byte-level kernels and their
//! scalar reference implementations.
//!
//! Every optimized kernel in the workspace (SWAR varint decode and
//! slice-by-8 CRC-32 in `booters-store`, the radix grouping sort in
//! `booters-netsim`) keeps its original scalar implementation as a
//! *differential-testing oracle*. [`scalar_kernels`] is the single
//! switch those dispatch points consult: `false` (the default) runs the
//! fast kernels, `true` forces the scalar oracles. Because every fast
//! kernel is bit-identical to its oracle — pinned by differential
//! property tests and a dedicated `scripts/verify.sh` pass — flipping
//! the switch can never change an output byte, only the wall clock.
//!
//! Resolution mirrors the thread-count knob: a scoped
//! [`with_scalar_kernels`] override on the current thread → the
//! `BOOTERS_SCALAR_KERNELS` environment variable (read once per
//! process) → fast kernels. Pool workers inherit the *submitting*
//! thread's effective value, so a `with_scalar_kernels(true, …)` scope
//! covers work fanned out through `par_map` too.

use std::cell::Cell;
use std::sync::OnceLock;

thread_local! {
    /// Scoped per-thread override installed by [`with_scalar_kernels`]
    /// (and by the pool on worker threads, inheriting the caller's
    /// effective value).
    static KERNEL_OVERRIDE: Cell<Option<bool>> = const { Cell::new(None) };
}

/// Parse a `BOOTERS_SCALAR_KERNELS` value: `1`/`true`/`yes`/`on` force
/// the scalar oracles, anything else keeps the fast kernels.
fn parse_scalar(v: &str) -> bool {
    matches!(
        v.trim().to_ascii_lowercase().as_str(),
        "1" | "true" | "yes" | "on"
    )
}

/// Process-wide configured kernel selection: `BOOTERS_SCALAR_KERNELS`
/// if set (read once), otherwise the fast kernels.
fn configured_scalar() -> bool {
    static CONFIGURED: OnceLock<bool> = OnceLock::new();
    *CONFIGURED.get_or_init(|| {
        std::env::var("BOOTERS_SCALAR_KERNELS")
            .map(|v| parse_scalar(&v))
            .unwrap_or(false)
    })
}

/// True when byte-level hot paths must run their scalar reference
/// implementations instead of the optimized kernels.
pub fn scalar_kernels() -> bool {
    KERNEL_OVERRIDE
        .with(|c| c.get())
        .unwrap_or_else(configured_scalar)
}

/// Install the submitting thread's effective selection on a pool helper.
/// Helpers outlive a dispatch, so each one calls this at the start of
/// every job it claims; the next dispatch overwrites the value, so
/// nothing needs restoring.
pub(crate) fn inherit_kernels(scalar: bool) {
    KERNEL_OVERRIDE.with(|c| c.set(Some(scalar)));
}

/// Run `f` with the kernel selection pinned on this thread (`true` =
/// scalar oracles), restoring the previous setting afterwards — also on
/// panic. The differential tests use this to run the same pipeline both
/// ways inside one process and `assert_eq!` the artifacts.
pub fn with_scalar_kernels<T>(scalar: bool, f: impl FnOnce() -> T) -> T {
    struct Restore(Option<bool>);
    impl Drop for Restore {
        fn drop(&mut self) {
            KERNEL_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let prev = KERNEL_OVERRIDE.with(|c| c.replace(Some(scalar)));
    let _restore = Restore(prev);
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_scalar_accepts_truthy_spellings_only() {
        assert!(parse_scalar("1"));
        assert!(parse_scalar(" true "));
        assert!(parse_scalar("YES"));
        assert!(parse_scalar("on"));
        assert!(!parse_scalar("0"));
        assert!(!parse_scalar(""));
        assert!(!parse_scalar("fast"));
    }

    #[test]
    fn with_scalar_kernels_overrides_and_restores() {
        let outer = scalar_kernels();
        assert!(with_scalar_kernels(true, scalar_kernels));
        assert!(!with_scalar_kernels(false, scalar_kernels));
        assert_eq!(scalar_kernels(), outer);
        with_scalar_kernels(true, || {
            assert!(!with_scalar_kernels(false, scalar_kernels));
            assert!(scalar_kernels());
        });
    }

    #[test]
    fn with_scalar_kernels_restores_on_panic() {
        let before = scalar_kernels();
        let caught = std::panic::catch_unwind(|| {
            with_scalar_kernels(true, || panic!("boom"));
        });
        assert!(caught.is_err());
        assert_eq!(scalar_kernels(), before);
    }

    #[test]
    fn pool_workers_inherit_the_callers_selection() {
        let items: Vec<u32> = (0..64).collect();
        for scalar in [true, false] {
            let seen = crate::with_threads(4, || {
                with_scalar_kernels(scalar, || {
                    crate::with_min_items(1, || crate::par_map(&items, |_| scalar_kernels()))
                })
            });
            assert!(seen.iter().all(|&s| s == scalar), "scalar={scalar}");
        }
    }
}
