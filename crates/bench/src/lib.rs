#![warn(missing_docs)]
//! Shared scaffolding for the `repro` binary and the benches.
//!
//! `repro` takes an optional `--scale` (default [`DEFAULT_SCALE`]):
//! `cargo run --release -p booters-bench --bin repro -- --scale 1.0 all`
//! runs at the paper's absolute volume. Output files land in `out/` under
//! the workspace root.

use booters_core::scenario::{Fidelity, Scenario, ScenarioConfig};
use booters_market::calibration::Calibration;
use booters_market::market::MarketConfig;
use std::path::PathBuf;

/// Default volume scale for repro runs: fast but statistically faithful
/// (scaling only shifts the model constant).
pub const DEFAULT_SCALE: f64 = 0.25;

/// Deterministic seed of every repro run, so tables, figures and the
/// run report come from the same simulated world.
pub const REPRO_SEED: u64 = 0xB00735;

/// Standard scenario configuration for repro runs.
pub fn repro_config(scale: f64) -> ScenarioConfig {
    ScenarioConfig {
        market: MarketConfig {
            calibration: Calibration::default(),
            scale,
            seed: REPRO_SEED,
            ..MarketConfig::default()
        },
        fidelity: Fidelity::Aggregate,
        ..ScenarioConfig::default()
    }
}

/// Run the standard scenario.
pub fn run_scenario(scale: f64) -> Scenario {
    Scenario::run(repro_config(scale))
}

/// Write an artifact under `out/` (created on demand) and echo the path.
pub fn write_artifact(name: &str, contents: &str) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(name);
    std::fs::write(&path, contents)?;
    eprintln!("wrote {}", path.display());
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repro_config_is_deterministic() {
        let a = repro_config(0.1);
        let b = repro_config(0.1);
        assert_eq!(a.market.seed, b.market.seed);
        assert_eq!(a.market.scale, 0.1);
    }

    #[test]
    fn scale_default_applies() {
        assert_eq!(DEFAULT_SCALE, 0.25);
    }
}
