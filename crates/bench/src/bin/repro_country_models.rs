//! Full per-country model parameters — the detail the paper's §4.1 omits
//! "for reasons of space, we do not present the details of the individual
//! per-country model parameters". The reproduction has no page limit.
//!
//! Usage: `cargo run --release -p booters-bench --bin repro_country_models [scale]`

use booters_bench::{pipeline_config, run_scenario, scale_from_args, write_artifact};
use booters_core::report::country_model_detail;
use booters_market::calibration::Calibration;

fn main() {
    let scale = scale_from_args();
    let scenario = run_scenario(scale);
    let cal = Calibration::default();
    let cfg = pipeline_config();

    // Fit every country in parallel, one fit per scheduling unit; blocks
    // are joined in table order, so the artifact is identical at every
    // BOOTERS_THREADS setting.
    let countries = Calibration::table2_countries();
    let blocks = booters_par::par_map_coarse(&countries, |&country| {
        match country_model_detail(&scenario.honeypot, &cal, country, &cfg) {
            Ok(text) => format!("{text}\n----------------------------------------\n\n"),
            Err(e) => format!("{country}: model failed: {e}\n"),
        }
    });
    let out = blocks.concat();
    println!("{out}");
    write_artifact("country_models.txt", &out);
}
