#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]
//! End-to-end reproduction pipeline for *Booting the Booters* (IMC 2019).
//!
//! This crate ties the substrates together into the paper's experiments:
//!
//! * [`scenario`] — run the market simulator and observe it through the
//!   honeypot layer, producing the two datasets of §3.
//! * [`datasets`] — the honeypot-observed weekly dataset (global,
//!   per-country, per-protocol) and the booter self-report dataset
//!   (counters, deaths/resurrections/births).
//! * [`pipeline`] — the paper's §4 analysis: interrupted-time-series
//!   negative binomial models, globally and per country, with effect-size
//!   extraction and automated intervention-window scanning.
//! * [`detect`] — automated version of the paper's intervention-window
//!   discovery: scan for runs that drop below the modelled series, test
//!   by likelihood ratio, and match against the §2 event timeline.
//! * [`report`] — renderers for Table 1, Table 2, Table 3 and CSV series
//!   for every figure.
//! * [`artifacts`] — the registry of every `out/` artifact with its one
//!   renderer over a shared run context; the `repro` binary (crate
//!   `booters-bench`) writes them.
//! * [`runreport`] — self-contained HTML/Markdown run reports combining
//!   the manifest, [`booters_obs`] timings/metrics, every table and
//!   figure, and the `BENCH_*.json` trajectory (see `repro report`).
//! * [`scenarios`] — cross-scenario intervention evaluation: run the
//!   pipeline once per [`booters_market::ScenarioSpec`] (the paper's five
//!   interventions plus successor-literature what-ifs) and compare the
//!   outcomes against a shockless baseline (see `repro scenarios` and
//!   `SCENARIOS.md`).
//! * [`verify`] — the §3 self-report validation suite (White's test,
//!   D'Agostino K², prime-divisibility multiplier check, cross-dataset
//!   correlation).

pub mod ablation;
pub mod artifacts;
pub mod datasets;
pub mod detect;
pub mod pipeline;
pub mod report;
pub mod runreport;
pub mod scenario;
pub mod scenarios;
pub mod verify;

pub use datasets::{HoneypotDataset, SelfReportDataset};
pub use pipeline::{CountryResult, GlobalModelResult, PipelineConfig};
pub use scenario::{Fidelity, Scenario, ScenarioConfig};
pub use scenarios::{run_builtin_suite, run_scenario, run_suite, ScenarioOutcome, ScenarioRunConfig, ScenarioSuite};
