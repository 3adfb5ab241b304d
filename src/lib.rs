#![warn(missing_docs)]
//! # booting-the-booters
//!
//! A from-scratch Rust reproduction of *Booting the Booters: Evaluating
//! the Effects of Police Interventions in the Market for Denial-of-Service
//! Attacks* (Collier, Thomas, Clayton & Hutchings, IMC 2019).
//!
//! The paper measured how takedowns, arrests, sentencing publicity and a
//! targeted advertising campaign affected the DDoS-for-hire ("booter")
//! market, using a proprietary five-year honeypot trace and weekly scrapes
//! of booter self-report counters. This workspace rebuilds the entire
//! measurement and analysis chain:
//!
//! | crate | what it provides |
//! |---|---|
//! | [`linalg`] | dense matrix kernel (Cholesky/LU/QR) |
//! | [`stats`] | special functions, distributions, hypothesis tests |
//! | [`timeseries`] | civil dates, Easter computus, weekly series, ITS designs |
//! | [`glm`] | OLS, Poisson and NB2 regression with full inference |
//! | [`netsim`] | packet-level UDP reflection + hopscotch honeypot simulator |
//! | [`market`] | agent-based booter market with the §2 intervention timeline |
//! | [`core`] | scenario runner, datasets, the §4 pipeline, the artifact registry and its renderers |
//! | [`par`] | deterministic parked thread-pool driving the simulate→group→fit hot paths |
//! | [`store`] | chunked columnar on-disk packet store + out-of-core flow grouping |
//! | [`obs`] | zero-dependency span timers + metric counters, off by default (`BOOTERS_OBS=1`) |
//! | [`serve`] | streaming ingest: sharded intake, watermark-driven flow expiry, rolling warm-started refits |
//! | [`query`] | predicate-pushdown query engine over the store: zone-map pruning, late materialization, columnar aggregation, concurrent readers |
//!
//! Parallelism never changes results: every report is byte-identical at
//! any `BOOTERS_THREADS` setting (see DESIGN.md, "Determinism contract").
//! Observability never changes results either: with `BOOTERS_OBS=1` the
//! same bytes come out, plus per-stage timings and metric totals that the
//! `repro report` command renders into `out/report.html` / `out/report.md`
//! (see DESIGN.md §5e, "Observability contract").
//!
//! ## Quickstart
//!
//! ```no_run
//! use booting_the_booters::core::scenario::{Fidelity, Scenario, ScenarioConfig};
//! use booting_the_booters::core::pipeline::{fit_global, PipelineConfig};
//! use booting_the_booters::core::report::table1;
//! use booting_the_booters::market::calibration::Calibration;
//!
//! let scenario = Scenario::run(ScenarioConfig::default());
//! let fit = fit_global(
//!     &scenario.honeypot,
//!     &Calibration::default(),
//!     &PipelineConfig::default(),
//! )
//! .expect("model converges");
//! println!("{}", table1(&fit));
//! ```

pub use booters_core as core;
pub use booters_glm as glm;
pub use booters_linalg as linalg;
pub use booters_market as market;
pub use booters_netsim as netsim;
pub use booters_obs as obs;
pub use booters_par as par;
pub use booters_query as query;
pub use booters_serve as serve;
pub use booters_stats as stats;
pub use booters_store as store;
pub use booters_timeseries as timeseries;
