#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]
//! Calendar and time-series substrate for the booters analysis.
//!
//! The paper aggregates five years of attack events into weekly counts and
//! fits an interrupted time series with monthly seasonal dummies, an Easter
//! dummy (school holidays move with Easter) and step-function intervention
//! windows. This crate supplies:
//!
//! * [`date`] — proleptic Gregorian civil dates built from scratch
//!   (days-from-epoch arithmetic, weekdays, month lengths) — no external
//!   time crates.
//! * [`easter`] — the Meeus/Jones/Butcher Gregorian Easter computus.
//! * [`series`] — [`series::WeeklySeries`], a contiguous week-indexed series
//!   with resampling from event timestamps and windowed slicing.
//! * [`seasonal`] — month-of-year dummy encoding and the Easter indicator.
//! * [`intervention`] — intervention window definitions and dummy encoding.
//! * [`design`] — assembly of the paper's full design matrix
//!   (interventions | Easter | seasonal 2..12 | time | const).
//! * [`correlate`] — cross-country correlation matrices (Figure 4).
//! * [`index`] — rebase series to 100 at a common origin (Figure 5).

pub mod correlate;
pub mod date;
pub mod design;
pub mod easter;
pub mod index;
pub mod intervention;
pub mod seasonal;
pub mod series;

pub use date::{Date, Weekday};
pub use intervention::InterventionWindow;
pub use series::WeeklySeries;
