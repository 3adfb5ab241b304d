//! End-to-end benchmark of the Booting the Booters reproduction.
//!
//! Three closed-loop workloads (`paper`, `scenario_suite`,
//! `full_packets`) call the library's public functions, check every op's
//! outputs, and report end-to-end metrics; a separate traced run breaks
//! each op down by layer. See `README.md` beside this crate for the
//! workloads, their seed sets and sizes, and which end-to-end metric each
//! layer metric should move.

pub mod measure;
pub mod trace;
pub mod workload;
