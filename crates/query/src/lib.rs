//! Predicate-pushdown query engine over the `booters-store` columnar
//! packet store — the read path the reproduction's analyses actually
//! run: "attacks on these victims, over this protocol, in this time
//! window, bucketed by week".
//!
//! The engine ([`QueryEngine`]) opens a store file once, validates and
//! keeps the footer index (offsets + per-chunk zone maps) behind an
//! [`std::sync::Arc`], and answers queries in three stages:
//!
//! 1. **Plan** — a typed [`Predicate`] (time range, victim set/prefix,
//!    protocol set) is evaluated against the footer zone maps alone;
//!    chunks that provably cannot hold a matching row are pruned before
//!    any chunk I/O or decode ([`QueryEngine::plan`]). The soundness
//!    contract (DESIGN.md §5h): a pruned chunk contains **no** matching
//!    row, so pruning can never change a result — only skip work.
//! 2. **Scan** — surviving chunks are read and decoded *as columns*
//!    ([`booters_store::ChunkColumns`]), the predicate runs against the
//!    column vectors, and full [`booters_netsim::SensorPacket`] rows are
//!    materialized only for the positions that match (late
//!    materialization, [`QueryEngine::scan`]).
//! 3. **Aggregate** — the columnar kernels ([`QueryEngine::count`],
//!    [`QueryEngine::sum`], [`QueryEngine::min_max`],
//!    [`QueryEngine::group_by_week`]) never materialize rows at all;
//!    `count` additionally answers chunks whose zone map the predicate
//!    *covers* straight from the footer packet counts, with no I/O.
//!
//! Cloning a [`QueryEngine`] is cheap (an `Arc` bump) and every scan
//! opens its own file handle, so N threads can run N concurrent scans
//! against one store file with no shared cursor state; per-scan chunk
//! decodes additionally fan out over the `booters-par` executor.
//! Results and [`QueryStats`] totals are identical at every
//! `BOOTERS_THREADS` setting, and every operation is
//! instrumented with `query.*` spans and counters (chunks pruned vs
//! decoded, rows scanned vs returned) behind `BOOTERS_OBS`.

#![warn(missing_docs)]

pub mod agg;
pub mod engine;
pub mod predicate;

pub use agg::{Column, WeeklyPanel, WEEK_SECS};
pub use engine::{QueryEngine, QueryPlan, QueryStats, ScanResult};
pub use predicate::{Predicate, ProtocolSet, VictimFilter};
