#![warn(missing_docs)]
//! Streaming ingest service for the honeypot measurement chain.
//!
//! The paper's pipeline is simulate-then-analyse in one shot; the
//! ROADMAP north star is a long-running service watching the attack
//! stream *as it happens*. This crate is that online path:
//!
//! * **Sharded intake** — packets are routed by a deterministic
//!   splitmix64 hash of their canonical victim/protocol key onto
//!   bounded SPSC [`RingQueue`]s, one per shard. A full queue is a
//!   typed [`ServeError::Backpressure`], never a silent drop.
//! * **Watermark-driven incremental grouping** — each shard buffers
//!   arrivals and, when the caller advances the watermark `W`
//!   (promising that every future packet has `time ≥ W`), sorts the
//!   ripe prefix by time and feeds it to the same 15-minute-gap
//!   [`booters_netsim::flow::FlowGrouper`] the batch path uses, then
//!   expires every flow that can no longer be extended. Open-flow state
//!   stays bounded by the watermark lag, not the stream length.
//! * **Rolling weekly aggregation and warm-started refits** — closed
//!   attack flows accumulate into weekly counts, and every time the
//!   watermark closes a week an NB2 trend model is refit, continuing
//!   from the previous week's coefficients via
//!   [`booters_glm::WarmStart::Beta`] (a periodic full profile-α search
//!   keeps the dispersion honest).
//!
//! The correctness spine is *streaming equivalence*: for any arrival
//! interleaving that respects the watermark bounds and any
//! advance/flush schedule, the closed flows — and therefore Tables 1
//! and 2 rendered from them — are **byte-identical** to the batch
//! `group_flows_par` path on the time-sorted trace (DESIGN.md §5g,
//! pinned on engine packet batches by `tests/flow_backends.rs` and by
//! the property tests in `crates/serve/tests/stream_equivalence.rs`).
//!
//! ```
//! use booters_netsim::{SensorPacket, UdpProtocol, VictimAddr};
//! use booters_serve::{ServeConfig, ServeNode};
//!
//! let mut node = ServeNode::new(ServeConfig::default());
//! for t in [0u64, 10, 2_000] {
//!     node.ingest(&SensorPacket {
//!         time: t,
//!         sensor: 1,
//!         victim: VictimAddr::from_octets(25, 0, 0, 9),
//!         protocol: UdpProtocol::Ldap,
//!         ttl: 60,
//!         src_port: 53,
//!     })
//!     .expect("no packet is late");
//! }
//! let (flows, stats) = node.finish().expect("stream is well-formed");
//! assert_eq!(flows.len(), 2); // 10 → 2000 exceeds the 15-minute gap
//! assert_eq!(stats.packets, 3);
//! ```

pub mod error;
pub mod node;
pub mod ring;
pub(crate) mod shard;
pub mod weekly;

pub use error::ServeError;
pub use node::{ServeConfig, ServeNode, ServeStats, WEEK_SECS};
pub use ring::RingQueue;
pub use weekly::{RefitPolicy, RollingFit, RollingFitter, WeeklyRoller};
