#![warn(missing_docs)]
//! Columnar on-disk event store and out-of-core flow grouping for the
//! honeypot packet traces (`booters-store`).
//!
//! The paper's real dataset — ~2.9 billion packets logged by the
//! hopscotch honeypot fleet — does not fit in RAM at full scale, and
//! neither should the reproduction's synthetic traces have to. This
//! crate provides the two pieces that remove that ceiling:
//!
//! * **A chunked columnar store** ([`ChunkWriter`] / [`ChunkReader`]):
//!   packets are transposed into per-field columns (time, victim,
//!   protocol, sensor, ttl, source port), delta + zig-zag + LEB128
//!   encoded per chunk, CRC-32 sealed, and indexed by a footer carrying
//!   per-chunk zone maps (min/max time and victim) so scans can skip
//!   chunks without decoding.
//! * **Out-of-core grouping** ([`SpillGrouper`]): an external sort that
//!   holds at most `BOOTERS_STORE_BUDGET` bytes of packets in memory,
//!   spills sorted runs as store files, k-way-merges them lowest-key
//!   first, and groups flows one `(victim, protocol)` key at a time —
//!   producing flows **identical** to the in-memory
//!   `classify_flows`/`group_flows_par` pipeline at every budget and
//!   thread count (chunk decodes fan out through `booters-par` with
//!   submission-order determinism).
//!
//! Everything is hermetic: the codec, CRC, and external sort are
//! implemented in-tree; corruption anywhere in a store file surfaces as
//! a typed [`StoreError`], never a panic or silently wrong data.
//! The byte-level fast kernels keep their scalar references
//! ([`varint::decode_deltas_scalar`], [`encode_chunk_scalar`],
//! [`crc32_bytewise`]) only as test oracles (DESIGN.md §5f).

pub mod chunk;
pub mod crc32;
pub mod error;
pub mod extsort;
pub mod reader;
pub mod varint;
pub mod writer;

pub use chunk::{
    decode_chunk, decode_chunk_columns, encode_chunk, encode_chunk_scalar, ChunkColumns, ZoneMap,
    DEFAULT_CHUNK_CAPACITY,
};
pub use crc32::{crc32, crc32_bytewise};
pub use error::StoreError;
pub use extsort::{
    classify_out_of_core, group_out_of_core, GroupOutcome, SpillConfig, SpillGrouper, SpillStats,
    DEFAULT_BUDGET_BYTES, MIN_BUDGET_BYTES,
};
pub use reader::ChunkReader;
pub use writer::{ChunkInfo, ChunkWriter, StoreMeta, PACKET_BYTES};

/// Unique scratch path for unit tests: system temp dir, process id, and
/// a per-call sequence number, so parallel test binaries never collide.
#[cfg(test)]
pub(crate) fn test_path(name: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "booters-store-test-{}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed),
        name
    ))
}
