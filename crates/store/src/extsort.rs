//! Out-of-core flow grouping: bounded-memory external sort + k-way merge.
//!
//! [`SpillGrouper`] accepts an unbounded packet stream while holding at
//! most `budget_bytes` of packets in RAM. When the buffer fills it is
//! sorted by the grouping key and written to a temporary store file (a
//! *run*); at [`SpillGrouper::finish`] the runs are merged with a
//! lowest-key k-way merge and the merged stream is grouped into flows one
//! `(victim, protocol)` key at a time.
//!
//! ## Why this equals the in-memory pipeline
//!
//! A flow's content depends only on the multiset of its key's packets
//! visited in time-nondecreasing order: `per_sensor` and `total_packets`
//! are order-independent aggregates, and the 15-minute-gap boundaries
//! depend only on the sorted time sequence. Sorting by
//! `(canonical victim, protocol, time, …)` presents each key's packets
//! exactly so, hence the flows — canonicalised by
//! [`booters_netsim::sort_flows`] — are **identical** to
//! `classify_flows` / `group_flows_par` over the same trace, at every
//! budget, run count, and thread count.
//!
//! Determinism contract: runs are formed with *stable* sorts on the
//! `(canonical victim, protocol, time)` key and the merge breaks key
//! ties by run index, so the merged stream is a pure function of the
//! input sequence; packets equal under the key are interchangeable for
//! grouping (per-sensor counts and totals are order-free aggregates,
//! and [`booters_netsim::sort_flows`] canonicalises the flow order), so
//! budgets and thread counts can never change the flows. Initial chunk
//! decodes are fanned out through `booters-par` with submission-order
//! result collection; refills are sequential.

use crate::chunk::DEFAULT_CHUNK_CAPACITY;
use crate::error::StoreError;
use crate::reader::ChunkReader;
use crate::writer::{ChunkWriter, PACKET_BYTES};
use booters_netsim::flow::{KeyedGrouper, FLOW_GAP_SECS};
use booters_netsim::{Flow, SensorPacket, VictimKey};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Default in-memory budget when `BOOTERS_STORE_BUDGET` is unset: 256 MiB.
pub const DEFAULT_BUDGET_BYTES: usize = 256 << 20;

/// Default per-run read-batch size during the k-way merge: 256 KiB. One
/// seek + one large read replaces a seek per ~1500-packet chunk, which is
/// most of the gap between the out-of-core and in-memory grouping paths.
pub const DEFAULT_MERGE_READ_BYTES: usize = 256 << 10;

/// Smallest accepted budget — enough for a few dozen packets, so the
/// grouper always makes progress.
pub const MIN_BUDGET_BYTES: usize = 1024;

/// Parse the `BOOTERS_STORE_BUDGET` environment variable: a byte count
/// with an optional `k`/`m`/`g` suffix (case-insensitive, powers of
/// 1024). Read fresh on every call — deliberately not cached, so test
/// passes under different budgets (see `scripts/verify.sh`) see the
/// value they set. Unset, empty, or malformed values yield `None`.
fn budget_from_env() -> Option<usize> {
    let raw = std::env::var("BOOTERS_STORE_BUDGET").ok()?;
    parse_budget(&raw)
}

/// Parse a budget string (`"65536"`, `"64k"`, `"2m"`, `"1g"`).
fn parse_budget(raw: &str) -> Option<usize> {
    let s = raw.trim();
    if s.is_empty() {
        return None;
    }
    let (digits, shift) = match s.as_bytes()[s.len() - 1].to_ascii_lowercase() {
        b'k' => (&s[..s.len() - 1], 10u32),
        b'm' => (&s[..s.len() - 1], 20),
        b'g' => (&s[..s.len() - 1], 30),
        _ => (s, 0),
    };
    let n: usize = digits.trim().parse().ok()?;
    n.checked_mul(1usize << shift)
}

/// Configuration of one [`SpillGrouper`].
#[derive(Debug, Clone)]
pub struct SpillConfig {
    /// In-memory packet buffer budget in bytes (clamped to at least
    /// [`MIN_BUDGET_BYTES`]).
    pub budget_bytes: usize,
    /// Victim keying rule, as in the in-memory groupers.
    pub key: VictimKey,
    /// Directory for spill runs; `None` uses the system temp dir. Each
    /// grouper creates (and removes) its own unique subdirectory.
    pub dir: Option<PathBuf>,
    /// Packets per chunk in run files.
    pub chunk_capacity: usize,
    /// Bytes of raw run data each merge cursor reads per batch (whole
    /// chunks; a single chunk is read alone even when it exceeds this).
    /// Larger values trade memory — two batches per run are resident —
    /// for fewer, larger reads.
    pub merge_read_bytes: usize,
}

impl Default for SpillConfig {
    /// Budget from `BOOTERS_STORE_BUDGET` (fresh read) or
    /// [`DEFAULT_BUDGET_BYTES`]; by-IP keying; system temp dir.
    fn default() -> SpillConfig {
        SpillConfig {
            budget_bytes: budget_from_env().unwrap_or(DEFAULT_BUDGET_BYTES),
            key: VictimKey::ByIp,
            dir: None,
            chunk_capacity: DEFAULT_CHUNK_CAPACITY,
            merge_read_bytes: DEFAULT_MERGE_READ_BYTES,
        }
    }
}

/// Counters describing how much work one out-of-core grouping pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillStats {
    /// Packets pushed through the grouper.
    pub packets: u64,
    /// On-disk runs written (0 means the pass stayed in memory).
    pub spill_runs: usize,
    /// Total encoded bytes across run files.
    pub run_bytes: u64,
    /// Total chunks across run files.
    pub run_chunks: usize,
    /// Largest in-memory buffer observed, in packets.
    pub peak_buf_packets: usize,
}

/// Result of [`SpillGrouper::finish`].
#[derive(Debug, Clone)]
pub struct GroupOutcome {
    /// Flows in canonical [`booters_netsim::sort_flows`] order.
    pub flows: Vec<Flow>,
    /// What the pass cost.
    pub stats: SpillStats,
}

/// The grouping order over packets used for runs and the merge:
/// canonical victim, then protocol, then time — so each
/// `(victim, protocol)` group arrives contiguously and
/// time-nondecreasing, which is all the flow semantics depend on
/// (aggregates are order-free within a timestamp, and the final
/// [`booters_netsim::sort_flows`] canonicalises flow order).
///
/// The tuple `(victim, protocol, time)` is *packed* into the low 104
/// bits of one `u128` — fields in that order, most-significant first,
/// none overlapping — so every comparison (run sorting, the k-way merge
/// heap, the gallop guard) is a single integer compare. Packing is
/// strictly monotone, so the order is exactly the tuple order. Packets
/// equal under this key are interchangeable for grouping; the run sort
/// is stable and the merge breaks key ties by run index, keeping
/// every path deterministic.
type SortKey = u128;

fn sort_key(key: VictimKey, p: &SensorPacket) -> SortKey {
    ((key.canonical(p.victim).0 as u128) << 72)
        | ((p.protocol.index() as u128) << 64)
        | p.time as u128
}

/// Sort a run buffer by [`sort_key`] order with the standard library's
/// stable sort.
fn sort_run(buf: &mut [SensorPacket], key: VictimKey) {
    buf.sort_by_key(|p| sort_key(key, p));
}

/// Monotone source of unique spill-directory names within the process.
static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

/// Owns the spill directory and run files; cleanup is best-effort and
/// idempotent, and runs on drop even when grouping errors out early.
#[derive(Debug, Default)]
struct RunSet {
    dir: Option<PathBuf>,
    files: Vec<PathBuf>,
}

impl RunSet {
    fn cleanup(&mut self) {
        for f in self.files.drain(..) {
            let _ = std::fs::remove_file(f);
        }
        if let Some(dir) = self.dir.take() {
            let _ = std::fs::remove_dir(dir);
        }
    }
}

impl Drop for RunSet {
    fn drop(&mut self) {
        self.cleanup();
    }
}

/// Bounded-memory streaming flow grouper (see module docs).
#[derive(Debug)]
pub struct SpillGrouper {
    config: SpillConfig,
    budget_packets: usize,
    buf: Vec<SensorPacket>,
    runs: RunSet,
    stats: SpillStats,
}

impl SpillGrouper {
    /// New grouper. No file is touched until the first spill.
    pub fn new(config: SpillConfig) -> SpillGrouper {
        let budget = config.budget_bytes.max(MIN_BUDGET_BYTES);
        SpillGrouper {
            budget_packets: (budget / PACKET_BYTES).max(1),
            config,
            buf: Vec::new(),
            runs: RunSet::default(),
            stats: SpillStats::default(),
        }
    }

    /// Counters so far (final counters come with [`SpillGrouper::finish`]).
    pub fn stats(&self) -> &SpillStats {
        &self.stats
    }

    /// Push one packet, spilling to disk when the buffer hits the budget.
    pub fn push(&mut self, p: &SensorPacket) -> Result<(), StoreError> {
        self.buf.push(*p);
        self.stats.packets += 1;
        self.stats.peak_buf_packets = self.stats.peak_buf_packets.max(self.buf.len());
        if self.buf.len() >= self.budget_packets {
            self.spill()?;
        }
        Ok(())
    }

    /// Push a batch of packets. Spills happen at exactly the same
    /// buffer-fill boundaries as the per-packet [`SpillGrouper::push`]
    /// path — the batch just replaces per-packet calls with slice copies
    /// up to each boundary, so run contents are identical either way.
    pub fn push_all(&mut self, packets: &[SensorPacket]) -> Result<(), StoreError> {
        let mut rest = packets;
        while !rest.is_empty() {
            let room = self.budget_packets - self.buf.len();
            let take = room.min(rest.len());
            self.buf.extend_from_slice(&rest[..take]);
            self.stats.packets += take as u64;
            rest = &rest[take..];
            self.stats.peak_buf_packets = self.stats.peak_buf_packets.max(self.buf.len());
            if self.buf.len() >= self.budget_packets {
                self.spill()?;
            }
        }
        Ok(())
    }

    fn spill_dir(&mut self) -> Result<PathBuf, StoreError> {
        if let Some(dir) = &self.runs.dir {
            return Ok(dir.clone());
        }
        let base = self
            .config
            .dir
            .clone()
            .unwrap_or_else(std::env::temp_dir);
        let dir = base.join(format!(
            "booters-spill-{}-{}",
            std::process::id(),
            SPILL_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir)?;
        self.runs.dir = Some(dir.clone());
        Ok(dir)
    }

    fn spill(&mut self) -> Result<(), StoreError> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let key = self.config.key;
        sort_run(&mut self.buf, key);
        let dir = self.spill_dir()?;
        let path = dir.join(format!("run-{:05}.bst", self.runs.files.len()));
        let mut w = ChunkWriter::with_capacity(&path, self.config.chunk_capacity)?;
        w.push_all(&self.buf)?;
        let meta = w.finish()?;
        self.runs.files.push(path);
        booters_obs::counter_add("store.spill_runs", 1);
        booters_obs::gauge_max("store.peak_spill_packets", meta.packets);
        self.stats.spill_runs += 1;
        self.stats.run_bytes += meta.file_bytes;
        self.stats.run_chunks += meta.chunks;
        self.buf.clear();
        Ok(())
    }

    /// Sort/merge/group everything pushed so far. Run files are removed
    /// before this returns (and on drop if it never runs).
    pub fn finish(mut self) -> Result<GroupOutcome, StoreError> {
        let key = self.config.key;
        let mut flows = if self.runs.files.is_empty() {
            // Everything fit in the budget: sort in place and group —
            // the merge path minus the disk round-trip.
            sort_run(&mut self.buf, key);
            let mut grouper = KeyedGrouper::new(key);
            for p in &self.buf {
                grouper.push(p);
            }
            grouper.finish()
        } else {
            self.spill()?; // final partial run
            booters_obs::span!("merge_runs");
            merge_runs(&self.runs.files, key, self.config.merge_read_bytes as u64)?
        };
        booters_netsim::sort_flows(&mut flows);
        self.runs.cleanup();
        Ok(GroupOutcome {
            flows,
            stats: self.stats,
        })
    }
}

/// A contiguous batch of raw chunk bytes from one run file, covering
/// chunks `first..end`; chunk `j`'s record starts at `extent_j.0 − base`.
struct RawBatch {
    bytes: Vec<u8>,
    base: u64,
    first: usize,
    end: usize,
}

impl RawBatch {
    fn covers(&self, chunk: usize) -> bool {
        (self.first..self.end).contains(&chunk)
    }
}

/// One run's read position during the merge.
///
/// Reads are double-buffered: `batch` holds the raw bytes the cursor is
/// currently decoding from, `ahead` the prefetched next batch. When the
/// cursor crosses a batch boundary it promotes `ahead` and immediately
/// issues the following read, so each run does one large sequential read
/// per `merge_read_bytes` of data instead of a seek per chunk — and the
/// two reads per promotion happen back-to-back at adjacent offsets
/// rather than interleaved with the other runs' chunk reads.
struct RunCursor {
    reader: ChunkReader,
    chunk: Vec<SensorPacket>,
    pos: usize,
    next_chunk: usize,
    batch: Option<RawBatch>,
    ahead: Option<RawBatch>,
    read_bytes: u64,
}

impl RunCursor {
    fn current(&self) -> Option<&SensorPacket> {
        self.chunk.get(self.pos)
    }

    fn read_batch(&mut self, first: usize) -> Result<RawBatch, StoreError> {
        let (bytes, base, end) = self.reader.raw_chunk_batch(first, self.read_bytes)?;
        Ok(RawBatch { bytes, base, first, end })
    }

    /// Decode chunk `next_chunk` out of the batched raw bytes, promoting
    /// or reading batches as needed.
    fn refill(&mut self) -> Result<(), StoreError> {
        if !self.batch.as_ref().is_some_and(|b| b.covers(self.next_chunk)) {
            let promoted = self.ahead.take().filter(|b| b.covers(self.next_chunk));
            self.batch = Some(match promoted {
                Some(b) => b,
                None => self.read_batch(self.next_chunk)?,
            });
            let end = self.batch.as_ref().expect("just set").end;
            self.ahead = if end < self.reader.chunk_count() {
                Some(self.read_batch(end)?)
            } else {
                None
            };
        }
        let (off, len) = self.reader.chunk_extent(self.next_chunk)?;
        let b = self.batch.as_ref().expect("batch covers next_chunk");
        let slice = &b.bytes[(off - b.base) as usize..][..len as usize];
        self.chunk = crate::chunk::decode_chunk(slice)?;
        self.next_chunk += 1;
        self.pos = 0;
        Ok(())
    }

    fn advance(&mut self) -> Result<(), StoreError> {
        self.pos += 1;
        while self.pos >= self.chunk.len() && self.next_chunk < self.reader.chunk_count() {
            self.refill()?;
        }
        Ok(())
    }
}

/// Lowest-key k-way merge over sorted run files, grouped on the fly.
///
/// The first chunk of every run is decoded in one `booters-par` fan-out
/// (submission-order results); subsequent chunks are decoded on demand
/// as each cursor drains, from double-buffered `read_bytes`-sized batch
/// reads (see [`RunCursor`]). Heap ties between runs are broken by run
/// index — deterministic, and invisible in the grouped output because
/// packets equal under the key are interchangeable for grouping (see
/// the [`SortKey`] docs).
fn merge_runs(
    run_files: &[PathBuf],
    key: VictimKey,
    read_bytes: u64,
) -> Result<Vec<Flow>, StoreError> {
    let mut readers: Vec<ChunkReader> = run_files
        .iter()
        .map(ChunkReader::open)
        .collect::<Result<_, _>>()?;
    // An empty run has no first chunk to decode.
    let first_raw: Vec<Option<Vec<u8>>> = readers
        .iter_mut()
        .map(|r| (r.chunk_count() > 0).then(|| r.raw_chunk(0)).transpose())
        .collect::<Result<_, StoreError>>()?;
    // One item per run, each a full chunk decode: few but heavy items,
    // each its own scheduling unit.
    let first_chunks = booters_par::par_map(&first_raw, |raw| match raw {
        Some(bytes) => crate::chunk::decode_chunk(bytes),
        None => Ok(Vec::new()),
    });
    let mut cursors: Vec<RunCursor> = Vec::with_capacity(readers.len());
    for (reader, chunk) in readers.into_iter().zip(first_chunks) {
        cursors.push(RunCursor {
            reader,
            chunk: chunk?,
            pos: 0,
            next_chunk: 1,
            batch: None,
            ahead: None,
            read_bytes,
        });
    }

    let mut heap: BinaryHeap<Reverse<(SortKey, usize)>> = BinaryHeap::new();
    for (i, c) in cursors.iter().enumerate() {
        if let Some(p) = c.current() {
            heap.push(Reverse((sort_key(key, p), i)));
        }
    }
    let mut grouper = KeyedGrouper::new(key);
    while let Some(Reverse((_, i))) = heap.pop() {
        // Drain run `i` for as long as it stays the overall minimum —
        // identical pop order to the naive one-packet-per-heap-op loop,
        // because the guard below is exactly the heap's comparison
        // against the runner-up. Runs are time slices, so within one
        // (victim, protocol) key the winner rarely changes and most
        // packets skip the heap entirely.
        let bound = heap.peek().map(|&Reverse(b)| b);
        loop {
            let p = *cursors[i].current().expect("cursor on heap has a packet");
            grouper.push(&p);
            cursors[i].advance()?;
            let Some(np) = cursors[i].current() else {
                break; // run exhausted
            };
            let Some(b) = bound else {
                continue; // only run left: drain it
            };
            let nk = sort_key(key, np);
            // Equal keys yield to the lower run index, like the heap.
            if (nk, i) > b {
                heap.push(Reverse((nk, i)));
                break;
            }
        }
    }
    Ok(grouper.finish())
}

/// One-shot out-of-core grouping of a complete trace.
pub fn group_out_of_core(
    packets: &[SensorPacket],
    config: SpillConfig,
) -> Result<GroupOutcome, StoreError> {
    let mut g = SpillGrouper::new(config);
    g.push_all(packets)?;
    g.finish()
}

/// Out-of-core classification: grouped flows with the paper's
/// attack/scan rule applied, matching `classify_flows` up to the
/// canonical flow order.
pub fn classify_out_of_core(
    packets: &[SensorPacket],
    config: SpillConfig,
) -> Result<(Vec<(Flow, booters_netsim::FlowClass)>, SpillStats), StoreError> {
    let out = group_out_of_core(packets, config)?;
    let flows = out
        .flows
        .into_iter()
        .map(|f| {
            let class = f.classify();
            (f, class)
        })
        .collect();
    Ok((flows, out.stats))
}

/// A gap larger than this between *keys* never matters — re-exported gap
/// constant so callers sizing budgets can reason about flow lifetimes.
pub const GROUP_GAP_SECS: u64 = FLOW_GAP_SECS;

#[cfg(test)]
mod tests {
    use super::*;
    use booters_netsim::{classify_flows, sort_flows, UdpProtocol, VictimAddr};

    fn pkt(time: u64, sensor: u32, victim: u32, proto: usize) -> SensorPacket {
        SensorPacket {
            time,
            sensor,
            victim: VictimAddr(victim),
            protocol: UdpProtocol::ALL[proto],
            ttl: 54,
            src_port: 80,
        }
    }

    /// A mixed trace: many victims/protocols, bursts, gaps, duplicates.
    fn mixed_trace() -> Vec<SensorPacket> {
        let mut t = Vec::new();
        for v in 0..30u32 {
            let proto = (v % 10) as usize;
            let base = (v as u64 % 7) * 50;
            for i in 0..9u64 {
                let sensor = if v % 2 == 0 { 0 } else { i as u32 % 4 };
                t.push(pkt(base + i * 40, sensor, 0x1900_0000 + v, proto));
            }
            // Second burst after a closing gap.
            for i in 0..4u64 {
                t.push(pkt(base + 9 * 40 + FLOW_GAP_SECS + i * 25, 1, 0x1900_0000 + v, proto));
            }
            // A duplicate packet.
            t.push(pkt(base, 0, 0x1900_0000 + v, proto));
        }
        t.sort_by_key(|p| p.time);
        t
    }

    fn tiny_config(budget: usize) -> SpillConfig {
        SpillConfig {
            budget_bytes: budget,
            key: VictimKey::ByIp,
            dir: None,
            chunk_capacity: 16,
            // Tiny batches so the double-buffer promotion path runs many
            // times per merge in these tests.
            merge_read_bytes: 256,
        }
    }

    #[test]
    fn out_of_core_matches_in_memory_classification() {
        let trace = mixed_trace();
        let mut expected: Vec<Flow> =
            classify_flows(&trace).into_iter().map(|(f, _)| f).collect();
        sort_flows(&mut expected);
        // Budget small enough to force many runs.
        let out = group_out_of_core(&trace, tiny_config(MIN_BUDGET_BYTES)).unwrap();
        assert!(out.stats.spill_runs >= 3, "runs={}", out.stats.spill_runs);
        assert_eq!(out.flows, expected);
        // And with everything in memory (no runs at all).
        let out = group_out_of_core(&trace, tiny_config(DEFAULT_BUDGET_BYTES)).unwrap();
        assert_eq!(out.stats.spill_runs, 0);
        assert_eq!(out.flows, expected);
    }

    #[test]
    fn output_is_invariant_across_budgets_and_threads() {
        let trace = mixed_trace();
        let baseline = group_out_of_core(&trace, tiny_config(1 << 20)).unwrap().flows;
        for budget in [MIN_BUDGET_BYTES, 4096, 16 << 10] {
            for threads in [1usize, 4] {
                let flows = booters_par::with_threads(threads, || {
                    group_out_of_core(&trace, tiny_config(budget)).unwrap().flows
                });
                assert_eq!(flows, baseline, "budget={budget} threads={threads}");
            }
        }
    }

    #[test]
    fn output_is_invariant_across_merge_read_sizes() {
        // merge_read_bytes only changes I/O batching, never the merged
        // stream: 1 byte forces one-chunk batches (the old per-chunk
        // behaviour), the default covers whole runs in one read.
        let trace = mixed_trace();
        let baseline = group_out_of_core(&trace, tiny_config(MIN_BUDGET_BYTES))
            .unwrap()
            .flows;
        for read in [1usize, 64, 4096, DEFAULT_MERGE_READ_BYTES] {
            let mut cfg = tiny_config(MIN_BUDGET_BYTES);
            cfg.merge_read_bytes = read;
            let flows = group_out_of_core(&trace, cfg).unwrap().flows;
            assert_eq!(flows, baseline, "merge_read_bytes={read}");
        }
    }

    #[test]
    fn prefix_keying_matches_in_memory_prefix_grouping() {
        // Carpet-bombing trace across one /24.
        let trace: Vec<SensorPacket> = (0..40u64)
            .map(|i| pkt(i * 3, 0, 0x1907_0000 + (i % 13) as u32, 2))
            .collect();
        let expected = booters_netsim::group_flows_par(&trace, VictimKey::ByPrefix24);
        let mut cfg = tiny_config(MIN_BUDGET_BYTES);
        cfg.key = VictimKey::ByPrefix24;
        let out = group_out_of_core(&trace, cfg).unwrap();
        assert_eq!(out.flows, expected);
        assert_eq!(out.flows.len(), 1);
    }

    #[test]
    fn per_packet_push_reports_stats() {
        let trace = mixed_trace();
        let mut g = SpillGrouper::new(tiny_config(MIN_BUDGET_BYTES));
        for p in &trace {
            g.push(p).unwrap();
        }
        assert_eq!(g.stats().packets, trace.len() as u64);
        let out = g.finish().unwrap();
        assert_eq!(out.stats.packets, trace.len() as u64);
        assert!(out.stats.run_bytes > 0);
        assert!(out.stats.run_chunks > 0);
        assert!(out.stats.peak_buf_packets <= MIN_BUDGET_BYTES / PACKET_BYTES);
    }

    #[test]
    fn spill_files_are_cleaned_up() {
        let dir = crate::test_path("extsort_cleanup_dir");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = mixed_trace();
        let cfg = SpillConfig {
            dir: Some(dir.clone()),
            ..tiny_config(MIN_BUDGET_BYTES)
        };
        let out = group_out_of_core(&trace, cfg.clone()).unwrap();
        assert!(out.stats.spill_runs >= 3);
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            0,
            "spill dir not emptied"
        );
        // Dropping a grouper mid-stream cleans up too.
        let mut g = SpillGrouper::new(cfg);
        g.push_all(&trace).unwrap();
        drop(g);
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
        std::fs::remove_dir(&dir).unwrap();
    }

    #[test]
    fn empty_and_singleton_streams_work() {
        let out = group_out_of_core(&[], tiny_config(MIN_BUDGET_BYTES)).unwrap();
        assert!(out.flows.is_empty());
        assert_eq!(out.stats.packets, 0);
        let one = [pkt(10, 0, 1, 0)];
        let out = group_out_of_core(&one, tiny_config(MIN_BUDGET_BYTES)).unwrap();
        assert_eq!(out.flows.len(), 1);
        assert_eq!(out.flows[0].total_packets, 1);
    }

    #[test]
    fn budget_parsing_accepts_suffixes() {
        assert_eq!(parse_budget("65536"), Some(65536));
        assert_eq!(parse_budget("64k"), Some(64 << 10));
        assert_eq!(parse_budget("64K"), Some(64 << 10));
        assert_eq!(parse_budget(" 2m "), Some(2 << 20));
        assert_eq!(parse_budget("1g"), Some(1 << 30));
        assert_eq!(parse_budget(""), None);
        assert_eq!(parse_budget("banana"), None);
        assert_eq!(parse_budget("12q"), None);
    }
}
