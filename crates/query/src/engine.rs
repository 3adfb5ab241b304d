//! The query engine: shared footer state, pushdown planning, late
//! materialization, and the columnar aggregation kernels.

use crate::agg::{Column, WeeklyPanel, WEEK_SECS};
use crate::predicate::Predicate;
use booters_netsim::flow::VictimKey;
use booters_netsim::{group_flows_par, FlowClass, SensorPacket};
use booters_store::reader::ChunkReader;
use booters_store::{decode_chunk_columns, ChunkColumns, ChunkInfo, StoreError};
use std::collections::BTreeMap;
use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The footer state every reader shares: parsed once at
/// [`QueryEngine::open`], then only ever read.
#[derive(Debug)]
struct EngineInner {
    /// Backing file path — the per-read `open` fallback on non-unix
    /// targets (and `Debug` context everywhere).
    #[cfg_attr(unix, allow(dead_code))]
    path: PathBuf,
    /// Shared read handle: chunk reads are positioned (`pread`-style),
    /// so concurrent queries on clones share this one descriptor with
    /// zero cursor state and no per-query `open`.
    file: File,
    index: Vec<ChunkInfo>,
    /// Byte extent `(offset, len)` of each chunk, precomputed so scan
    /// cursors need no further footer arithmetic.
    extents: Vec<(u64, u64)>,
    total_packets: u64,
}

/// A planned scan: the chunks that survived zone-map pruning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryPlan {
    /// Surviving chunk indices, ascending (store order).
    pub chunks: Vec<usize>,
    /// Chunks eliminated by zone maps alone — no I/O, no decode.
    pub pruned: usize,
    /// Total chunks in the store (`chunks.len() + pruned`).
    pub total: usize,
}

/// Work accounting for one query. All fields are exact and thread-count
/// invariant: pruning decisions depend only on the footer, and per-chunk
/// work is summed in submission order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Queries executed.
    pub scans: u64,
    /// Chunks considered by planners (the store's chunk count, summed
    /// over scans).
    pub chunks_total: u64,
    /// Chunks pruned by zone maps before any I/O.
    pub chunks_pruned: u64,
    /// Chunks answered from footer metadata alone (`count` on a chunk
    /// whose zone map the predicate covers) — read but never decoded.
    pub chunks_covered: u64,
    /// Chunks actually read and column-decoded. Conservation:
    /// `chunks_pruned + chunks_covered + chunks_decoded = chunks_total`.
    pub chunks_decoded: u64,
    /// Rows examined by column filters (decoded chunks × their rows).
    pub rows_scanned: u64,
    /// Rows matching the predicate (returned, counted, or aggregated).
    pub rows_returned: u64,
}

impl QueryStats {
    /// Publish this accounting to the `query.*` observability counters
    /// (one call per query, outside the parallel region, so counter
    /// totals are thread-count invariant by construction).
    fn publish(&self) {
        booters_obs::counter_add("query.scans", self.scans);
        booters_obs::counter_add("query.chunks_pruned", self.chunks_pruned);
        booters_obs::counter_add("query.chunks_covered", self.chunks_covered);
        booters_obs::counter_add("query.chunks_decoded", self.chunks_decoded);
        booters_obs::counter_add("query.rows_scanned", self.rows_scanned);
        booters_obs::counter_add("query.rows_returned", self.rows_returned);
    }
}

/// Rows matching a [`Predicate`], in store order, with the work
/// accounting that produced them.
#[derive(Debug, Clone)]
pub struct ScanResult {
    /// Matching rows, materialized late: only positions that passed the
    /// column filters were ever built into packets.
    pub rows: Vec<SensorPacket>,
    /// Work accounting for this scan.
    pub stats: QueryStats,
}

/// A predicate-pushdown query engine over one store file.
///
/// Opening validates the file exactly as
/// [`ChunkReader::open`] does (magics, footer
/// CRC, offset monotonicity) and keeps the footer index — plus one
/// shared read handle — behind an [`Arc`]. Cloning is an `Arc` bump;
/// chunk reads are positioned (`pread`-style, no cursor), so clones (or
/// one engine shared by reference) support fully concurrent scans — N
/// readers, zero shared state, zero per-query `open`s — while per-query
/// chunk decodes fan out over the `booters-par` executor. Results are
/// identical at every thread count.
#[derive(Debug, Clone)]
pub struct QueryEngine {
    inner: Arc<EngineInner>,
}

impl QueryEngine {
    /// Open and validate a store file, parsing the footer once.
    pub fn open(path: impl AsRef<Path>) -> Result<QueryEngine, StoreError> {
        let reader = ChunkReader::open(path.as_ref())?;
        let extents = (0..reader.chunk_count())
            .map(|i| reader.chunk_extent(i))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(QueryEngine {
            inner: Arc::new(EngineInner {
                path: path.as_ref().to_path_buf(),
                file: File::open(path.as_ref())?,
                index: reader.index().to_vec(),
                extents,
                total_packets: reader.total_packets(),
            }),
        })
    }

    /// Chunks in the store.
    pub fn chunk_count(&self) -> usize {
        self.inner.index.len()
    }

    /// Total packets across all chunks (footer metadata).
    pub fn total_packets(&self) -> u64 {
        self.inner.total_packets
    }

    /// Plan a scan: evaluate `pred` against every chunk's zone map and
    /// keep only the chunks that may hold a matching row. Footer
    /// metadata only — no I/O.
    pub fn plan(&self, pred: &Predicate) -> QueryPlan {
        let mut chunks = Vec::new();
        let mut pruned = 0usize;
        for (i, info) in self.inner.index.iter().enumerate() {
            if pred.may_match_zone(&info.zone) {
                chunks.push(i);
            } else {
                pruned += 1;
            }
        }
        QueryPlan {
            chunks,
            pruned,
            total: self.inner.index.len(),
        }
    }

    /// Read chunk `i`'s raw bytes with a positioned read on the shared
    /// handle — no per-query `open`, no cursor, safe from any thread.
    fn read_raw(&self, i: usize) -> Result<Vec<u8>, StoreError> {
        let (offset, len) = self.inner.extents[i];
        let mut bytes = vec![0u8; len as usize];
        #[cfg(unix)]
        {
            use std::os::unix::fs::FileExt;
            self.inner.file.read_exact_at(&mut bytes, offset)?;
        }
        #[cfg(not(unix))]
        {
            use std::io::{Read, Seek, SeekFrom};
            let mut file = File::open(&self.inner.path)?;
            file.seek(SeekFrom::Start(offset))?;
            file.read_exact(&mut bytes)?;
        }
        Ok(bytes)
    }

    /// Decode the planned chunks as columns and fold each through `f`
    /// (decode + fold fused into one `par_map` work item per
    /// chunk; submission-order reduction keeps results deterministic).
    /// Element `j` of the result is `f` over chunk `chunks[j]`; the
    /// earliest failing chunk's error wins.
    fn fold_chunks<R: Send>(
        &self,
        chunks: &[usize],
        f: impl Fn(&ChunkColumns) -> R + Sync,
    ) -> Result<Vec<R>, StoreError> {
        let raw: Vec<Vec<u8>> = chunks
            .iter()
            .map(|&i| self.read_raw(i))
            .collect::<Result<_, _>>()?;
        booters_par::par_map(&raw, |bytes| {
            decode_chunk_columns(bytes).map(|cols| f(&cols))
        })
        .into_iter()
        .collect()
    }

    /// Positions in `cols` matching `pred` — the selection vector the
    /// kernels share.
    fn select(pred: &Predicate, cols: &ChunkColumns) -> Vec<u32> {
        (0..cols.len() as u32)
            .filter(|&i| pred.matches_at(cols, i as usize))
            .collect()
    }

    /// Accounting for one query over `plan` that decodes `decoded` of
    /// its chunks.
    fn base_stats(&self, plan: &QueryPlan, decoded: usize) -> QueryStats {
        QueryStats {
            scans: 1,
            chunks_total: plan.total as u64,
            chunks_pruned: plan.pruned as u64,
            chunks_decoded: decoded as u64,
            ..QueryStats::default()
        }
    }

    /// Scan: all rows matching `pred`, in store order, materialized
    /// late — the predicate runs on decoded columns and only surviving
    /// positions become [`SensorPacket`]s.
    pub fn scan(&self, pred: &Predicate) -> Result<ScanResult, StoreError> {
        booters_obs::span!("query.scan");
        let plan = self.plan(pred);
        let per_chunk = self.fold_chunks(&plan.chunks, |cols| {
            let sel = Self::select(pred, cols);
            let rows: Vec<SensorPacket> =
                sel.iter().map(|&i| cols.materialize(i as usize)).collect();
            (rows, cols.len() as u64)
        })?;
        let mut stats = self.base_stats(&plan, plan.chunks.len());
        let mut rows = Vec::new();
        for (chunk_rows, scanned) in per_chunk {
            stats.rows_scanned += scanned;
            stats.rows_returned += chunk_rows.len() as u64;
            rows.extend(chunk_rows);
        }
        stats.publish();
        Ok(ScanResult { rows, stats })
    }

    /// Count rows matching `pred` without materializing any row. Chunks
    /// whose zone map the predicate *covers* are answered from the
    /// footer packet count alone (no I/O at all); the rest decode as
    /// columns and count the selection.
    pub fn count(&self, pred: &Predicate) -> Result<(u64, QueryStats), StoreError> {
        booters_obs::span!("query.count");
        let plan = self.plan(pred);
        let mut covered_rows = 0u64;
        let mut decode: Vec<usize> = Vec::new();
        for &i in &plan.chunks {
            let info = &self.inner.index[i];
            if pred.covers_zone(&info.zone) {
                covered_rows += info.packets;
            } else {
                decode.push(i);
            }
        }
        let mut stats = self.base_stats(&plan, decode.len());
        stats.chunks_covered = (plan.chunks.len() - decode.len()) as u64;
        let per_chunk = self.fold_chunks(&decode, |cols| {
            (Self::select(pred, cols).len() as u64, cols.len() as u64)
        })?;
        let mut matched = covered_rows;
        for (hits, scanned) in per_chunk {
            stats.rows_scanned += scanned;
            matched += hits;
        }
        stats.rows_returned = matched;
        stats.publish();
        Ok((matched, stats))
    }

    /// Sum a numeric column over rows matching `pred`, widened to
    /// `u128` so no store can overflow it. Never materializes rows.
    pub fn sum(&self, pred: &Predicate, col: Column) -> Result<(u128, QueryStats), StoreError> {
        booters_obs::span!("query.sum");
        let plan = self.plan(pred);
        let per_chunk = self.fold_chunks(&plan.chunks, |cols| {
            let sel = Self::select(pred, cols);
            let sum: u128 = sel.iter().map(|&i| col.value_at(cols, i as usize) as u128).sum();
            (sum, sel.len() as u64, cols.len() as u64)
        })?;
        let mut stats = self.base_stats(&plan, plan.chunks.len());
        let mut total = 0u128;
        for (sum, hits, scanned) in per_chunk {
            stats.rows_scanned += scanned;
            stats.rows_returned += hits;
            total += sum;
        }
        stats.publish();
        Ok((total, stats))
    }

    /// Min and max of a numeric column over rows matching `pred`
    /// (`None` when nothing matches). Never materializes rows.
    pub fn min_max(
        &self,
        pred: &Predicate,
        col: Column,
    ) -> Result<(Option<(u64, u64)>, QueryStats), StoreError> {
        booters_obs::span!("query.min_max");
        let plan = self.plan(pred);
        let per_chunk = self.fold_chunks(&plan.chunks, |cols| {
            let sel = Self::select(pred, cols);
            let bounds = sel.iter().fold(None, |acc: Option<(u64, u64)>, &i| {
                let v = col.value_at(cols, i as usize);
                Some(match acc {
                    None => (v, v),
                    Some((lo, hi)) => (lo.min(v), hi.max(v)),
                })
            });
            (bounds, sel.len() as u64, cols.len() as u64)
        })?;
        let mut stats = self.base_stats(&plan, plan.chunks.len());
        let mut bounds: Option<(u64, u64)> = None;
        for (b, hits, scanned) in per_chunk {
            stats.rows_scanned += scanned;
            stats.rows_returned += hits;
            if let Some((lo, hi)) = b {
                bounds = Some(match bounds {
                    None => (lo, hi),
                    Some((l, h)) => (l.min(lo), h.max(hi)),
                });
            }
        }
        stats.publish();
        Ok((bounds, stats))
    }

    /// The weekly panel: packet counts per `(week, country, protocol)`
    /// over rows matching `pred` — the group-by the GLM stage's weekly
    /// datasets are built from. Per-chunk partial panels merge by
    /// cell-wise addition; no row is ever materialized.
    pub fn group_by_week(
        &self,
        pred: &Predicate,
    ) -> Result<(WeeklyPanel, QueryStats), StoreError> {
        booters_obs::span!("query.group_by_week");
        let plan = self.plan(pred);
        let per_chunk = self.fold_chunks(&plan.chunks, |cols| {
            let sel = Self::select(pred, cols);
            let panel = WeeklyPanel::of_selection(cols, &sel);
            (panel, sel.len() as u64, cols.len() as u64)
        })?;
        let mut stats = self.base_stats(&plan, plan.chunks.len());
        let mut panel = WeeklyPanel::default();
        for (p, hits, scanned) in per_chunk {
            stats.rows_scanned += scanned;
            stats.rows_returned += hits;
            panel.absorb(&p);
        }
        stats.publish();
        Ok((panel, stats))
    }

    /// Flow-grouped weekly **attack** counts over rows matching `pred`:
    /// the scanned rows run through the paper's 15-minute-gap flow
    /// grouping and >5-packets-per-sensor classifier, and each attack
    /// flow lands in the week of its first packet. This is the
    /// query-backed twin of the batch pipeline's rate computation
    /// (flows need per-sensor packet counts, so matching rows *are*
    /// materialized here — still only the matching ones).
    ///
    /// Requires an ingest-ordered store (rows non-decreasing in time,
    /// which every store written from a batch-simulated packet stream
    /// is); store order then equals time order for the scanned rows.
    pub fn weekly_attacks(
        &self,
        pred: &Predicate,
        key: VictimKey,
    ) -> Result<(BTreeMap<u64, u64>, QueryStats), StoreError> {
        booters_obs::span!("query.weekly_attacks");
        let scan = self.scan(pred)?;
        let flows = group_flows_par(&scan.rows, key);
        let mut weeks: BTreeMap<u64, u64> = BTreeMap::new();
        for f in &flows {
            if f.classify() == FlowClass::Attack {
                *weeks.entry(f.start / WEEK_SECS).or_insert(0) += 1;
            }
        }
        Ok((weeks, scan.stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use booters_netsim::{UdpProtocol, VictimAddr};
    use booters_store::ChunkWriter;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn test_path(name: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "booters_query_{name}_{}_{seq}.bstore",
            std::process::id()
        ))
    }

    fn pkt(time: u64, victim: u32, proto: usize, sensor: u32) -> SensorPacket {
        SensorPacket {
            time,
            sensor,
            victim: VictimAddr(victim),
            protocol: UdpProtocol::ALL[proto],
            ttl: 54,
            src_port: 443,
        }
    }

    /// Two well-separated chunks: times 0..100 / victims 0..10, then
    /// times 10_000..10_100 / victims 500..510.
    fn two_band_store(name: &str) -> (PathBuf, Vec<SensorPacket>) {
        let mut packets: Vec<SensorPacket> =
            (0..100u64).map(|i| pkt(i, (i % 10) as u32, (i % 3) as usize, 1)).collect();
        packets.extend((0..100u64).map(|i| pkt(10_000 + i, 500 + (i % 10) as u32, 4, 2)));
        let path = test_path(name);
        let mut w = ChunkWriter::with_capacity(&path, 100).unwrap();
        w.push_all(&packets).unwrap();
        w.finish().unwrap();
        (path, packets)
    }

    #[test]
    fn plan_prunes_via_zone_maps_and_scan_matches_oracle() {
        let (path, packets) = two_band_store("plan");
        let eng = QueryEngine::open(&path).unwrap();
        assert_eq!(eng.chunk_count(), 2);
        assert_eq!(eng.total_packets(), 200);

        let pred = Predicate::all().with_time(0, 200);
        let plan = eng.plan(&pred);
        assert_eq!(plan.chunks, vec![0]);
        assert_eq!((plan.pruned, plan.total), (1, 2));

        let res = eng.scan(&pred).unwrap();
        let oracle: Vec<SensorPacket> =
            packets.iter().filter(|p| pred.matches(p)).cloned().collect();
        assert_eq!(res.rows, oracle);
        assert_eq!(res.stats.chunks_pruned, 1);
        assert_eq!(res.stats.chunks_decoded, 1);
        assert_eq!(res.stats.rows_scanned, 100);
        assert_eq!(res.stats.rows_returned, 100);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn count_answers_covered_chunks_without_decoding() {
        let (path, _) = two_band_store("count_cover");
        let eng = QueryEngine::open(&path).unwrap();
        // Covers chunk 0 entirely, prunes chunk 1.
        let (n, stats) = eng.count(&Predicate::all().with_time(0, 100)).unwrap();
        assert_eq!(n, 100);
        assert_eq!(stats.chunks_covered, 1);
        assert_eq!(stats.chunks_decoded, 0);
        assert_eq!(stats.rows_scanned, 0);
        // The trivial predicate covers both chunks: a pure-footer count.
        let (n, stats) = eng.count(&Predicate::all()).unwrap();
        assert_eq!(n, 200);
        assert_eq!(stats.chunks_covered, 2);
        assert_eq!(stats.chunks_decoded, 0);
        // A protocol clause blocks coverage, forcing a decode.
        let (n, stats) = eng
            .count(&Predicate::all().with_protocols(&[UdpProtocol::ALL[4]]))
            .unwrap();
        assert_eq!(n, 100);
        assert_eq!(stats.chunks_covered, 0);
        assert_eq!(stats.chunks_decoded, 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn aggregation_kernels_agree_with_materializing_oracle() {
        let (path, packets) = two_band_store("agg");
        let eng = QueryEngine::open(&path).unwrap();
        let pred = Predicate::all().with_victim_range(VictimAddr(5), VictimAddr(505));
        let oracle: Vec<&SensorPacket> = packets.iter().filter(|p| pred.matches(p)).collect();

        let (n, _) = eng.count(&pred).unwrap();
        assert_eq!(n, oracle.len() as u64);

        let (s, _) = eng.sum(&pred, Column::Time).unwrap();
        assert_eq!(s, oracle.iter().map(|p| p.time as u128).sum::<u128>());

        let (mm, _) = eng.min_max(&pred, Column::Victim).unwrap();
        let lo = oracle.iter().map(|p| p.victim.0 as u64).min().unwrap();
        let hi = oracle.iter().map(|p| p.victim.0 as u64).max().unwrap();
        assert_eq!(mm, Some((lo, hi)));

        // Nothing matches: min_max is None, count is 0.
        let nothing = Predicate::all().with_time(500, 600);
        assert_eq!(eng.min_max(&nothing, Column::Time).unwrap().0, None);
        assert_eq!(eng.count(&nothing).unwrap().0, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn group_by_week_buckets_by_week_country_protocol() {
        let day = 86_400;
        // Week 0 and week 2, two countries (via /8 blocks), two protocols.
        let packets = vec![
            pkt(0, VictimAddr::from_octets(25, 0, 0, 1).0, 0, 1),
            pkt(day, VictimAddr::from_octets(25, 0, 0, 2).0, 0, 1),
            pkt(14 * day + 5, VictimAddr::from_octets(80, 1, 0, 1).0, 4, 1),
        ];
        let path = test_path("gbw");
        let mut w = ChunkWriter::with_capacity(&path, 2).unwrap();
        w.push_all(&packets).unwrap();
        w.finish().unwrap();
        let eng = QueryEngine::open(&path).unwrap();
        let (panel, stats) = eng.group_by_week(&Predicate::all()).unwrap();
        assert_eq!(panel.total(), 3);
        assert_eq!(panel.weeks(), vec![0, 2]);
        assert_eq!(panel.week_total(0), 2);
        assert_eq!(stats.rows_returned, 3);
        let c25 = VictimAddr::from_octets(25, 0, 0, 1).country().index() as u8;
        assert_eq!(panel.cells[&(0, c25, 0)], 2);
        let csv = panel.to_csv();
        assert!(csv.starts_with("week,country,protocol,packets\n0,"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn concurrent_clones_scan_one_store_consistently() {
        let (path, packets) = two_band_store("concurrent");
        let eng = QueryEngine::open(&path).unwrap();
        let preds = [
            Predicate::all(),
            Predicate::all().with_time(0, 50),
            Predicate::all().with_victim(VictimAddr(503)),
            Predicate::all().with_protocols(&[UdpProtocol::ALL[0]]),
        ];
        let mut handles = Vec::new();
        for pred in preds.iter().cloned() {
            let eng = eng.clone();
            handles.push(std::thread::spawn(move || eng.scan(&pred).unwrap().rows));
        }
        for (h, pred) in handles.into_iter().zip(preds.iter()) {
            let oracle: Vec<SensorPacket> =
                packets.iter().filter(|p| pred.matches(p)).cloned().collect();
            assert_eq!(h.join().unwrap(), oracle);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn weekly_attacks_counts_classified_flows_per_week() {
        // One dense burst (attack: >5 packets on one sensor) in week 0,
        // one single-packet scan in week 1.
        let mut packets: Vec<SensorPacket> =
            (0..10u64).map(|i| pkt(100 + i, 7, 2, 3)).collect();
        packets.push(pkt(8 * 86_400, 9, 2, 3));
        let path = test_path("weekly_attacks");
        let mut w = ChunkWriter::with_capacity(&path, 4).unwrap();
        w.push_all(&packets).unwrap();
        w.finish().unwrap();
        let eng = QueryEngine::open(&path).unwrap();
        let (weeks, stats) = eng
            .weekly_attacks(&Predicate::all(), VictimKey::ByIp)
            .unwrap();
        assert_eq!(weeks.get(&0), Some(&1));
        assert_eq!(weeks.get(&1), None, "a lone packet is a scan, not an attack");
        assert_eq!(stats.rows_returned, 11);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn scan_results_are_thread_count_invariant() {
        let (path, _) = two_band_store("threads");
        let pred = Predicate::all().with_victim_range(VictimAddr(3), VictimAddr(507));
        let eng = QueryEngine::open(&path).unwrap();
        let baseline = booters_par::with_threads(1, || eng.scan(&pred).unwrap());
        for t in [2usize, 4] {
            let got = booters_par::with_threads(t, || eng.scan(&pred).unwrap());
            assert_eq!(got.rows, baseline.rows, "threads={t}");
            assert_eq!(got.stats, baseline.stats, "threads={t}");
        }
        std::fs::remove_file(&path).unwrap();
    }
}
