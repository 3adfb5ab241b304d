//! The streaming ingest node: sharded intake, watermark advancement,
//! epoch closes, rolling weekly refits.
//!
//! ## Determinism contract (DESIGN.md §5g)
//!
//! Everything the node emits is a pure function of the packet multiset
//! and the watermark/epoch schedule — never of arrival interleaving
//! (within the watermark bounds), shard count, queue capacity, thread
//! count, or kernel selection:
//!
//! * routing is a deterministic splitmix64 hash of the canonical
//!   victim/protocol key, so a flow's packets always meet in one shard;
//! * each shard re-sorts its ripe packets by time before grouping, so
//!   the grouper sees the batch path's input shape exactly;
//! * shards are drained via `par_map_coarse` and their results merged
//!   in shard-index order, and the final flow stream is canonicalised
//!   by [`sort_flows`] — the same total order the batch path uses.
//!
//! The watermark is the caller's promise: after `advance_watermark(w)`
//! returns, every future packet must have `time ≥ w`. A violation is a
//! typed [`ServeError::LateArrival`], never silent corruption.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

use booters_netsim::flow::{sort_flows, Flow, FlowClass, VictimKey};
use booters_netsim::{PacketSink, SensorPacket};
use booters_testkit::rng::SplitMix64;
use booters_timeseries::Date;

use crate::error::ServeError;
use crate::shard::{Shard, ShardProgress};
use crate::weekly::{RefitPolicy, RollingFit, RollingFitter, WeeklyRoller};

/// Seconds per aggregation week.
pub const WEEK_SECS: u64 = 7 * 86_400;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&v| v > 0)
        .unwrap_or(default)
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .unwrap_or(default)
}

/// Streaming service configuration.
///
/// `Default` reads the env knobs once per call: `BOOTERS_SERVE_SHARDS`
/// (intake shards), `BOOTERS_SERVE_QUEUE` (per-shard ring capacity in
/// packets) and `BOOTERS_SERVE_LAG_SECS` (watermark lag used by
/// [`ServeNode::suggested_watermark`]). None of them can change any
/// emitted flow — only scheduling, buffering and backpressure behaviour.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Number of intake shards (≥ 1).
    pub shards: usize,
    /// Bounded ring capacity per shard, in packets (≥ 1).
    pub queue_capacity: usize,
    /// Watermark lag: [`ServeNode::suggested_watermark`] trails the
    /// largest ingested time by this many seconds, bounding how long a
    /// straggler may lawfully arrive behind its peers.
    pub watermark_lag_secs: u64,
    /// Victim keying rule for flow grouping.
    pub key: VictimKey,
    /// Calendar date of stream time 0 (week 0's Monday) — anchors the
    /// rolling weekly model's design matrix.
    pub epoch_start: Date,
    /// Rolling refit policy.
    pub refit: RefitPolicy,
    /// Fault injection for the test suite: the given shard panics on
    /// its next drain, which must surface as
    /// [`ServeError::ShardPanic`] — never a crash or silent loss.
    pub fault_panic_shard: Option<usize>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: env_usize("BOOTERS_SERVE_SHARDS", 8),
            queue_capacity: env_usize("BOOTERS_SERVE_QUEUE", 4096),
            watermark_lag_secs: env_u64("BOOTERS_SERVE_LAG_SECS", 1800),
            key: VictimKey::ByIp,
            epoch_start: Date::new(2016, 6, 6),
            refit: RefitPolicy::default(),
            fault_panic_shard: None,
        }
    }
}

/// Counters describing the work a [`ServeNode`] has done. All values
/// are deterministic for a given packet stream and watermark schedule —
/// independent of thread count and kernel selection (backpressure also
/// depends on `queue_capacity`, nothing else).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Packets accepted into the node.
    pub packets: u64,
    /// Packets fed to the flow groupers so far.
    pub grouped: u64,
    /// Flows closed (expired or epoch-flushed) so far.
    pub flows_closed: u64,
    /// Typed backpressure events absorbed by [`ServeNode::ingest`].
    pub backpressure_events: u64,
    /// Late packets rejected with [`ServeError::LateArrival`].
    pub late_packets: u64,
    /// Watermark advances performed.
    pub watermark_advances: u64,
    /// Weeks the watermark has closed (each triggers a rolling refit).
    pub weeks_closed: u64,
    /// Epochs closed via [`ServeNode::close_epoch`].
    pub epochs: u64,
    /// Peak simultaneously-open flows across all shards, sampled at
    /// each advance once its packets are grouped and before expired
    /// flows are closed (the steady-state memory bound).
    pub peak_open_flows: usize,
    /// Peak packets buffered (pending + queued), sampled at the start
    /// of each advance, before it groups anything.
    pub peak_pending: usize,
    /// Warm-started rolling refits.
    pub refits_warm: u64,
    /// Full profile-α rolling refits.
    pub refits_full: u64,
    /// Rolling refits that failed to converge (previous fit retained).
    pub refit_failures: u64,
}

/// The streaming ingest service node. See the crate docs for the data
/// path and [`ServeConfig`] for the knobs.
#[derive(Debug)]
pub struct ServeNode {
    cfg: ServeConfig,
    shards: Vec<Mutex<Shard>>,
    watermark: u64,
    max_time: u64,
    /// Closed flows collected from shards, awaiting [`Self::take_flows`]
    /// or the next epoch close. Shard-order concatenation; canonical
    /// order is imposed at hand-off.
    collected: Vec<Flow>,
    roller: WeeklyRoller,
    fitter: RollingFitter,
    stats: ServeStats,
    /// First sink-path error, surfaced at [`Self::finish`] — the
    /// infallible [`PacketSink`] contract.
    deferred: Option<ServeError>,
    poisoned: bool,
}

impl ServeNode {
    /// Build a node from `cfg` (shard and queue counts are clamped to
    /// at least 1).
    pub fn new(cfg: ServeConfig) -> ServeNode {
        let shards = cfg.shards.max(1);
        let queue = cfg.queue_capacity.max(1);
        let shard_vec = (0..shards)
            .map(|i| Mutex::new(Shard::new(cfg.key, queue, cfg.fault_panic_shard == Some(i))))
            .collect();
        ServeNode {
            fitter: RollingFitter::new(cfg.epoch_start, cfg.refit),
            shards: shard_vec,
            watermark: 0,
            max_time: 0,
            collected: Vec::new(),
            roller: WeeklyRoller::new(),
            stats: ServeStats::default(),
            deferred: None,
            poisoned: false,
            cfg,
        }
    }

    fn shard_index(&self, p: &SensorPacket) -> usize {
        // Same mix as the batch path's shard_of: canonical victim and
        // protocol, so every packet of one flow lands in one shard.
        let key = self.cfg.key.canonical(p.victim);
        let mixed =
            SplitMix64::new(((key.0 as u64) << 8) ^ p.protocol.index() as u64).next_u64();
        (mixed % self.shards.len() as u64) as usize
    }

    /// Current watermark.
    pub fn watermark(&self) -> u64 {
        self.watermark
    }

    /// Largest packet time ingested so far.
    pub fn max_time(&self) -> u64 {
        self.max_time
    }

    /// The watermark the configured lag recommends: the largest
    /// ingested time minus [`ServeConfig::watermark_lag_secs`]. Safe
    /// whenever the stream's disorder is bounded by the lag.
    pub fn suggested_watermark(&self) -> u64 {
        self.max_time.saturating_sub(self.cfg.watermark_lag_secs)
    }

    /// Offer one packet without retrying: a full shard queue surfaces
    /// as [`ServeError::Backpressure`] and the packet is not consumed.
    pub fn offer(&mut self, p: &SensorPacket) -> Result<(), ServeError> {
        if self.poisoned {
            return Err(ServeError::Poisoned);
        }
        if p.time < self.watermark {
            self.stats.late_packets += 1;
            booters_obs::counter_add("serve.late_packets", 1);
            return Err(ServeError::LateArrival {
                time: p.time,
                watermark: self.watermark,
            });
        }
        let idx = self.shard_index(p);
        let shard = self.shards[idx].get_mut().expect("shard lock");
        match shard.ring_mut().try_push(*p) {
            Ok(()) => {
                self.stats.packets += 1;
                self.max_time = self.max_time.max(p.time);
                Ok(())
            }
            Err(_) => Err(ServeError::Backpressure {
                shard: idx,
                capacity: self.cfg.queue_capacity.max(1),
            }),
        }
    }

    /// Offer with deterministic backpressure handling: when the target
    /// ring is full, drain it into the shard's pending buffer and
    /// retry. Late arrivals still fail.
    pub fn ingest(&mut self, p: &SensorPacket) -> Result<(), ServeError> {
        match self.offer(p) {
            Err(ServeError::Backpressure { shard, .. }) => {
                self.stats.backpressure_events += 1;
                booters_obs::counter_add("serve.backpressure", 1);
                self.shards[shard].get_mut().expect("shard lock").drain_ring();
                self.offer(p)
            }
            other => other,
        }
    }

    /// Move every shard's queued packets into its pending buffer
    /// without grouping anything. Cheap; useful to relieve backpressure
    /// without advancing the watermark.
    pub fn drain_intake(&mut self) {
        for shard in &mut self.shards {
            shard.get_mut().expect("shard lock").drain_ring();
        }
    }

    /// Run `f` against every shard on the configured thread pool,
    /// containing panics, and merge progress in shard-index order.
    fn fan_out(
        &mut self,
        f: impl Fn(&mut Shard) -> ShardProgress + Sync,
    ) -> Result<ShardProgress, ServeError> {
        let results: Vec<Result<ShardProgress, ()>> =
            booters_par::par_map_coarse(&self.shards, |m| {
                let mut shard = m.lock().expect("shard lock");
                catch_unwind(AssertUnwindSafe(|| f(&mut shard))).map_err(|_| ())
            });
        let mut total = ShardProgress::default();
        let mut failed: Option<usize> = None;
        for (i, r) in results.into_iter().enumerate() {
            match r {
                Ok(p) => {
                    total.grouped += p.grouped;
                    total.closed += p.closed;
                    total.open += p.open;
                    total.pending += p.pending;
                }
                Err(()) => failed = failed.or(Some(i)),
            }
        }
        if let Some(shard) = failed {
            self.poisoned = true;
            return Err(ServeError::ShardPanic { shard });
        }
        // Collect closed flows deterministically: shard-index order.
        for m in &mut self.shards {
            let mut flows = m.get_mut().expect("shard lock").take_closed();
            for flow in &flows {
                let week = (flow.start / WEEK_SECS) as usize;
                self.roller
                    .record(week, flow.classify() == FlowClass::Attack);
            }
            self.collected.append(&mut flows);
        }
        self.stats.grouped += total.grouped;
        self.stats.flows_closed += total.closed as u64;
        self.stats.peak_open_flows = self.stats.peak_open_flows.max(total.open);
        self.stats.peak_pending = self.stats.peak_pending.max(total.pending);
        booters_obs::counter_add("serve.packets_grouped", total.grouped);
        booters_obs::counter_add("serve.flows_closed", total.closed as u64);
        booters_obs::gauge_max("serve.open_flows", total.open as u64);
        booters_obs::gauge_max("serve.pending_packets", total.pending as u64);
        Ok(total)
    }

    /// Week-close bookkeeping for a watermark move to `w`: every newly
    /// completed week triggers one rolling refit on the counts so far.
    fn note_watermark(&mut self, w: u64) {
        let old_weeks = self.watermark / WEEK_SECS;
        let new_weeks = w / WEEK_SECS;
        self.watermark = w;
        if new_weeks > old_weeks {
            let closed = (new_weeks - old_weeks) as u64;
            self.stats.weeks_closed += closed;
            booters_obs::counter_add("serve.weeks_closed", closed);
            self.roller.ensure_weeks(new_weeks as usize);
            // One refit per advance that closed ≥ 1 week: the model sees
            // counts exactly as they stood at this watermark.
            let _ = self.fitter.refit(&self.roller.attacks()[..new_weeks as usize]);
            self.stats.refits_warm = self.fitter.warm_refits;
            self.stats.refits_full = self.fitter.full_refits;
            self.stats.refit_failures = self.fitter.failures;
        }
    }

    /// Advance the watermark to `w` (clamped to be non-decreasing):
    /// group every buffered packet with `time < w`, expire every flow
    /// that can no longer be extended, and close any week the watermark
    /// passed. Returns the number of flows closed by this advance.
    ///
    /// The caller promises that every packet offered **after** this
    /// call has `time ≥ w`; a violation is a later
    /// [`ServeError::LateArrival`].
    pub fn advance_watermark(&mut self, w: u64) -> Result<usize, ServeError> {
        if self.poisoned {
            return Err(ServeError::Poisoned);
        }
        booters_obs::span!("serve.advance");
        let w = w.max(self.watermark);
        let progress = self.fan_out(move |shard| shard.advance(w))?;
        self.stats.watermark_advances += 1;
        self.note_watermark(w);
        Ok(progress.closed)
    }

    /// Close the current epoch: group **everything** buffered
    /// (regardless of watermark), expire every open flow, move the
    /// watermark to `w` (closing any weeks passed), and return all
    /// closed flows in canonical [`sort_flows`] order.
    ///
    /// The batch pipeline groups each full-packet week in isolation;
    /// closing an epoch at each week end makes the streaming path's
    /// per-week flow sets — and every table derived from them —
    /// byte-identical to batch.
    pub fn close_epoch_at(&mut self, w: u64) -> Result<Vec<Flow>, ServeError> {
        if self.poisoned {
            return Err(ServeError::Poisoned);
        }
        booters_obs::span!("serve.close_epoch");
        self.fan_out(|shard| shard.close_all())?;
        self.stats.epochs += 1;
        booters_obs::counter_add("serve.epochs", 1);
        self.note_watermark(w.max(self.watermark));
        let mut flows = std::mem::take(&mut self.collected);
        sort_flows(&mut flows);
        Ok(flows)
    }

    /// [`Self::close_epoch_at`] the current watermark (no week close).
    pub fn close_epoch(&mut self) -> Result<Vec<Flow>, ServeError> {
        let w = self.watermark;
        self.close_epoch_at(w)
    }

    /// Take every flow closed so far, in canonical [`sort_flows`]
    /// order, leaving open flows and pending packets untouched.
    pub fn take_flows(&mut self) -> Result<Vec<Flow>, ServeError> {
        if self.poisoned {
            return Err(ServeError::Poisoned);
        }
        let mut flows = std::mem::take(&mut self.collected);
        sort_flows(&mut flows);
        Ok(flows)
    }

    /// Work counters so far (cheap clone).
    pub fn stats(&self) -> ServeStats {
        self.stats.clone()
    }

    /// The most recent rolling NB2 fit, if any week has closed with
    /// enough data.
    pub fn last_fit(&self) -> Option<&RollingFit> {
        self.fitter.last_fit()
    }

    /// First error deferred by the infallible [`PacketSink`] path, if
    /// any.
    pub fn sink_error(&self) -> Option<&ServeError> {
        self.deferred.as_ref()
    }

    /// Close everything and return (canonical flows, final stats).
    ///
    /// Surfaces the first deferred sink-path error instead of emitting
    /// flows — a stream that broke mid-flight never yields a
    /// partially-corrupt result.
    pub fn finish(mut self) -> Result<(Vec<Flow>, ServeStats), ServeError> {
        if let Some(e) = self.deferred.take() {
            return Err(e);
        }
        let w = self.max_time;
        let flows = self.close_epoch_at(w)?;
        Ok((flows, self.stats))
    }
}

impl PacketSink for ServeNode {
    /// Infallible intake: backpressure is absorbed by draining, and the
    /// first hard failure (late arrival, poisoning) is recorded and
    /// surfaced at [`ServeNode::finish`] — the same deferred-error
    /// contract as `booters_store::SpillGrouper`. Packets after the
    /// first failure are dropped deliberately: the stream is already
    /// broken, and grouping a suffix could only fabricate flows.
    fn accept(&mut self, packet: &SensorPacket) {
        if self.deferred.is_some() {
            return;
        }
        if let Err(e) = self.ingest(packet) {
            self.deferred = Some(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use booters_netsim::flow::FLOW_GAP_SECS;
    use booters_netsim::{UdpProtocol, VictimAddr};

    fn pkt(time: u64, victim: u32, sensor: u32) -> SensorPacket {
        SensorPacket {
            time,
            sensor,
            victim: VictimAddr(victim),
            protocol: UdpProtocol::ALL[victim as usize % 10],
            ttl: 64,
            src_port: 123,
        }
    }

    fn cfg() -> ServeConfig {
        ServeConfig {
            shards: 4,
            queue_capacity: 16,
            refit: RefitPolicy {
                enabled: false,
                ..RefitPolicy::default()
            },
            ..ServeConfig::default()
        }
    }

    #[test]
    fn watermark_advance_expires_only_settled_flows() {
        let mut node = ServeNode::new(cfg());
        node.ingest(&pkt(0, 1, 0)).unwrap();
        node.ingest(&pkt(100, 1, 1)).unwrap();
        node.ingest(&pkt(200, 2, 0)).unwrap();
        // Watermark 100 over gap 900: nothing is expirable yet.
        assert_eq!(node.advance_watermark(100).unwrap(), 0);
        // Far future: both flows expire.
        let closed = node.advance_watermark(200 + FLOW_GAP_SECS + 1).unwrap();
        assert_eq!(closed, 2);
        let flows = node.take_flows().unwrap();
        assert_eq!(flows.len(), 2);
        assert_eq!(flows[0].start, 0);
        assert_eq!(flows[0].total_packets, 2);
        assert_eq!(flows[1].start, 200);
    }

    #[test]
    fn out_of_order_arrival_within_the_watermark_is_resorted() {
        let mut node = ServeNode::new(cfg());
        // Arrive late-first: the grouper alone would mis-set `start`.
        node.ingest(&pkt(1_500, 9, 0)).unwrap();
        node.ingest(&pkt(1_000, 9, 1)).unwrap();
        let (flows, stats) = node.finish().unwrap();
        assert_eq!(flows.len(), 1);
        assert_eq!(flows[0].start, 1_000, "start must be the true minimum");
        assert_eq!(flows[0].end, 1_500);
        assert_eq!(stats.packets, 2);
    }

    #[test]
    fn late_arrival_is_a_typed_error() {
        let mut node = ServeNode::new(cfg());
        node.ingest(&pkt(5_000, 3, 0)).unwrap();
        node.advance_watermark(4_000).unwrap();
        let err = node.ingest(&pkt(3_999, 3, 1)).unwrap_err();
        assert_eq!(
            err,
            ServeError::LateArrival {
                time: 3_999,
                watermark: 4_000
            }
        );
        // Equal to the watermark is lawful.
        node.ingest(&pkt(4_000, 3, 1)).unwrap();
    }

    #[test]
    fn suggested_watermark_trails_by_the_lag() {
        let mut node = ServeNode::new(ServeConfig {
            watermark_lag_secs: 600,
            ..cfg()
        });
        assert_eq!(node.suggested_watermark(), 0);
        node.ingest(&pkt(10_000, 1, 0)).unwrap();
        assert_eq!(node.suggested_watermark(), 9_400);
    }

    #[test]
    fn gauges_sample_shards_before_they_drain() {
        // A week of packets closed by one epoch close: the shards drain
        // to zero, but the peaks must still see what they held.
        let mut node = ServeNode::new(cfg());
        for i in 0..100u64 {
            node.ingest(&pkt(i * 6_000, (i % 5) as u32, 0)).unwrap();
        }
        let flows = node.close_epoch_at(WEEK_SECS).unwrap();
        assert!(!flows.is_empty());
        let stats = node.stats();
        assert!(stats.peak_open_flows >= 1, "peak_open_flows={}", stats.peak_open_flows);
        assert!(stats.peak_pending >= 1, "peak_pending={}", stats.peak_pending);
        assert!(stats.peak_pending <= 100);
    }

    #[test]
    fn epoch_close_counts_weeks_and_epochs() {
        let mut node = ServeNode::new(cfg());
        node.ingest(&pkt(10, 1, 0)).unwrap();
        let flows = node.close_epoch_at(WEEK_SECS).unwrap();
        assert_eq!(flows.len(), 1);
        node.ingest(&pkt(WEEK_SECS + 5, 2, 0)).unwrap();
        let flows = node.close_epoch_at(2 * WEEK_SECS).unwrap();
        assert_eq!(flows.len(), 1);
        let stats = node.stats();
        assert_eq!(stats.epochs, 2);
        assert_eq!(stats.weeks_closed, 2);
    }
}
