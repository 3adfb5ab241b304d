//! Flow grouping and attack/scan classification — the paper's exact rules.
//!
//! §3: "we group flows of packets to the same victim IP or prefix for the
//! same protocol until there is a gap of at least 15 minutes with no
//! packets being received by any sensor. We then check to see if any
//! sensor received more than 5 packets. If so then we deem it an attack,
//! if not then we classify the event as a scan."

use crate::addr::VictimAddr;
use crate::packet::{CommandLog, SensorPacket};
use crate::protocol::UdpProtocol;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

/// The flow-closing gap: 15 minutes, in seconds.
pub const FLOW_GAP_SECS: u64 = 15 * 60;

/// Attack threshold: a flow is an attack when some sensor saw more than
/// this many packets.
pub const ATTACK_PACKET_THRESHOLD: u32 = 5;

/// A closed flow of packets to one victim/protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Flow {
    /// Victim address.
    pub victim: VictimAddr,
    /// Protocol.
    pub protocol: UdpProtocol,
    /// First packet time (seconds since scenario start).
    pub start: u64,
    /// Last packet time.
    pub end: u64,
    /// Total packets across all sensors.
    pub total_packets: u64,
    /// Packets per sensor id.
    pub per_sensor: HashMap<u32, u32>,
}

impl Flow {
    /// Duration in seconds (0 for single-packet flows).
    pub fn duration_secs(&self) -> u64 {
        self.end - self.start
    }

    /// Largest per-sensor packet count.
    pub fn max_sensor_packets(&self) -> u32 {
        self.per_sensor.values().copied().max().unwrap_or(0)
    }

    /// Classify per the paper's rule.
    pub fn classify(&self) -> FlowClass {
        if self.max_sensor_packets() > ATTACK_PACKET_THRESHOLD {
            FlowClass::Attack
        } else {
            FlowClass::Scan
        }
    }
}

/// Attack or scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowClass {
    /// Some sensor saw more than [`ATTACK_PACKET_THRESHOLD`] packets.
    Attack,
    /// Low-intensity event: reflector discovery or noise.
    Scan,
}

/// Hasher for the grouping and fleet maps: one splitmix64 finaliser per
/// written word instead of SipHash's per-lookup setup. Flow keys, victims
/// and sensor ids come from the simulator or from decoded store chunks,
/// not from an attacker, so DoS-resistant hashing buys nothing on these
/// per-packet paths; and every grouped output is put in canonical order
/// ([`sort_flows`]) or compared as a map, and no fleet map is iterated
/// into an output, so the hasher never changes a result.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct SplitMixHasher(u64);

impl std::hash::Hasher for SplitMixHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    // A derived `Hash` on a field-less enum such as `UdpProtocol` writes
    // its discriminant as an `isize`: one round, not eight byte rounds.
    fn write_isize(&mut self, v: isize) {
        self.write_u64(v as u64);
    }

    fn write_u64(&mut self, v: u64) {
        // splitmix64 finaliser: full avalanche, so both the bucket bits
        // and hashbrown's control bits are well distributed.
        let mut z = self.0 ^ v.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.0 = z ^ (z >> 31);
    }
}

/// Per-sensor packet counts of an open flow, keyed with
/// [`SplitMixHasher`]. Memory follows the number of distinct sensors,
/// never the size of their ids. A flow's counts become the public
/// [`Flow::per_sensor`] map once, when it closes.
type SensorCounts = HashMap<u32, u32, BuildHasherDefault<SplitMixHasher>>;

/// A flow still taking packets: the paper's gap rule and per-sensor
/// aggregation, shared by [`FlowGrouper`] and [`KeyedGrouper`].
#[derive(Debug)]
struct OpenFlow {
    victim: VictimAddr,
    protocol: UdpProtocol,
    start: u64,
    end: u64,
    total: u64,
    per_sensor: SensorCounts,
}

impl OpenFlow {
    /// Open a flow at packet `p`; `victim` is `p`'s victim under the
    /// grouper's [`VictimKey`].
    fn open(victim: VictimAddr, p: &SensorPacket) -> OpenFlow {
        let mut per_sensor = SensorCounts::default();
        per_sensor.insert(p.sensor, 1);
        OpenFlow {
            victim,
            protocol: p.protocol,
            start: p.time,
            end: p.time,
            total: 1,
            per_sensor,
        }
    }

    /// Add `p` (keyed victim `victim`) if it continues this flow: same
    /// victim and protocol, and less than [`FLOW_GAP_SECS`] after the
    /// flow's last packet. Returns false, leaving the flow as it was,
    /// when `p` must start a new flow instead.
    fn try_push(&mut self, victim: VictimAddr, p: &SensorPacket) -> bool {
        if victim != self.victim
            || p.protocol != self.protocol
            || p.time.saturating_sub(self.end) >= FLOW_GAP_SECS
        {
            return false;
        }
        self.end = self.end.max(p.time);
        self.total += 1;
        *self.per_sensor.entry(p.sensor).or_insert(0) += 1;
        true
    }

    /// The closed flow.
    fn close(self) -> Flow {
        Flow {
            victim: self.victim,
            protocol: self.protocol,
            start: self.start,
            end: self.end,
            total_packets: self.total,
            per_sensor: self.per_sensor.into_iter().collect(),
        }
    }
}

/// The flows of command logs that share one grouping key — `victim`, the
/// canonical victim under the grouper's [`VictimKey`], and `protocol` —
/// in time order: exactly [`FlowGrouper`]'s flows over the logs' packets
/// in time order.
///
/// The gap rule and the per-sensor counts depend only on the multiset of
/// `(time, sensor)`, so the packets need no order. Packets that span
/// less than [`FLOW_GAP_SECS`] are one flow. Otherwise each packet falls
/// in a [`FLOW_GAP_SECS`]-wide bucket of the span: two times in one
/// bucket are closer than the gap, so the flows can only break between
/// one non-empty bucket's last time and the next one's first, and each
/// bucket's least and largest time give every flow bound (DESIGN.md §5k).
///
/// Each log's honeypot ids must be distinct and each honeypot's offsets
/// non-decreasing, as [`CommandLog`] documents; debug builds check both.
pub(crate) fn group_logs(
    victim: VictimAddr,
    protocol: UdpProtocol,
    logs: &[&CommandLog],
) -> Vec<Flow> {
    let Some(base) = logs
        .iter()
        .filter(|l| !l.offsets.is_empty())
        .map(|l| l.start)
        .min()
    else {
        return Vec::new();
    };
    // Each honeypot's packets as `(sensor, shift, offsets)`: their times
    // from `base` are `shift + offset`, never decreasing, so a run's first
    // is its least and its last its largest.
    let runs = || {
        logs.iter().flat_map(move |l| {
            l.runs()
                .map(move |(sensor, run)| (sensor, l.start - base, run))
        })
    };
    debug_assert!(logs.iter().all(|l| l.is_well_formed()));
    let (first, last) = runs().fold((u64::MAX, 0), |(first, last), (_, shift, run)| {
        (
            first.min(shift + run[0] as u64),
            last.max(shift + run[run.len() - 1] as u64),
        )
    });
    let mut bounds: Vec<(u64, u64)> = Vec::new();
    let mut extend = |t: u64| match bounds.last_mut() {
        Some((_, end)) if t - *end < FLOW_GAP_SECS => *end = t,
        _ => bounds.push((t, t)),
    };
    if last - first < FLOW_GAP_SECS {
        // No gap fits in the span: one flow.
        extend(first);
        extend(last);
    } else {
        let mut buckets = vec![(u64::MAX, 0); ((last - first) / FLOW_GAP_SECS) as usize + 1];
        for (_, shift, run) in runs() {
            for &offset in run {
                let t = shift + offset as u64;
                let (least, largest) = &mut buckets[((t - first) / FLOW_GAP_SECS) as usize];
                *least = (*least).min(t);
                *largest = (*largest).max(t);
            }
        }
        for &(least, largest) in buckets.iter().filter(|b| b.0 != u64::MAX) {
            extend(least);
            extend(largest);
        }
    }
    // A single flow holds every honeypot, the common case.
    let sensors = if bounds.len() == 1 { runs().count() } else { 0 };
    let mut flows: Vec<Flow> = bounds
        .into_iter()
        .map(|(start, end)| Flow {
            victim,
            protocol,
            start: base + start,
            end: base + end,
            total_packets: 0,
            per_sensor: HashMap::with_capacity(sensors),
        })
        .collect();
    for (sensor, shift, run) in runs() {
        if let [flow] = flows.as_mut_slice() {
            flow.total_packets += run.len() as u64;
            *flow.per_sensor.entry(sensor).or_insert(0) += run.len() as u32;
            continue;
        }
        for &offset in run {
            let time = base + shift + offset as u64;
            let i = flows.partition_point(|f| f.start <= time) - 1;
            let flow = &mut flows[i];
            flow.total_packets += 1;
            *flow.per_sensor.entry(sensor).or_insert(0) += 1;
        }
    }
    flows
}

/// Grouper for a stream whose packets arrive key by key: each
/// `(canonical victim, protocol)` key's packets contiguous and in
/// non-decreasing time order, as in a key-sorted store run. It holds at most one open flow and swaps
/// it out when the key changes or the 15-minute gap closes it, so it
/// needs no per-packet lookup of the flow key. On such a stream its
/// flows are exactly [`FlowGrouper`]'s: both run one definition of the
/// gap rule and per-sensor aggregation.
#[derive(Debug)]
pub struct KeyedGrouper {
    key: VictimKey,
    current: Option<OpenFlow>,
    flows: Vec<Flow>,
}

impl KeyedGrouper {
    /// New empty grouper with the given victim keying rule.
    pub fn new(key: VictimKey) -> KeyedGrouper {
        KeyedGrouper {
            key,
            current: None,
            flows: Vec::new(),
        }
    }

    /// Push the next packet of the stream.
    pub fn push(&mut self, p: &SensorPacket) {
        let victim = self.key.canonical(p.victim);
        if !self.current.as_mut().is_some_and(|f| f.try_push(victim, p)) {
            if let Some(old) = self.current.replace(OpenFlow::open(victim, p)) {
                self.flows.push(old.close());
            }
        }
    }

    /// Close the open flow and return every flow, in stream order.
    pub fn finish(mut self) -> Vec<Flow> {
        if let Some(f) = self.current.take() {
            self.flows.push(f.close());
        }
        self.flows
    }
}

/// How victims are keyed when grouping flows — the paper groups "to the
/// same victim IP or prefix".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VictimKey {
    /// Exact victim address (default).
    #[default]
    ByIp,
    /// /24 prefix — collapses carpet-bombing attacks that rotate the last
    /// octet into a single flow.
    ByPrefix24,
}

impl VictimKey {
    /// The address actually used as the grouping key: the victim itself
    /// for [`VictimKey::ByIp`], the /24 network address for
    /// [`VictimKey::ByPrefix24`]. Exposed so out-of-core groupers
    /// (booters-store) can partition by exactly the key the grouper uses.
    pub fn canonical(&self, v: VictimAddr) -> VictimAddr {
        match self {
            VictimKey::ByIp => v,
            VictimKey::ByPrefix24 => VictimAddr(v.prefix24() << 8),
        }
    }
}

/// Streaming flow grouper. Packets must be pushed in non-decreasing time
/// order (the engine produces them that way); out-of-order input within a
/// flow is tolerated but a stale packet cannot reopen a closed flow.
#[derive(Debug, Default)]
pub struct FlowGrouper {
    /// Open flows by [`flow_key`].
    open: HashMap<u64, OpenFlow, BuildHasherDefault<SplitMixHasher>>,
    closed: Vec<Flow>,
    key: VictimKey,
}

/// One word per `(victim, protocol)` grouping key, so an open-flow lookup
/// hashes a single `u64`.
fn flow_key(victim: VictimAddr, protocol: UdpProtocol) -> u64 {
    (victim.0 as u64) << 8 | protocol.index() as u64
}

impl FlowGrouper {
    /// New empty grouper keyed by exact victim IP.
    pub fn new() -> FlowGrouper {
        FlowGrouper::default()
    }

    /// New grouper with an explicit victim keying rule.
    pub fn with_key(key: VictimKey) -> FlowGrouper {
        FlowGrouper {
            key,
            ..FlowGrouper::default()
        }
    }

    /// Number of currently open flows.
    pub fn open_flows(&self) -> usize {
        self.open.len()
    }

    /// Push one packet.
    pub fn push(&mut self, p: &SensorPacket) {
        let victim = self.key.canonical(p.victim);
        match self.open.entry(flow_key(victim, p.protocol)) {
            Entry::Occupied(mut e) => {
                let flow = e.get_mut();
                if !flow.try_push(victim, p) {
                    // Gap exceeded: close the old flow, open a new one.
                    let old = std::mem::replace(flow, OpenFlow::open(victim, p));
                    self.closed.push(old.close());
                }
            }
            Entry::Vacant(e) => {
                e.insert(OpenFlow::open(victim, p));
            }
        }
    }

    /// Close every open flow whose last packet is at least the gap before
    /// `now`, releasing memory on long runs. Returns how many were closed.
    pub fn flush_before(&mut self, now: u64) -> usize {
        let before = self.closed.len();
        let stale = self
            .open
            .extract_if(|_, f| now.saturating_sub(f.end) >= FLOW_GAP_SECS);
        self.closed.extend(stale.map(|(_, f)| f.close()));
        self.closed.len() - before
    }

    /// Drain flows closed so far.
    pub fn take_closed(&mut self) -> Vec<Flow> {
        std::mem::take(&mut self.closed)
    }

    /// Close everything and return all remaining flows.
    pub fn finish(mut self) -> Vec<Flow> {
        self.closed.extend(self.open.into_values().map(OpenFlow::close));
        self.closed
    }
}

/// Sort flows into the canonical, scheduler-independent order:
/// `(start, victim, protocol, end)`. The tuple is unique per flow — two
/// flows of the same key are separated by at least [`FLOW_GAP_SECS`], and
/// flows of different keys differ in victim or protocol — so the result
/// is one total order regardless of how the flows were produced.
///
/// A stable comparison sort on that tuple: a full-packet week groups
/// about four flows, and a radix sort lost even at 329 (DESIGN.md §5f).
pub fn sort_flows(flows: &mut [Flow]) {
    flows.sort_by_key(|f| (f.start, f.victim.0, f.protocol.index(), f.end));
}

/// Group a packet trace into flows in the canonical order.
///
/// Packets must be in non-decreasing time order (as
/// [`FlowGrouper::push`] requires). One [`FlowGrouper`] groups the
/// trace, exactly like [`classify_flows`], and [`sort_flows`] puts the
/// flows in their canonical order, so the result is a pure function of
/// the trace.
///
/// The trace is grouped on the calling thread at every thread count:
/// splitting it by key across the pool copies every packet into a
/// per-shard bucket first, which costs more than the grouping it would
/// spread out (DESIGN.md §5b).
pub fn group_flows_par(packets: &[SensorPacket], key: VictimKey) -> Vec<Flow> {
    let mut grouper = FlowGrouper::with_key(key);
    for p in packets {
        grouper.push(p);
    }
    let mut flows = grouper.finish();
    sort_flows(&mut flows);
    flows
}

/// Group a complete packet trace and classify each flow.
pub fn classify_flows(packets: &[SensorPacket]) -> Vec<(Flow, FlowClass)> {
    let mut grouper = FlowGrouper::new();
    for p in packets {
        grouper.push(p);
    }
    grouper
        .finish()
        .into_iter()
        .map(|f| {
            let class = f.classify();
            (f, class)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(time: u64, sensor: u32, victim_d: u8, protocol: UdpProtocol) -> SensorPacket {
        SensorPacket {
            time,
            sensor,
            victim: VictimAddr::from_octets(25, 0, 0, victim_d),
            protocol,
            ttl: 54,
            src_port: 80,
        }
    }

    #[test]
    fn single_flow_groups_contiguous_packets() {
        let packets: Vec<_> = (0..10).map(|i| pkt(i * 60, 0, 1, UdpProtocol::Ntp)).collect();
        let flows = classify_flows(&packets);
        assert_eq!(flows.len(), 1);
        assert_eq!(flows[0].0.total_packets, 10);
        assert_eq!(flows[0].1, FlowClass::Attack); // 10 > 5 on sensor 0
    }

    #[test]
    fn gap_splits_flows() {
        let mut packets: Vec<_> = (0..6).map(|i| pkt(i * 10, 0, 1, UdpProtocol::Ntp)).collect();
        // Second burst 20 minutes after the last packet of the first.
        let resume = packets.last().unwrap().time + FLOW_GAP_SECS + 300;
        packets.extend((0..6).map(|i| pkt(resume + i * 10, 0, 1, UdpProtocol::Ntp)));
        let flows = classify_flows(&packets);
        assert_eq!(flows.len(), 2);
    }

    #[test]
    fn gap_just_under_15_minutes_keeps_flow_open() {
        let packets = vec![
            pkt(0, 0, 1, UdpProtocol::Dns),
            pkt(FLOW_GAP_SECS - 1, 0, 1, UdpProtocol::Dns),
        ];
        let flows = classify_flows(&packets);
        assert_eq!(flows.len(), 1);
    }

    #[test]
    fn gap_of_exactly_15_minutes_closes_flow() {
        let packets = vec![
            pkt(0, 0, 1, UdpProtocol::Dns),
            pkt(FLOW_GAP_SECS, 0, 1, UdpProtocol::Dns),
        ];
        let flows = classify_flows(&packets);
        assert_eq!(flows.len(), 2);
    }

    #[test]
    fn scan_classification_below_threshold() {
        // 5 packets on one sensor is NOT an attack ("more than 5").
        let packets: Vec<_> = (0..5).map(|i| pkt(i, 0, 1, UdpProtocol::Ssdp)).collect();
        let flows = classify_flows(&packets);
        assert_eq!(flows[0].1, FlowClass::Scan);
        // 6 packets is.
        let packets: Vec<_> = (0..6).map(|i| pkt(i, 0, 1, UdpProtocol::Ssdp)).collect();
        let flows = classify_flows(&packets);
        assert_eq!(flows[0].1, FlowClass::Attack);
    }

    #[test]
    fn spread_across_sensors_stays_scan() {
        // 12 packets but max 2 per sensor: the per-sensor rule calls it a
        // scan (the paper's threshold is per sensor, not total).
        let packets: Vec<_> = (0..12).map(|i| pkt(i, (i % 6) as u32, 1, UdpProtocol::Ntp)).collect();
        let flows = classify_flows(&packets);
        assert_eq!(flows[0].0.total_packets, 12);
        assert_eq!(flows[0].0.max_sensor_packets(), 2);
        assert_eq!(flows[0].1, FlowClass::Scan);
    }

    #[test]
    fn different_victims_and_protocols_are_separate_flows() {
        let packets = vec![
            pkt(0, 0, 1, UdpProtocol::Ntp),
            pkt(1, 0, 2, UdpProtocol::Ntp),
            pkt(2, 0, 1, UdpProtocol::Dns),
        ];
        let flows = classify_flows(&packets);
        assert_eq!(flows.len(), 3);
    }

    #[test]
    fn flush_before_closes_stale_flows_only() {
        let mut g = FlowGrouper::new();
        g.push(&pkt(0, 0, 1, UdpProtocol::Ntp));
        g.push(&pkt(100, 0, 2, UdpProtocol::Ntp));
        assert_eq!(g.open_flows(), 2);
        let closed = g.flush_before(FLOW_GAP_SECS + 50);
        assert_eq!(closed, 1); // only victim 1's flow is stale
        assert_eq!(g.open_flows(), 1);
        assert_eq!(g.take_closed().len(), 1);
    }

    #[test]
    fn flow_duration_and_bounds() {
        let packets = vec![pkt(100, 0, 1, UdpProtocol::Ldap), pkt(400, 1, 1, UdpProtocol::Ldap)];
        let flows = classify_flows(&packets);
        let f = &flows[0].0;
        assert_eq!(f.start, 100);
        assert_eq!(f.end, 400);
        assert_eq!(f.duration_secs(), 300);
    }

    #[test]
    fn empty_input_yields_no_flows() {
        assert!(classify_flows(&[]).is_empty());
    }

    #[test]
    fn prefix_grouping_merges_carpet_bombing() {
        // Carpet-bombing: rotate the last octet within one /24.
        let packets: Vec<SensorPacket> = (0..12u64)
            .map(|i| SensorPacket {
                time: i,
                sensor: 0,
                victim: VictimAddr::from_octets(25, 0, 0, (i % 12) as u8),
                protocol: UdpProtocol::Ntp,
                ttl: 54,
                src_port: 80,
            })
            .collect();
        // By IP: 12 single-packet scans.
        let mut by_ip = FlowGrouper::new();
        for p in &packets {
            by_ip.push(p);
        }
        assert_eq!(by_ip.finish().len(), 12);
        // By /24: one 12-packet attack flow.
        let mut by_prefix = FlowGrouper::with_key(VictimKey::ByPrefix24);
        for p in &packets {
            by_prefix.push(p);
        }
        let flows = by_prefix.finish();
        assert_eq!(flows.len(), 1);
        assert_eq!(flows[0].total_packets, 12);
        assert_eq!(flows[0].classify(), FlowClass::Attack);
    }

    /// A busy mixed trace: several victims and protocols, bursts and
    /// gaps, built deterministically.
    fn mixed_trace() -> Vec<SensorPacket> {
        let mut t = Vec::new();
        for v in 0..24u8 {
            let proto = UdpProtocol::ALL[v as usize % UdpProtocol::ALL.len()];
            let base = (v as u64 % 5) * 40;
            // First burst: enough on one sensor to classify as attack for
            // even victims, spread thin for odd ones.
            for i in 0..8u64 {
                let sensor = if v % 2 == 0 { 0 } else { i as u32 };
                t.push(pkt(base + i * 30, sensor, v, proto));
            }
            // Second burst after a closing gap.
            for i in 0..3u64 {
                t.push(pkt(base + 8 * 30 + FLOW_GAP_SECS + i * 20, 1, v, proto));
            }
        }
        t.sort_by_key(|p| p.time);
        t
    }

    #[test]
    fn group_flows_par_is_classify_flows_in_canonical_order() {
        let trace = mixed_trace();
        let mut plain: Vec<Flow> = classify_flows(&trace).into_iter().map(|(f, _)| f).collect();
        sort_flows(&mut plain);
        assert_eq!(group_flows_par(&trace, VictimKey::ByIp), plain);
    }

    #[test]
    fn parallel_grouping_respects_victim_key() {
        // Carpet-bombing trace: by-prefix must merge, by-IP must not.
        let packets: Vec<SensorPacket> = (0..12u64)
            .map(|i| SensorPacket {
                time: i,
                sensor: 0,
                victim: VictimAddr::from_octets(25, 0, 0, (i % 12) as u8),
                protocol: UdpProtocol::Ntp,
                ttl: 54,
                src_port: 80,
            })
            .collect();
        booters_par::with_threads(4, || {
            assert_eq!(group_flows_par(&packets, VictimKey::ByIp).len(), 12);
            let merged = group_flows_par(&packets, VictimKey::ByPrefix24);
            assert_eq!(merged.len(), 1);
            assert_eq!(merged[0].classify(), FlowClass::Attack);
        });
    }

    #[test]
    fn prefix_grouping_keeps_distinct_prefixes_apart() {
        let packets = vec![
            SensorPacket {
                time: 0,
                sensor: 0,
                victim: VictimAddr::from_octets(25, 0, 0, 1),
                protocol: UdpProtocol::Dns,
                ttl: 54,
                src_port: 80,
            },
            SensorPacket {
                time: 1,
                sensor: 0,
                victim: VictimAddr::from_octets(25, 0, 1, 1),
                protocol: UdpProtocol::Dns,
                ttl: 54,
                src_port: 80,
            },
        ];
        let mut g = FlowGrouper::with_key(VictimKey::ByPrefix24);
        for p in &packets {
            g.push(p);
        }
        assert_eq!(g.finish().len(), 2);
    }
}
