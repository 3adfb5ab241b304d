//! Typed scan predicates and their zone-map pushdown rules.
//!
//! A [`Predicate`] is the conjunction of up to three clauses — a
//! half-open time range, a victim filter, and a protocol set. Each
//! clause knows three things:
//!
//! * how to test one row (via the decoded columns — the row itself is
//!   never needed);
//! * when a chunk's [`ZoneMap`] proves the chunk **cannot** contain a
//!   matching row ([`Predicate::may_match_zone`] returning `false` —
//!   the pruning rule);
//! * when a chunk's zone map proves **every** row in the chunk matches
//!   ([`Predicate::covers_zone`] — the count-without-decode rule).
//!
//! Both zone rules are conservative in the safe direction: pruning may
//! keep a chunk with no matches (the column filter then drops every
//! row), and coverage may decode a chunk that was fully covered — but
//! never the reverse. That asymmetry is the §5h soundness contract.

use booters_netsim::{SensorPacket, UdpProtocol, VictimAddr};
use booters_store::{ChunkColumns, ZoneMap};

/// A set of UDP protocols as a bitmask over [`UdpProtocol::ALL`] indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProtocolSet(u16);

impl ProtocolSet {
    /// The empty set (matches no packet).
    pub fn empty() -> ProtocolSet {
        ProtocolSet(0)
    }

    /// The full set (matches every packet).
    pub fn all() -> ProtocolSet {
        ProtocolSet((1u16 << UdpProtocol::ALL.len()) - 1)
    }

    /// The set holding exactly `protocols`.
    pub fn of(protocols: &[UdpProtocol]) -> ProtocolSet {
        let mut s = ProtocolSet::empty();
        for p in protocols {
            s.insert(*p);
        }
        s
    }

    /// Add one protocol.
    pub fn insert(&mut self, p: UdpProtocol) {
        self.0 |= 1 << p.index();
    }

    /// Membership by protocol.
    pub fn contains(&self, p: UdpProtocol) -> bool {
        self.contains_index(p.index() as u8)
    }

    /// Membership by index into [`UdpProtocol::ALL`] — the form the
    /// decoded protocol column stores.
    fn contains_index(&self, i: u8) -> bool {
        self.0 & (1u16 << i) != 0
    }

    /// Whether no protocol is in the set.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Whether every protocol is in the set.
    pub fn is_full(&self) -> bool {
        self.0 == ProtocolSet::all().0
    }

    /// Number of protocols in the set.
    pub fn len(&self) -> usize {
        self.0.count_ones() as usize
    }
}

/// The victim clause of a [`Predicate`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum VictimFilter {
    /// Any victim (no constraint).
    #[default]
    Any,
    /// Exactly this victim address.
    Exact(VictimAddr),
    /// Any member of this set (kept sorted and deduplicated so both the
    /// row test and the zone test are a binary search).
    Set(Vec<u32>),
    /// Any address in this /24 — the value is the 24-bit prefix
    /// (`addr >> 8`), matching [`VictimAddr::prefix24`].
    Prefix24(u32),
    /// Any address in this inclusive `u32` key range.
    Range(u32, u32),
}

impl VictimFilter {
    /// Row-level test against a raw victim key.
    pub fn matches(&self, v: u32) -> bool {
        match self {
            VictimFilter::Any => true,
            VictimFilter::Exact(a) => a.0 == v,
            VictimFilter::Set(vs) => vs.binary_search(&v).is_ok(),
            VictimFilter::Prefix24(p) => v >> 8 == *p,
            VictimFilter::Range(lo, hi) => (*lo..=*hi).contains(&v),
        }
    }

    /// Could *some* victim accepted by this filter fall inside the zone
    /// map's `[min_victim, max_victim]` envelope?
    fn may_overlap(&self, zone: &ZoneMap) -> bool {
        let (lo, hi) = (zone.min_victim, zone.max_victim);
        match self {
            VictimFilter::Any => true,
            VictimFilter::Exact(a) => zone.may_contain_victim(*a),
            // First set member ≥ lo; the set is sorted, so it is the only
            // candidate that could also be ≤ hi.
            VictimFilter::Set(vs) => match vs.binary_search(&lo) {
                Ok(_) => true,
                Err(i) => vs.get(i).is_some_and(|&v| v <= hi),
            },
            VictimFilter::Prefix24(p) => {
                let base = p << 8;
                base <= hi && (base | 0xFF) >= lo
            }
            VictimFilter::Range(a, b) => *a <= hi && *b >= lo,
        }
    }

    /// Does this filter provably accept *every* victim in the zone map's
    /// envelope? Conservative: `false` is always allowed.
    fn covers(&self, zone: &ZoneMap) -> bool {
        let (lo, hi) = (zone.min_victim, zone.max_victim);
        match self {
            VictimFilter::Any => true,
            VictimFilter::Exact(a) => lo == hi && a.0 == lo,
            VictimFilter::Set(vs) => lo == hi && vs.binary_search(&lo).is_ok(),
            VictimFilter::Prefix24(p) => lo >> 8 == *p && hi >> 8 == *p,
            VictimFilter::Range(a, b) => *a <= lo && hi <= *b,
        }
    }
}

/// A typed scan predicate: the conjunction of a half-open time range, a
/// victim filter, and a protocol set. [`Predicate::all`] matches every
/// packet; the `with_*` builders narrow it.
///
/// ```
/// use booters_netsim::{UdpProtocol, VictimAddr};
/// use booters_query::Predicate;
///
/// let pred = Predicate::all()
///     .with_time(3_600, 7_200)
///     .with_prefix24(VictimAddr::from_octets(25, 1, 2, 99))
///     .with_protocols(&[UdpProtocol::Ntp, UdpProtocol::Dns]);
/// assert!(pred.time.is_some());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Predicate {
    /// Half-open packet-time window `[from, to)`; `None` = all times.
    pub time: Option<(u64, u64)>,
    /// Victim clause.
    pub victim: VictimFilter,
    /// Protocol clause; `None` = all protocols.
    pub protocols: Option<ProtocolSet>,
}

impl Predicate {
    /// The trivial predicate that matches every packet.
    pub fn all() -> Predicate {
        Predicate::default()
    }

    /// Restrict to packet times in `[from, to)`.
    pub fn with_time(mut self, from: u64, to: u64) -> Predicate {
        self.time = Some((from, to));
        self
    }

    /// Restrict to exactly one victim address.
    pub fn with_victim(mut self, v: VictimAddr) -> Predicate {
        self.victim = VictimFilter::Exact(v);
        self
    }

    /// Restrict to a set of victim addresses (sorted and deduplicated
    /// internally; the empty set matches nothing and prunes every chunk).
    pub fn with_victim_set(mut self, vs: &[VictimAddr]) -> Predicate {
        let mut keys: Vec<u32> = vs.iter().map(|v| v.0).collect();
        keys.sort_unstable();
        keys.dedup();
        self.victim = VictimFilter::Set(keys);
        self
    }

    /// Restrict to the /24 containing `v`.
    pub fn with_prefix24(mut self, v: VictimAddr) -> Predicate {
        self.victim = VictimFilter::Prefix24(v.prefix24());
        self
    }

    /// Restrict to the inclusive victim-key range `[lo, hi]`.
    pub fn with_victim_range(mut self, lo: VictimAddr, hi: VictimAddr) -> Predicate {
        self.victim = VictimFilter::Range(lo.0, hi.0);
        self
    }

    /// Restrict to a set of protocols (the empty slice matches nothing).
    pub fn with_protocols(mut self, ps: &[UdpProtocol]) -> Predicate {
        self.protocols = Some(ProtocolSet::of(ps));
        self
    }

    /// Row-level test on the decoded columns at position `i` — the late
    /// materialization filter: no [`SensorPacket`] is built to decide.
    ///
    /// # Panics
    /// If `i >= cols.len()`.
    pub fn matches_at(&self, cols: &ChunkColumns, i: usize) -> bool {
        if let Some((from, to)) = self.time {
            let t = cols.times[i];
            if t < from || t >= to {
                return false;
            }
        }
        if !self.victim.matches(cols.victims[i]) {
            return false;
        }
        if let Some(ps) = &self.protocols {
            if !ps.contains_index(cols.protocols[i]) {
                return false;
            }
        }
        true
    }

    /// Row-level test on a materialized packet — the brute-force oracle
    /// the property suite compares pruned scans against.
    pub fn matches(&self, p: &SensorPacket) -> bool {
        if let Some((from, to)) = self.time {
            if p.time < from || p.time >= to {
                return false;
            }
        }
        if !self.victim.matches(p.victim.0) {
            return false;
        }
        if let Some(ps) = &self.protocols {
            if !ps.contains(p.protocol) {
                return false;
            }
        }
        true
    }

    /// The pushdown rule: could this chunk hold a matching row, judging
    /// by its zone map alone? `false` prunes the chunk — soundness
    /// (§5h) demands that a `false` here implies **no** row in the chunk
    /// matches, which holds because each clause only returns `false`
    /// when its accepted set is disjoint from the zone envelope (and the
    /// zone map is validated against the decoded data on every decode).
    pub fn may_match_zone(&self, zone: &ZoneMap) -> bool {
        if let Some((from, to)) = self.time {
            if !zone.overlaps_time(from, to) {
                return false;
            }
        }
        if !self.victim.may_overlap(zone) {
            return false;
        }
        if let Some(ps) = &self.protocols {
            if ps.is_empty() {
                return false;
            }
        }
        true
    }

    /// The count-without-decode rule: does the zone map prove **every**
    /// row in the chunk matches? Zone maps carry no protocol
    /// information, so any protocol clause short of the full set blocks
    /// coverage. Conservative: `false` never affects correctness, only
    /// cost.
    pub fn covers_zone(&self, zone: &ZoneMap) -> bool {
        if let Some((from, to)) = self.time {
            if !(from <= zone.min_time && zone.max_time < to) {
                return false;
            }
        }
        if !self.victim.covers(zone) {
            return false;
        }
        match &self.protocols {
            None => true,
            Some(ps) => ps.is_full(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn zone(t: (u64, u64), v: (u32, u32)) -> ZoneMap {
        ZoneMap {
            min_time: t.0,
            max_time: t.1,
            min_victim: v.0,
            max_victim: v.1,
        }
    }

    #[test]
    fn protocol_set_membership_and_cardinality() {
        let mut s = ProtocolSet::empty();
        assert!(s.is_empty());
        s.insert(UdpProtocol::Ntp);
        s.insert(UdpProtocol::Dns);
        s.insert(UdpProtocol::Ntp); // idempotent
        assert_eq!(s.len(), 2);
        assert!(s.contains(UdpProtocol::Ntp));
        assert!(!s.contains(UdpProtocol::Ldap));
        assert!(ProtocolSet::all().is_full());
        assert_eq!(ProtocolSet::all().len(), UdpProtocol::ALL.len());
    }

    #[test]
    fn time_clause_prunes_and_covers() {
        let z = zone((100, 200), (0, 10));
        let hit = Predicate::all().with_time(150, 160);
        let miss = Predicate::all().with_time(201, 500);
        let cover = Predicate::all().with_time(100, 201);
        let edge = Predicate::all().with_time(100, 200); // max_time==200 excluded
        assert!(hit.may_match_zone(&z) && !hit.covers_zone(&z));
        assert!(!miss.may_match_zone(&z));
        assert!(cover.may_match_zone(&z) && cover.covers_zone(&z));
        assert!(edge.may_match_zone(&z) && !edge.covers_zone(&z));
    }

    #[test]
    fn victim_set_pruning_uses_the_sorted_envelope() {
        let z = zone((0, 10), (100, 200));
        let inside = Predicate::all().with_victim_set(&[VictimAddr(5), VictimAddr(150)]);
        let below = Predicate::all().with_victim_set(&[VictimAddr(5), VictimAddr(99)]);
        let above = Predicate::all().with_victim_set(&[VictimAddr(201), VictimAddr(300)]);
        let empty = Predicate::all().with_victim_set(&[]);
        assert!(inside.may_match_zone(&z));
        assert!(!below.may_match_zone(&z));
        assert!(!above.may_match_zone(&z));
        assert!(!empty.may_match_zone(&z), "the empty set prunes everything");
    }

    #[test]
    fn prefix_filter_matches_rows_and_zones_consistently(){
        let v = VictimAddr::from_octets(25, 1, 2, 99);
        let pred = Predicate::all().with_prefix24(v);
        assert!(pred.victim.matches(VictimAddr::from_octets(25, 1, 2, 0).0));
        assert!(pred.victim.matches(VictimAddr::from_octets(25, 1, 2, 255).0));
        assert!(!pred.victim.matches(VictimAddr::from_octets(25, 1, 3, 0).0));
        // Straddles the /24 boundary on both sides: overlap, no coverage.
        let straddle = zone((0, 1), (v.0 - 200, v.0 + 200));
        let out_zone = zone((0, 1), (v.0 + 512, v.0 + 1024));
        assert!(pred.may_match_zone(&straddle));
        assert!(!pred.may_match_zone(&out_zone));
        // A zone entirely inside the /24 is covered.
        let tight = zone((0, 1), ((v.0 >> 8) << 8, ((v.0 >> 8) << 8) | 0xFF));
        assert!(pred.covers_zone(&tight));
        assert!(!pred.covers_zone(&straddle));
    }

    #[test]
    fn empty_protocol_set_prunes_every_zone() {
        let z = zone((0, u64::MAX - 1), (0, u32::MAX));
        let pred = Predicate::all().with_protocols(&[]);
        assert!(!pred.may_match_zone(&z));
        let full = Predicate::all().with_protocols(&UdpProtocol::ALL);
        assert!(full.may_match_zone(&z));
        assert!(full.covers_zone(&zone((0, 10), (0, 5))));
        let some = Predicate::all().with_protocols(&[UdpProtocol::Ntp]);
        assert!(some.may_match_zone(&z), "zone maps cannot prune protocols");
        assert!(!some.covers_zone(&zone((0, 10), (0, 5))));
    }

    #[test]
    fn range_filter_is_inclusive_on_both_ends() {
        let pred = Predicate::all().with_victim_range(VictimAddr(10), VictimAddr(20));
        assert!(pred.victim.matches(10) && pred.victim.matches(20));
        assert!(!pred.victim.matches(9) && !pred.victim.matches(21));
        assert!(pred.may_match_zone(&zone((0, 1), (20, 30))));
        assert!(!pred.may_match_zone(&zone((0, 1), (21, 30))));
        assert!(pred.covers_zone(&zone((0, 1), (10, 20))));
        assert!(!pred.covers_zone(&zone((0, 1), (10, 21))));
    }
}
