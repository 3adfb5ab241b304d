//! One intake shard: ring queue → pending buffer → incremental grouper.
//!
//! The shard owns every packet whose canonical victim/protocol key
//! hashes to it, so its [`FlowGrouper`] sees a complete, self-contained
//! sub-stream — flows never span shards. Arrivals may be out of order
//! *within the watermark bounds*; the shard restores time order before
//! the grouper sees them:
//!
//! 1. `drain_ring` moves queued packets into the pending buffer in
//!    arrival (FIFO) order.
//! 2. `advance(w)` extracts the ripe prefix (`time < w`), stable-sorts
//!    it by time, pushes it, then expires every flow with
//!    `end ≤ w − FLOW_GAP_SECS`.
//!
//! Because the caller promises no future packet has `time < w`, each
//! advance's batch is entirely ≥ the previous watermark and entirely
//! < the new one: concatenated, the grouper receives a globally
//! time-nondecreasing stream — exactly the batch path's input shape —
//! so the closed flows are identical to batch grouping (DESIGN.md §5g).

use booters_netsim::flow::{Flow, FlowGrouper, VictimKey};
use booters_netsim::SensorPacket;

use crate::ring::RingQueue;

/// What one watermark advance did inside a shard, reported back so the
/// node can aggregate deterministic totals.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ShardProgress {
    /// Packets fed to the grouper by this advance.
    pub grouped: u64,
    /// Flows expired by this advance.
    pub closed: usize,
    /// Open flows once the ripe packets are grouped, before the expiry
    /// sweep: the advance's peak (a push never lowers the count).
    pub open: usize,
    /// Packets buffered (queued + pending) when the advance began,
    /// before the ripe prefix was taken.
    pub pending: usize,
}

#[derive(Debug)]
pub(crate) struct Shard {
    ring: RingQueue,
    /// Arrivals not yet grouped, in arrival order; every time is ≥ the
    /// node's current watermark.
    pending: Vec<SensorPacket>,
    grouper: FlowGrouper,
    /// Closed flows awaiting collection by the node.
    closed: Vec<Flow>,
    /// Deliberate fault injection: when set, the next advance panics
    /// mid-drain (exercises the typed `ShardPanic` surface in tests).
    fault_panic: bool,
}

impl Shard {
    pub fn new(key: VictimKey, queue_capacity: usize, fault_panic: bool) -> Shard {
        Shard {
            ring: RingQueue::with_capacity(queue_capacity),
            pending: Vec::new(),
            grouper: FlowGrouper::with_key(key),
            closed: Vec::new(),
            fault_panic,
        }
    }

    pub fn ring_mut(&mut self) -> &mut RingQueue {
        &mut self.ring
    }

    /// Move every queued packet into the pending buffer (FIFO order).
    pub fn drain_ring(&mut self) {
        self.ring.drain_into(&mut self.pending);
    }

    /// Group everything ripe under watermark `w` and expire flows that
    /// can no longer be extended.
    pub fn advance(&mut self, w: u64) -> ShardProgress {
        if self.fault_panic {
            panic!("injected shard fault");
        }
        self.drain_ring();
        let buffered = self.pending.len();
        let mut ripe: Vec<SensorPacket> = Vec::new();
        self.pending.retain(|p| {
            if p.time < w {
                ripe.push(*p);
                false
            } else {
                true
            }
        });
        // Stable by time: equal-time packets keep arrival order, and the
        // watermark contract makes the concatenation of all batches
        // globally time-nondecreasing.
        ripe.sort_by_key(|p| p.time);
        for p in &ripe {
            self.grouper.push(p);
        }
        let open = self.grouper.open_flows();
        self.grouper.flush_before(w);
        // Count what the grouper actually handed over: pushes close flows
        // too (gap exceeded on the same key), not just the expiry sweep.
        let mut newly_closed = self.grouper.take_closed();
        let closed = newly_closed.len();
        self.closed.append(&mut newly_closed);
        ShardProgress {
            grouped: ripe.len() as u64,
            closed,
            open,
            pending: buffered,
        }
    }

    /// Close *everything*: group all pending packets regardless of the
    /// watermark and expire every open flow. Used at epoch (week) ends,
    /// where the batch path also groups each week in isolation.
    pub fn close_all(&mut self) -> ShardProgress {
        self.advance(u64::MAX)
    }

    /// Hand the accumulated closed flows to the node.
    pub fn take_closed(&mut self) -> Vec<Flow> {
        std::mem::take(&mut self.closed)
    }
}
