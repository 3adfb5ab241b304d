//! Fault injection for the streaming node: every failure mode must be a
//! *typed* error with a deterministic blast radius — never a silent
//! packet drop, never a partially-corrupt flow set.
//!
//! Covered surfaces:
//! - full intake ring → [`ServeError::Backpressure`], packet not
//!   consumed, nothing lost after a drain-and-retry;
//! - shard worker panic → [`ServeError::ShardPanic`] naming the shard,
//!   node poisoned (every later call is [`ServeError::Poisoned`]).

use booters_netsim::{SensorPacket, UdpProtocol, VictimAddr};
use booters_serve::{RefitPolicy, ServeConfig, ServeError, ServeNode};

fn pkt(time: u64, victim: u32) -> SensorPacket {
    SensorPacket {
        time,
        sensor: 0,
        victim: VictimAddr(victim),
        protocol: UdpProtocol::ALL[0],
        ttl: 64,
        src_port: 0,
    }
}

fn config(shards: usize, queue_capacity: usize) -> ServeConfig {
    ServeConfig {
        shards,
        queue_capacity,
        refit: RefitPolicy {
            enabled: false,
            ..RefitPolicy::default()
        },
        ..ServeConfig::default()
    }
}

#[test]
fn a_full_ring_is_typed_backpressure_and_never_a_silent_drop() {
    let mut node = ServeNode::new(config(1, 2));
    node.offer(&pkt(10, 1)).unwrap();
    node.offer(&pkt(20, 1)).unwrap();
    // Ring full: the offer fails loudly and does NOT consume the packet.
    let err = node.offer(&pkt(30, 1)).unwrap_err();
    assert_eq!(
        err,
        ServeError::Backpressure {
            shard: 0,
            capacity: 2
        }
    );
    assert_eq!(node.stats().packets, 2, "rejected packet was not counted");
    // Relieve the pressure and retry: the same packet goes through.
    node.drain_intake();
    node.offer(&pkt(30, 1)).unwrap();
    let (flows, stats) = node.finish().unwrap();
    assert_eq!(stats.packets, 3);
    let total: u64 = flows.iter().map(|f| f.total_packets).sum();
    assert_eq!(total, 3, "every offered packet reached a flow");
}

#[test]
fn ingest_absorbs_backpressure_deterministically() {
    // A capacity-1 ring through `ingest`: every push after the first
    // hits the full ring, drains it, and retries — the event count is
    // exact, not racy, and no packet is lost.
    let mut node = ServeNode::new(config(1, 1));
    for i in 0..50u64 {
        node.ingest(&pkt(100 + i, 4)).unwrap();
    }
    let stats = node.stats();
    assert_eq!(stats.packets, 50);
    assert_eq!(stats.backpressure_events, 49);
    let (flows, stats) = node.finish().unwrap();
    assert_eq!(flows.len(), 1);
    assert_eq!(flows[0].total_packets, 50);
    assert_eq!(stats.grouped, 50);
}

#[test]
fn a_shard_panic_surfaces_as_a_typed_error_and_poisons_the_node() {
    let mut node = ServeNode::new(ServeConfig {
        fault_panic_shard: Some(1),
        ..config(3, 8)
    });
    for i in 0..12u64 {
        node.ingest(&pkt(i * 10, i as u32)).unwrap();
    }
    // The faulty shard panics mid-advance; the panic is contained and
    // converted, naming the shard.
    let err = node.advance_watermark(200).unwrap_err();
    assert_eq!(err, ServeError::ShardPanic { shard: 1 });
    // The node is poisoned: no API can observe a half-advanced state.
    assert_eq!(node.advance_watermark(300), Err(ServeError::Poisoned));
    assert_eq!(node.offer(&pkt(500, 1)), Err(ServeError::Poisoned));
    assert_eq!(node.close_epoch(), Err(ServeError::Poisoned));
    assert_eq!(node.take_flows(), Err(ServeError::Poisoned));
    assert_eq!(node.finish().unwrap_err(), ServeError::Poisoned);
}

#[test]
fn a_direct_late_arrival_is_typed_and_non_destructive() {
    // A late arrival rejects that packet only: the node stays healthy
    // and later lawful packets still join the flows they belong to.
    let mut node = ServeNode::new(config(2, 8));
    node.ingest(&pkt(2_000, 3)).unwrap();
    node.advance_watermark(1_500).unwrap();
    let err = node.ingest(&pkt(1_000, 3)).unwrap_err();
    assert_eq!(
        err,
        ServeError::LateArrival {
            time: 1_000,
            watermark: 1_500
        }
    );
    node.ingest(&pkt(2_300, 3)).unwrap();
    let (flows, stats) = node.finish().unwrap();
    assert_eq!(stats.packets, 2);
    assert_eq!(stats.late_packets, 1);
    assert_eq!(flows.len(), 1, "2000 and 2300 are 300 s apart: one flow");
    assert_eq!(flows[0].total_packets, 2);
}
