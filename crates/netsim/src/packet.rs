//! Packet records: what honeypot sensors log.
//!
//! Timestamps are seconds since the scenario start (the market simulator
//! anchors second 0 to a calendar date). We record what the paper's
//! sensors record: per incoming spoofed packet, the (spoofed) source —
//! i.e. the victim — the protocol, and the arrival time.

use crate::addr::VictimAddr;
use crate::protocol::UdpProtocol;

/// One packet as logged by a honeypot sensor — the unit record of the
/// paper's victim dataset.
///
/// Besides the victim/protocol/time triple the paper's analysis uses,
/// sensors log the attributes Krupp et al. (RAID 2017, cited in §5) used
/// to attribute attacks to booters: the received TTL (initial TTL minus
/// the path length from the attack server, a stable per-booter
/// fingerprint) and the spoofed source port (fixed for some booter
/// stressers, randomised for others — the "victim port entropy" feature).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SensorPacket {
    /// Arrival time, seconds since scenario start.
    pub time: u64,
    /// Sensor that logged the packet.
    pub sensor: u32,
    /// The spoofed source (= victim) address.
    pub victim: VictimAddr,
    /// Protocol.
    pub protocol: UdpProtocol,
    /// Received IP TTL.
    pub ttl: u8,
    /// Spoofed source port (the port amplified traffic will hit).
    pub src_port: u16,
}

/// One command's sensor log in compact form: what the fleet replay and
/// flow grouping need of it, without the per-packet TTL and source port.
///
/// The command starts at `start`. Its *k*-th packet on `honeypots[pos]`
/// arrives `offsets[pos · logged + k]` seconds later, for every honeypot
/// and `k < logged` (generation order: honeypot by honeypot, slot by
/// slot). The engine's generator keeps each honeypot's offsets
/// non-decreasing in `k` and its honeypot ids distinct (DESIGN.md §5k);
/// the replay and grouping kernels rely on both, and check them with
/// [`CommandLog::is_well_formed`] in debug builds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommandLog {
    /// Command start time, seconds since scenario start.
    pub start: u64,
    /// The spoofed source (= victim) address.
    pub victim: VictimAddr,
    /// Protocol.
    pub protocol: UdpProtocol,
    /// The booter's honeypot list, in list order.
    pub honeypots: std::sync::Arc<[u32]>,
    /// Arrival offsets from `start`, honeypot-major.
    pub offsets: Vec<u32>,
}

impl CommandLog {
    /// Each honeypot with its packets' offsets, in list order. Empty
    /// when the log holds no packet.
    pub fn runs(&self) -> impl Iterator<Item = (u32, &[u32])> + '_ {
        let logged = self.offsets.len() / self.honeypots.len().max(1);
        self.honeypots
            .iter()
            .copied()
            .zip(self.offsets.chunks_exact(logged.max(1)))
    }

    /// True when every honeypot has the same number of packets, the
    /// honeypot ids are distinct and each honeypot's offsets never
    /// decrease: the shape the replay and grouping kernels assume.
    pub fn is_well_formed(&self) -> bool {
        let mut ids = self.honeypots.to_vec();
        ids.sort_unstable();
        let logged = self.offsets.len() / self.honeypots.len().max(1);
        self.offsets.len() == logged * self.honeypots.len()
            && ids.windows(2).all(|w| w[0] != w[1])
            && self
                .runs()
                .all(|(_, run)| run.windows(2).all(|w| w[0] <= w[1]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sensor_packet_is_small_and_copyable() {
        // The observation stream is huge; keep the record compact.
        assert!(std::mem::size_of::<SensorPacket>() <= 24);
    }
}
