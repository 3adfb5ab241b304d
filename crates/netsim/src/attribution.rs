//! Attack attribution — linking observed flows back to booters.
//!
//! Krupp et al. (RAID 2017, cited in the paper's §5) attributed
//! amplification attacks to specific booters "with a precision of 99% and
//! recall of 69% using a k-NN classifier using the set of honeypots used
//! in the attack, the TTL values, and the victim port entropy". This
//! module reproduces that pipeline on the simulator: every booter's
//! attack infrastructure has a stable fingerprint (path-dependent TTL,
//! source-port strategy, reflector working set), flows are reduced to the
//! same three features, and a k-NN classifier trained on "purchased"
//! (ground-truth-labelled) attacks attributes the rest.

use crate::packet::SensorPacket;
use booters_testkit::Rng;
use std::collections::BTreeSet;

/// Stable per-booter transmission fingerprint.
///
/// Derived deterministically from the booter id (the attack servers do not
/// move between attacks): an initial TTL from the server OS, a hop count
/// from its network position, and a source-port strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BooterFingerprint {
    /// Initial TTL at the attack server (64, 128 or 255 by OS family).
    pub initial_ttl: u8,
    /// Path length from the attack server to the reflector population.
    pub hops: u8,
    /// Fixed spoofed source port, or `None` for per-packet random ports.
    pub fixed_port: Option<u16>,
}

/// SplitMix64 — a tiny deterministic hash for id → fingerprint.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl BooterFingerprint {
    /// The fingerprint of a booter id.
    pub fn for_booter(id: u32) -> BooterFingerprint {
        let h = splitmix(id as u64 + 1);
        let initial_ttl = match h % 3 {
            0 => 64,
            1 => 128,
            _ => 255,
        };
        let hops = 8 + ((h >> 8) % 16) as u8; // 8..23 hops
        // Roughly half of booter stressers use a fixed source port.
        let fixed_port = if (h >> 16).is_multiple_of(2) {
            Some(1024 + ((h >> 24) % 50_000) as u16)
        } else {
            None
        };
        BooterFingerprint {
            initial_ttl,
            hops,
            fixed_port,
        }
    }

    /// TTL a sensor observes: initial minus hops, with ±1 path jitter.
    pub fn observed_ttl<R: Rng + ?Sized>(&self, rng: &mut R) -> u8 {
        let base = self.initial_ttl.saturating_sub(self.hops);
        let jitter: i8 = rng.gen_range(-1..=1);
        base.saturating_add_signed(jitter)
    }

    /// Spoofed source port for one packet.
    pub fn source_port<R: Rng + ?Sized>(&self, rng: &mut R) -> u16 {
        match self.fixed_port {
            Some(p) => p,
            None => rng.gen_range(1024..u16::MAX),
        }
    }
}

/// The three Krupp et al. features of one flow.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowFeatures {
    /// Set of honeypot sensors that saw the flow.
    pub sensors: BTreeSet<u32>,
    /// Median observed TTL.
    pub median_ttl: f64,
    /// Shannon entropy of the spoofed source ports, in bits.
    pub port_entropy: f64,
}

impl FlowFeatures {
    /// Extract features from the packets of one flow.
    pub fn from_packets(packets: &[SensorPacket]) -> Option<FlowFeatures> {
        if packets.is_empty() {
            return None;
        }
        let sensors: BTreeSet<u32> = packets.iter().map(|p| p.sensor).collect();
        let mut ttls: Vec<u8> = packets.iter().map(|p| p.ttl).collect();
        ttls.sort_unstable();
        let median_ttl = ttls[ttls.len() / 2] as f64;
        // Port entropy over the empirical distribution.
        let mut counts = std::collections::HashMap::new();
        for p in packets {
            *counts.entry(p.src_port).or_insert(0usize) += 1;
        }
        let n = packets.len() as f64;
        let port_entropy = -counts
            .values()
            .map(|&c| {
                let p = c as f64 / n;
                p * p.log2()
            })
            .sum::<f64>();
        Some(FlowFeatures {
            sensors,
            median_ttl,
            port_entropy,
        })
    }

    /// Distance between two flows' features: Jaccard distance of the
    /// sensor sets, plus scaled TTL and entropy differences.
    fn distance(&self, other: &FlowFeatures) -> f64 {
        let inter = self.sensors.intersection(&other.sensors).count() as f64;
        let union = self.sensors.union(&other.sensors).count() as f64;
        let jaccard = if union > 0.0 { 1.0 - inter / union } else { 1.0 };
        let ttl = (self.median_ttl - other.median_ttl).abs() / 32.0;
        let entropy = (self.port_entropy - other.port_entropy).abs() / 4.0;
        jaccard + ttl + entropy
    }
}

/// k-NN attributor trained on labelled ("purchased") attacks.
#[derive(Debug, Default)]
pub struct KnnAttributor {
    labelled: Vec<(FlowFeatures, u32)>,
}

/// An attribution decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Attribution {
    /// The attributed booter.
    pub booter: u32,
    /// Fraction of the k neighbours that voted for it.
    pub confidence: f64,
}

impl KnnAttributor {
    /// New empty attributor.
    pub fn new() -> KnnAttributor {
        KnnAttributor::default()
    }

    /// Add a labelled training flow (an attack we bought ourselves, so we
    /// know which booter ran it — the Krupp et al. methodology).
    pub fn train(&mut self, features: FlowFeatures, booter: u32) {
        self.labelled.push((features, booter));
    }

    /// Number of training flows.
    pub fn training_size(&self) -> usize {
        self.labelled.len()
    }

    /// Attribute a flow by majority vote among the `k` nearest training
    /// flows; returns `None` when the confidence is below `min_confidence`
    /// (the paper's high precision comes from refusing uncertain calls —
    /// that is what trades recall away).
    pub fn attribute(
        &self,
        features: &FlowFeatures,
        k: usize,
        min_confidence: f64,
    ) -> Option<Attribution> {
        if self.labelled.is_empty() || k == 0 {
            return None;
        }
        let mut dists: Vec<(f64, u32)> = self
            .labelled
            .iter()
            .map(|(f, b)| (features.distance(f), *b))
            .collect();
        dists.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite distance"));
        let k = k.min(dists.len());
        let mut votes = std::collections::HashMap::new();
        for (_, b) in &dists[..k] {
            *votes.entry(*b).or_insert(0usize) += 1;
        }
        let (&booter, &count) = votes.iter().max_by_key(|(_, &c)| c)?;
        let confidence = count as f64 / k as f64;
        if confidence < min_confidence {
            return None;
        }
        Some(Attribution { booter, confidence })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::VictimAddr;
    use crate::engine::{AttackCommand, Engine, EngineConfig};
    use crate::protocol::UdpProtocol;
    use booters_testkit::rngs::StdRng;
    use booters_testkit::SeedableRng;

    fn command(booter: u32, i: u64) -> AttackCommand {
        AttackCommand {
            time: i * 4_000,
            victim: VictimAddr::from_octets(25, (i % 200) as u8 + 1, 3, 7),
            protocol: UdpProtocol::Ldap,
            duration_secs: 300,
            packets_per_second: 60_000,
            booter,
            avoids_honeypots: false,
        }
    }

    #[test]
    fn fingerprints_are_stable_and_diverse() {
        let a = BooterFingerprint::for_booter(1);
        let b = BooterFingerprint::for_booter(1);
        assert_eq!(a, b);
        // Across many booters all three TTL families appear.
        let ttls: BTreeSet<u8> = (0..50).map(|i| BooterFingerprint::for_booter(i).initial_ttl).collect();
        assert!(ttls.len() >= 3);
        let fixed = (0..50)
            .filter(|&i| BooterFingerprint::for_booter(i).fixed_port.is_some())
            .count();
        assert!(fixed > 10 && fixed < 40, "fixed-port booters: {fixed}");
    }

    #[test]
    fn fixed_port_booters_have_zero_entropy() {
        let mut engine = Engine::new(EngineConfig::default());
        // Find a fixed-port booter and a random-port booter.
        let fixed_id = (0..100)
            .find(|&i| BooterFingerprint::for_booter(i).fixed_port.is_some())
            .unwrap();
        let random_id = (0..100)
            .find(|&i| BooterFingerprint::for_booter(i).fixed_port.is_none())
            .unwrap();
        let pf = engine.simulate_attack_packets(&command(fixed_id, 0));
        let pr = engine.simulate_attack_packets(&command(random_id, 1));
        let ff = FlowFeatures::from_packets(&pf).unwrap();
        let fr = FlowFeatures::from_packets(&pr).unwrap();
        assert_eq!(ff.port_entropy, 0.0);
        assert!(fr.port_entropy > 3.0, "entropy={}", fr.port_entropy);
    }

    #[test]
    fn knn_attributes_attacks_to_the_right_booter() {
        let mut engine = Engine::new(EngineConfig::default());
        let booters: Vec<u32> = (0..8).collect();
        let mut attributor = KnnAttributor::new();
        // Train: three purchased attacks per booter.
        let mut i = 0;
        for &b in &booters {
            for _ in 0..3 {
                let packets = engine.simulate_attack_packets(&command(b, i));
                attributor.train(FlowFeatures::from_packets(&packets).unwrap(), b);
                i += 1;
            }
        }
        // Test: fresh attacks; measure precision and recall.
        let mut correct = 0;
        let mut attributed = 0;
        let mut total = 0;
        for &b in &booters {
            for _ in 0..5 {
                let packets = engine.simulate_attack_packets(&command(b, i));
                i += 1;
                total += 1;
                let f = FlowFeatures::from_packets(&packets).unwrap();
                if let Some(a) = attributor.attribute(&f, 3, 0.67) {
                    attributed += 1;
                    if a.booter == b {
                        correct += 1;
                    }
                }
            }
        }
        let precision = correct as f64 / attributed.max(1) as f64;
        let recall = attributed as f64 / total as f64;
        // Krupp et al.: 99% precision, 69% recall. Our fingerprints are a
        // little cleaner than reality, so precision should be high.
        assert!(precision > 0.85, "precision={precision}");
        assert!(recall > 0.5, "recall={recall}");
    }

    #[test]
    fn low_confidence_is_refused() {
        let mut attributor = KnnAttributor::new();
        let mut rng = StdRng::seed_from_u64(5);
        // Three different booters as neighbours → max confidence 1/3.
        for b in 0..3u32 {
            let fp = BooterFingerprint::for_booter(b);
            let packets: Vec<SensorPacket> = (0..10)
                .map(|t| SensorPacket {
                    time: t,
                    sensor: (t % 4) as u32,
                    victim: VictimAddr::from_octets(25, 0, 0, 1),
                    protocol: UdpProtocol::Dns,
                    ttl: fp.observed_ttl(&mut rng),
                    src_port: fp.source_port(&mut rng),
                })
                .collect();
            attributor.train(FlowFeatures::from_packets(&packets).unwrap(), b);
        }
        let probe = attributor.labelled[0].0.clone();
        assert!(attributor.attribute(&probe, 3, 0.9).is_none());
        assert!(attributor.attribute(&probe, 1, 0.9).is_some());
    }

    #[test]
    fn empty_inputs_handled() {
        assert!(FlowFeatures::from_packets(&[]).is_none());
        let a = KnnAttributor::new();
        let f = FlowFeatures {
            sensors: BTreeSet::new(),
            median_ttl: 50.0,
            port_entropy: 0.0,
        };
        assert!(a.attribute(&f, 3, 0.5).is_none());
    }

    #[test]
    fn distance_is_symmetric_and_zero_on_self() {
        let mut engine = Engine::new(EngineConfig::default());
        let p1 = engine.simulate_attack_packets(&command(1, 0));
        let p2 = engine.simulate_attack_packets(&command(2, 1));
        let f1 = FlowFeatures::from_packets(&p1).unwrap();
        let f2 = FlowFeatures::from_packets(&p2).unwrap();
        assert!(f1.distance(&f1) < 1e-12);
        assert!((f1.distance(&f2) - f2.distance(&f1)).abs() < 1e-12);
    }
}
