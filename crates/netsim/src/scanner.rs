//! Reflector discovery scanners.
//!
//! Booters run scanners to find open reflectors; the honeypot fleet
//! deliberately answers them ("It attempts to only reflect to the
//! criminals' scanners (so that they use the honeypots)"), so honeypots
//! end up inside booter reflector lists. White-hat scanners are never
//! answered and so never list honeypots.

use crate::protocol::UdpProtocol;
use booters_testkit::Rng;

/// Who is scanning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScannerKind {
    /// A booter's reflector-discovery scanner: honeypots answer it.
    Booter,
    /// A known white-hat/research scanner: honeypots stay silent.
    WhiteHat,
}

/// A reflector list as assembled by one scan: how many real reflectors and
/// which honeypot sensors the scanner found for each protocol.
#[derive(Debug, Clone)]
pub struct ReflectorList {
    /// Protocol scanned.
    pub protocol: UdpProtocol,
    /// Number of genuine reflectors discovered.
    pub real_reflectors: usize,
    /// Honeypot sensor ids discovered (empty for white-hat scans).
    pub honeypots: Vec<u32>,
}

impl ReflectorList {
}

/// Simulate one scan of the address space for `protocol`.
///
/// `scan_effort` in (0, 1] is the fraction of the population the scanner
/// covers; honeypots are discovered at full effort for booter scanners
/// (they answer every probe) and never for white-hat scanners.
pub fn run_scan<R: Rng + ?Sized>(
    protocol: UdpProtocol,
    kind: ScannerKind,
    scan_effort: f64,
    sensor_count: u32,
    rng: &mut R,
) -> ReflectorList {
    let (real_reflectors, found) = draw_scan(protocol, kind, scan_effort, sensor_count, None, rng);
    let honeypots = match found {
        Found::None => Vec::new(),
        Found::All => (0..sensor_count).collect(),
        Found::Some(ids) => ids,
    };
    ReflectorList {
        protocol,
        real_reflectors,
        honeypots,
    }
}

/// The honeypot sensors one scan kept in its list.
#[derive(Debug)]
pub(crate) enum Found {
    /// No sensor: a white-hat scan, a scan that missed every sensor, or a
    /// list an avoiding booter filtered.
    None,
    /// Every sensor of the fleet, `0..sensor_count`.
    All,
    /// Some but not all sensors, ascending.
    Some(Vec<u32>),
}

/// The draws of one scan, in their fixed order: the normal draw for the
/// real reflectors found, then (booter scans only) one uniform per
/// sensor, then, given an `avoidance_leak`, the avoiding booter's draw —
/// with probability 1−leak it filters every honeypot out.
///
/// At the default scan effort every sensor is found: that scan returns
/// [`Found::All`] and allocates nothing. Ids are collected only once a
/// sensor has been missed (DESIGN.md §5k).
pub(crate) fn draw_scan<R: Rng + ?Sized>(
    protocol: UdpProtocol,
    kind: ScannerKind,
    scan_effort: f64,
    sensor_count: u32,
    avoidance_leak: Option<f64>,
    rng: &mut R,
) -> (usize, Found) {
    assert!(
        scan_effort > 0.0 && scan_effort <= 1.0,
        "scan_effort={scan_effort}"
    );
    let population = protocol.real_reflector_population();
    // Binomial draw approximated by per-unit Bernoulli on a capped sample
    // for efficiency at large populations.
    let expected = population as f64 * scan_effort;
    let real_found = {
        // Normal approximation to Binomial(population, effort).
        let sd = (expected * (1.0 - scan_effort)).sqrt();
        let draw = expected + sd * booters_sample_normal(rng);
        draw.round().clamp(0.0, population as f64) as usize
    };
    let found = match kind {
        ScannerKind::WhiteHat => Found::None,
        ScannerKind::Booter => {
            // Honeypots answer eagerly, so a booter scan finds (almost) the
            // whole fleet even at moderate effort.
            let p_each = (scan_effort * 4.0).min(1.0);
            let mut partial: Option<Vec<u32>> = None;
            for sensor in 0..sensor_count {
                let hit = rng.gen::<f64>() < p_each;
                match (&mut partial, hit) {
                    (Some(ids), true) => ids.push(sensor),
                    (Some(_), false) | (None, true) => {}
                    (None, false) => partial = Some((0..sensor).collect()),
                }
            }
            match partial {
                None => Found::All,
                Some(ids) if ids.is_empty() => Found::None,
                Some(ids) => Found::Some(ids),
            }
        }
    };
    let avoided = avoidance_leak.is_some_and(|leak| rng.gen::<f64>() >= leak);
    (real_found, if avoided { Found::None } else { found })
}

/// Standard normal draw (kept local to avoid a stats dependency here).
fn booters_sample_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u: f64 = rng.gen_range(-1.0f64..1.0);
        let v: f64 = rng.gen_range(-1.0f64..1.0);
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use booters_testkit::rngs::StdRng;
    use booters_testkit::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xACE)
    }

    #[test]
    fn white_hat_scans_never_find_honeypots() {
        let mut r = rng();
        for _ in 0..20 {
            let l = run_scan(UdpProtocol::Ntp, ScannerKind::WhiteHat, 0.9, 60, &mut r);
            assert!(l.honeypots.is_empty());
            assert!(l.real_reflectors > 0);
        }
    }

    #[test]
    fn booter_scans_find_most_honeypots() {
        let mut r = rng();
        let l = run_scan(UdpProtocol::Ntp, ScannerKind::Booter, 0.5, 60, &mut r);
        assert!(l.honeypots.len() > 45, "found {}", l.honeypots.len());
    }

    #[test]
    fn ldap_lists_are_honeypot_heavy() {
        // Few real LDAP reflectors exist, so the honeypot share is large —
        // the paper's argument for LDAP coverage being "very representative".
        let mut r = rng();
        let ldap = run_scan(UdpProtocol::Ldap, ScannerKind::Booter, 0.3, 60, &mut r);
        let dns = run_scan(UdpProtocol::Dns, ScannerKind::Booter, 0.3, 60, &mut r);
        let share = |l: &ReflectorList| {
            l.honeypots.len() as f64 / (l.real_reflectors + l.honeypots.len()) as f64
        };
        assert!(
            share(&ldap) > 5.0 * share(&dns),
            "ldap={} dns={}",
            share(&ldap),
            share(&dns)
        );
    }

    #[test]
    fn effort_scales_real_discoveries() {
        let mut r = rng();
        let low = run_scan(UdpProtocol::Ssdp, ScannerKind::Booter, 0.1, 60, &mut r);
        let high = run_scan(UdpProtocol::Ssdp, ScannerKind::Booter, 0.9, 60, &mut r);
        assert!(high.real_reflectors > 3 * low.real_reflectors);
    }

    #[test]
    #[should_panic(expected = "scan_effort")]
    fn zero_effort_rejected() {
        let mut r = rng();
        run_scan(UdpProtocol::Dns, ScannerKind::Booter, 0.0, 10, &mut r);
    }

    /// The scan as first written, kept as the reference: the found ids
    /// collected one draw at a time, then cleared by an avoiding
    /// booter's draw.
    fn reference_scan(
        protocol: UdpProtocol,
        scan_effort: f64,
        sensors: u32,
        avoidance_leak: Option<f64>,
        rng: &mut StdRng,
    ) -> (usize, Vec<u32>) {
        let population = protocol.real_reflector_population();
        let expected = population as f64 * scan_effort;
        let sd = (expected * (1.0 - scan_effort)).sqrt();
        let draw = expected + sd * booters_sample_normal(rng);
        let real = draw.round().clamp(0.0, population as f64) as usize;
        let p_each = (scan_effort * 4.0).min(1.0);
        let mut ids: Vec<u32> = (0..sensors).filter(|_| rng.gen::<f64>() < p_each).collect();
        if avoidance_leak.is_some_and(|leak| rng.gen::<f64>() >= leak) {
            ids.clear();
        }
        (real, ids)
    }

    booters_testkit::forall! {
        #![cases(512)]

        fn draw_scan_equals_the_reference_scan(
            effort in 0.001f64..=1.0,
            low in booters_testkit::any::<bool>(),
            leak in 0.0f64..=1.0,
            avoids in booters_testkit::any::<bool>(),
            sensors in 0u32..=80,
            seed in booters_testkit::any::<u64>(),
        ) {
            // Half the cases below 0.25, where scans miss sensors.
            let scan_effort = if low { effort * 0.25 } else { effort };
            let protocol = UdpProtocol::ALL[(seed % 10) as usize];
            let leak = avoids.then_some(leak);
            let mut r = StdRng::seed_from_u64(seed);
            let mut oracle = r.clone();
            let (real, found) =
                draw_scan(protocol, ScannerKind::Booter, scan_effort, sensors, leak, &mut r);
            let (expected_real, expected) =
                reference_scan(protocol, scan_effort, sensors, leak, &mut oracle);
            let ids: Vec<u32> = match found {
                Found::None => Vec::new(),
                Found::All => (0..sensors).collect(),
                // A partial list is neither empty nor the whole fleet.
                Found::Some(ids) => {
                    booters_testkit::prop_assert!(!ids.is_empty() && ids.len() < sensors as usize);
                    ids
                }
            };
            booters_testkit::prop_assert_eq!(ids, expected);
            booters_testkit::prop_assert_eq!(real, expected_real);
            booters_testkit::prop_assert_eq!(r, oracle);
        }
    }

}
