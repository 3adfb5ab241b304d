//! Byte-level goldens for the weekly market simulator.
//!
//! Every field of every [`WeekOutput`] of a full [`MarketSim::run`] is
//! folded into one FNV-1a 64-bit digest, for the paper configuration and
//! for the shockless scenario baseline plus each of the eight built-in
//! scenario specs. The digests pin the RNG stream and the float-op order
//! of the demand, protocol-mix and population code: any change that moves
//! a single draw moves a digest.

use booting_the_booters::market::market::{MarketConfig, MarketSim, WeekOutput};
use booting_the_booters::market::scn::builtin_scenarios;
use booting_the_booters::market::shocks::ScenarioSpec;

/// FNV-1a, 64-bit.
struct Fnv64(u64);

impl Fnv64 {
    fn new() -> Fnv64 {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

fn digest(weeks: &[WeekOutput]) -> u64 {
    let mut h = Fnv64::new();
    h.u64(weeks.len() as u64);
    for w in weeks {
        h.u64(w.week as u64);
        h.u64(w.monday.to_days() as u64);
        w.country_counts.iter().for_each(|&c| h.u64(c));
        w.protocol_counts.iter().for_each(|&c| h.u64(c));
        w.country_protocol.iter().flatten().for_each(|&c| h.u64(c));
        for list in [&w.booter_attacks, &w.displayed_counters] {
            h.u64(list.len() as u64);
            for &(id, n) in list {
                h.u64(id as u64);
                h.u64(n);
            }
        }
        h.u64(w.lifecycle.deaths as u64);
        h.u64(w.lifecycle.resurrections as u64);
        h.u64(w.lifecycle.births as u64);
        h.u64(w.total);
    }
    h.0
}

/// The suite's market configuration (`ScenarioRunConfig::default()`'s
/// scale and seed) under `spec`.
fn scenario_config(spec: ScenarioSpec) -> MarketConfig {
    MarketConfig {
        scale: 0.05,
        seed: 0xB00735,
        scenario: Some(spec),
        ..MarketConfig::default()
    }
}

/// The baseline followed by the eight built-in specs, in suite order.
fn suite_specs() -> Vec<ScenarioSpec> {
    let mut specs = vec![ScenarioSpec::baseline()];
    specs.extend(builtin_scenarios());
    specs
}

#[test]
fn paper_market_digest_is_pinned() {
    let weeks = MarketSim::new(MarketConfig::default()).run();
    assert_eq!(
        digest(&weeks),
        0x588c_d1e4_5859_5f44,
        "paper market digest moved"
    );
}

#[test]
fn scenario_market_digests_are_pinned() {
    let expected: [(&str, u64); 9] = [
        ("baseline", 0xc7c8_6b76_3a26_fe3f),
        ("hackforums", 0x82ac_e2f9_f470_ef89),
        ("payment_friction", 0xae0a_231d_6734_c679),
        ("rebrand_migration", 0x9b66_f9ee_583b_baf3),
        ("vdos_sentencing", 0x07f2_d6ed_58f1_3c2b),
        ("webstresser", 0x9d1e_e07d_70ef_a048),
        ("poweroff", 0x1d55_330c_8b2c_bac2),
        ("mirai_sentencing", 0x9cdc_52cf_21eb_d4eb),
        ("xmas2018", 0x73fc_86d4_9747_a8f7),
    ];
    let got: Vec<(String, u64)> = suite_specs()
        .into_iter()
        .map(|spec| {
            let name = spec.name.clone();
            (name, digest(&MarketSim::new(scenario_config(spec)).run()))
        })
        .collect();
    let got: Vec<(&str, u64)> = got.iter().map(|(n, d)| (n.as_str(), *d)).collect();
    assert_eq!(got, expected, "scenario market digests moved");
}

/// `Population` only ever appends booters with `id == next_id`, so a
/// booter's id is its index — the lookups in the population and in the
/// observation layer rely on it.
#[test]
fn booter_ids_equal_their_positions_after_every_run() {
    let configs = std::iter::once(MarketConfig::default())
        .chain(suite_specs().into_iter().map(scenario_config));
    for cfg in configs {
        let label = cfg
            .scenario
            .as_ref()
            .map_or("paper".to_string(), |s| s.name.clone());
        let mut sim = MarketSim::new(cfg);
        while sim.step().is_some() {}
        for (i, b) in sim.population().booters().iter().enumerate() {
            assert_eq!(
                b.id as usize, i,
                "{label}: booter at index {i} has id {}",
                b.id
            );
        }
    }
}
