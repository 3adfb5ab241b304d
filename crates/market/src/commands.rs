//! Conversion of weekly market output into packet-level attack commands
//! for `booters-netsim`.
//!
//! The market simulator works at weekly aggregates; the honeypot engine
//! works at individual attacks. This module expands a [`WeekOutput`] into
//! [`AttackCommand`]s: victims drawn in the right countries, protocols
//! drawn from the week's mix, durations matching the measured
//! distribution ("over 50% of attacks were less than 5 minutes"), and each
//! command attributed to a booter (whose honeypot-avoidance flag carries
//! through to coverage).

use crate::booter::Booter;
use crate::market::WeekOutput;
use booters_netsim::{AttackCommand, Country, UdpProtocol, VictimAddr};
use booters_testkit::rngs::StdRng;
use booters_testkit::Rng;

/// Seconds in a week.
const WEEK_SECS: u64 = 7 * 86_400;

/// The booter with `id` in `booters`, or `None`. A population's booter
/// slice holds each booter at the index equal to its id (see
/// [`crate::lifecycle::Population`]), which is checked first; any other
/// slice is searched.
fn booter_by_id(booters: &[Booter], id: u32) -> Option<&Booter> {
    booters
        .get(id as usize)
        .filter(|b| b.id == id)
        .or_else(|| booters.iter().find(|b| b.id == id))
}

/// Expand one week into attack commands.
///
/// `booters` is the population's booter slice
/// ([`crate::lifecycle::Population::booters`]) and supplies per-booter
/// avoidance flags; the week's index sets the absolute time base
/// (seconds since scenario start for week 0).
/// `limit` caps the number of commands (sampling uniformly across the
/// week's volume) so packet-level runs stay tractable; pass `usize::MAX`
/// for everything.
pub fn commands_for_week(
    out: &WeekOutput,
    booters: &[Booter],
    rng: &mut StdRng,
    limit: usize,
) -> Vec<AttackCommand> {
    commands_for_week_with(
        out,
        |id| booter_by_id(booters, id).map(|b| b.avoids_honeypots),
        rng,
        limit,
    )
}

/// [`commands_for_week`] with the booters given as a lookup from id to
/// the booter's honeypot-avoidance flag (`None`: no such booter), for an
/// observer that keeps its own record of the population.
pub fn commands_for_week_with(
    out: &WeekOutput,
    avoids_honeypots: impl Fn(u32) -> Option<bool>,
    rng: &mut StdRng,
    limit: usize,
) -> Vec<AttackCommand> {
    let total = out.total;
    if total == 0 {
        return Vec::new();
    }
    let n = (total as usize).min(limit);
    // Sampling probability per unit so every (country, protocol) cell is
    // represented proportionally.
    let keep = n as f64 / total as f64;

    // The attacking booters known to the lookup, for attribution draws.
    let alive: Vec<((u32, bool), f64)> = out
        .booter_attacks
        .iter()
        .filter_map(|&(id, cnt)| avoids_honeypots(id).map(|a| ((id, a), cnt as f64)))
        .collect();
    let booter_total: f64 = alive.iter().map(|(_, c)| c).sum();

    let week_base = out.week as u64 * WEEK_SECS;
    let mut commands = Vec::with_capacity(n + 16);
    for country in Country::ALL {
        for (pi, &protocol) in UdpProtocol::ALL.iter().enumerate() {
            let cell = out.country_protocol[country.index()][pi];
            if cell == 0 {
                continue;
            }
            let take = ((cell as f64 * keep).round() as u64).min(cell);
            for _ in 0..take {
                let victim = VictimAddr::sample_in(country, rng);
                let time = week_base + rng.gen_range(0..WEEK_SECS);
                // Duration: ~55% under 5 minutes, tail to 30 minutes.
                let duration_secs = if rng.gen::<f64>() < 0.55 {
                    rng.gen_range(30..300)
                } else {
                    rng.gen_range(300..1800)
                };
                // Attribute to a booter by weight.
                let (booter, avoids) = if booter_total > 0.0 && !alive.is_empty() {
                    let mut pick = rng.gen::<f64>() * booter_total;
                    let mut chosen = alive[alive.len() - 1].0;
                    for &(b, c) in &alive {
                        if pick < c {
                            chosen = b;
                            break;
                        }
                        pick -= c;
                    }
                    chosen
                } else {
                    (0, false)
                };
                commands.push(AttackCommand {
                    time,
                    victim,
                    protocol,
                    duration_secs,
                    packets_per_second: rng.gen_range(10_000..100_000),
                    booter,
                    avoids_honeypots: avoids,
                });
            }
        }
    }
    commands.sort_by_key(|c| c.time);
    commands
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::market::{MarketConfig, MarketSim};
    use booters_testkit::SeedableRng;

    fn one_week() -> (WeekOutput, Vec<Booter>) {
        let mut sim = MarketSim::new(MarketConfig {
            scale: 0.01,
            seed: 5,
            ..MarketConfig::default()
        });
        let w = sim.step().unwrap();
        (w, sim.population().booters().to_vec())
    }

    #[test]
    fn booter_by_id_finds_booters_in_any_slice() {
        let (_, booters) = one_week();
        assert!(booters.len() > 3);
        for b in &booters {
            assert_eq!(booter_by_id(&booters, b.id).map(|f| f.id), Some(b.id));
        }
        let tail = &booters[2..];
        assert_eq!(booter_by_id(tail, 3).map(|b| b.id), Some(3));
        assert!(booter_by_id(tail, 1).is_none());
        assert!(booter_by_id(&booters, booters.len() as u32).is_none());
    }

    #[test]
    fn commands_match_week_volume() {
        let (w, booters) = one_week();
        let mut rng = StdRng::seed_from_u64(1);
        let cmds = commands_for_week(&w, &booters, &mut rng, usize::MAX);
        let n = cmds.len() as f64;
        // Per-cell rounding loses/gains a little.
        let slack = 0.05 * w.total as f64 + 60.0;
        assert!(
            (n - w.total as f64).abs() <= slack,
            "commands={n} total={}",
            w.total
        );
    }

    #[test]
    fn limit_caps_commands() {
        let (w, booters) = one_week();
        let mut rng = StdRng::seed_from_u64(2);
        let cmds = commands_for_week(&w, &booters, &mut rng, 100);
        assert!(cmds.len() <= 180, "len={}", cmds.len()); // per-cell rounding slack
        assert!(!cmds.is_empty());
    }

    #[test]
    fn commands_are_sorted_and_inside_the_week() {
        let (w, booters) = one_week();
        let mut rng = StdRng::seed_from_u64(3);
        let cmds = commands_for_week(&w, &booters, &mut rng, 500);
        for pair in cmds.windows(2) {
            assert!(pair[0].time <= pair[1].time);
        }
        let base = w.week as u64 * WEEK_SECS;
        for c in &cmds {
            assert!(c.time >= base && c.time < base + WEEK_SECS);
        }
    }

    #[test]
    fn victim_countries_match_the_cells() {
        let (w, booters) = one_week();
        let mut rng = StdRng::seed_from_u64(4);
        let cmds = commands_for_week(&w, &booters, &mut rng, usize::MAX);
        // Tally commands per country and compare with the week's counts.
        let mut tally = [0u64; 12];
        for c in &cmds {
            tally[c.victim.country().index()] += 1;
        }
        for country in Country::ALL {
            let expect = w.country_counts[country.index()];
            let got = tally[country.index()];
            if expect > 50 {
                let rel = (got as f64 - expect as f64).abs() / expect as f64;
                assert!(rel < 0.15, "{country}: got={got} expect={expect}");
            }
        }
    }

    #[test]
    fn durations_are_mostly_short() {
        let (w, booters) = one_week();
        let mut rng = StdRng::seed_from_u64(6);
        let cmds = commands_for_week(&w, &booters, &mut rng, 2000);
        let short = cmds.iter().filter(|c| c.duration_secs < 300).count();
        let frac = short as f64 / cmds.len() as f64;
        assert!(frac > 0.4 && frac < 0.7, "short fraction={frac}");
    }

    #[test]
    fn booter_attribution_uses_alive_booters() {
        let (w, booters) = one_week();
        let mut rng = StdRng::seed_from_u64(7);
        let cmds = commands_for_week(&w, &booters, &mut rng, 1000);
        let alive_ids: std::collections::HashSet<u32> =
            w.booter_attacks.iter().map(|(id, _)| *id).collect();
        for c in &cmds {
            assert!(alive_ids.contains(&c.booter), "booter {} not alive", c.booter);
        }
    }
}
