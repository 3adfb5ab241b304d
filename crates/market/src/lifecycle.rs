//! Booter population dynamics — births, deaths, resurrections (Figure 8)
//! and the structural shocks interventions apply to the market.
//!
//! §4.3: "Most weeks there is little change, with two exceptions" — the
//! Webstresser takedown (a spike of deaths among small booters that had
//! subcontracted to it) and Xmas2018 (which closed two of the three major
//! providers, with the survivor ending up with ~60% of the market and one
//! of the closed majors returning "under a similar name" in March).

use crate::booter::{Booter, BooterState, SizeClass};
use crate::shocks::{ClassSel, ShockKind};
use booters_netsim::UdpProtocol;
use booters_testkit::rngs::StdRng;
use booters_testkit::Rng;

/// Weekly lifecycle tallies (one point of Figure 8).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LifecycleWeek {
    /// Booters that stopped responding this week.
    pub deaths: u32,
    /// Previously dead booters running again.
    pub resurrections: u32,
    /// Newly discovered booters (bursty — discovery sweeps are aperiodic).
    pub births: u32,
}

/// Population manager.
///
/// Invariant: a booter's id is its index in [`Population::booters`].
/// Booters are only ever appended, with `id == next_id`, and never
/// removed, so lookups by id index the vector directly.
#[derive(Debug)]
pub struct Population {
    booters: Vec<Booter>,
    next_id: u32,
    /// Weeks until the next discovery sweep.
    weeks_to_sweep: u32,
    /// Ids of the three pre-Xmas2018 majors, in descending weight order.
    majors: [u32; 3],
    /// Id of the major killed at Xmas2018 that resurrects in March 2019.
    returning_major: u32,
}

/// Baseline churn parameters.
const WEEKLY_DEATH_PROB_SMALL: f64 = 0.035;
const WEEKLY_DEATH_PROB_MEDIUM: f64 = 0.015;
const WEEKLY_RESURRECT_PROB: f64 = 0.12;

impl Population {
    /// Seed the market: three majors plus a bed of medium/small services.
    pub fn new(rng: &mut StdRng) -> Population {
        let mut booters = Vec::new();
        let mut next_id = 0u32;
        let add = |rng: &mut StdRng,
                       booters: &mut Vec<Booter>,
                       next_id: &mut u32,
                       size: SizeClass,
                       weight: f64,
                       self_reports: bool|
         -> u32 {
            let id = *next_id;
            *next_id += 1;
            booters.push(Booter {
                id,
                size,
                weight,
                state: BooterState::Alive,
                born_week: 0,
                died_week: None,
                self_reports,
                true_total: 0,
                counter_offset: if rng.gen::<f64>() < 0.03 { 150_000 } else { 0 },
                rounds_to_1000: rng.gen::<f64>() < 0.02,
                wipe_prob: if rng.gen::<f64>() < 0.1 { 0.01 } else { 0.0 },
                // Honeypot avoidance (like vDOS' 'SUDP') is a niche,
                // small-operator behaviour. Keeping large booters honest
                // also keeps dataset coverage stable — a big avoider's
                // noisy volume share would otherwise swing weekly coverage
                // for every country at once, leaking phantom intervention
                // effects into unaffected countries.
                avoids_honeypots: size == SizeClass::Small && rng.gen::<f64>() < 0.10,
                protocols: sample_portfolio(rng),
            });
            id
        };

        // Webstresser analogue: biggest booter, does not self-report.
        let webstresser = add(rng, &mut booters, &mut next_id, SizeClass::Major, 0.30, false);
        let m1 = add(rng, &mut booters, &mut next_id, SizeClass::Major, 0.22, true);
        let m2 = add(rng, &mut booters, &mut next_id, SizeClass::Major, 0.18, true);
        let m3 = add(rng, &mut booters, &mut next_id, SizeClass::Major, 0.13, true);
        let _ = webstresser;
        for _ in 0..12 {
            let w = 0.015 + rng.gen::<f64>() * 0.02;
            add(rng, &mut booters, &mut next_id, SizeClass::Medium, w, true);
        }
        for _ in 0..30 {
            let w = 0.002 + rng.gen::<f64>() * 0.006;
            add(rng, &mut booters, &mut next_id, SizeClass::Small, w, true);
        }
        Population {
            booters,
            next_id,
            weeks_to_sweep: 6,
            majors: [m1, m2, m3],
            returning_major: m1,
        }
    }

    /// All booters (any state).
    pub fn booters(&self) -> &[Booter] {
        &self.booters
    }

    /// Mutable access for the market allocator.
    pub fn booters_mut(&mut self) -> &mut [Booter] {
        &mut self.booters
    }

    /// Booter with id 0 is the Webstresser analogue.
    fn webstresser_id(&self) -> u32 {
        0
    }

    fn spawn(&mut self, rng: &mut StdRng, week: usize, size: SizeClass) -> u32 {
        let id = self.next_id;
        self.next_id += 1;
        let weight = match size {
            SizeClass::Major => 0.10,
            SizeClass::Medium => 0.01 + rng.gen::<f64>() * 0.02,
            SizeClass::Small => 0.002 + rng.gen::<f64>() * 0.005,
        };
        self.booters.push(Booter {
            id,
            size,
            weight,
            state: BooterState::Alive,
            born_week: week,
            died_week: None,
            self_reports: true,
            true_total: 0,
            counter_offset: 0,
            rounds_to_1000: false,
            wipe_prob: if rng.gen::<f64>() < 0.1 { 0.01 } else { 0.0 },
            avoids_honeypots: size == SizeClass::Small && rng.gen::<f64>() < 0.10,
            protocols: sample_portfolio(rng),
        });
        id
    }

    /// The booter with `id` (see the id invariant on [`Population`]).
    fn by_id(&mut self, id: u32) -> &mut Booter {
        let b = &mut self.booters[id as usize];
        debug_assert_eq!(b.id, id, "booter ids are their indices");
        b
    }

    fn kill_id(&mut self, id: u32, week: usize, permanent: bool) -> bool {
        let b = self.by_id(id);
        if b.is_alive() {
            b.kill(week, permanent);
            return true;
        }
        false
    }

    /// One week of churn plus any intervention shocks. Returns the
    /// lifecycle tallies for Figure 8.
    pub fn step(
        &mut self,
        rng: &mut StdRng,
        week: usize,
        shock: Option<MarketShock>,
    ) -> LifecycleWeek {
        let mut tally = LifecycleWeek::default();

        // Intervention shocks first.
        match shock {
            Some(MarketShock::WebstresserTakedown) => {
                if self.kill_id(self.webstresser_id(), week, true) {
                    tally.deaths += 1;
                }
                // Subcontracting small booters collapse with it.
                let victims: Vec<u32> = self
                    .booters
                    .iter()
                    .filter(|b| b.is_alive() && b.size == SizeClass::Small)
                    .map(|b| b.id)
                    .take(9)
                    .collect();
                for id in victims {
                    if self.kill_id(id, week, false) {
                        tally.deaths += 1;
                    }
                }
            }
            Some(MarketShock::Xmas2018) => {
                // Two of the three majors go down, plus several others —
                // the FBI action "immediately took seven booter services
                // offline".
                let [m1, m2, m3] = self.majors;
                if self.kill_id(m1, week, false) {
                    tally.deaths += 1;
                }
                if self.kill_id(m2, week, true) {
                    tally.deaths += 1;
                }
                // Displacement bonus: the surviving major absorbs most of
                // the dead majors' market (ends up ~60% of the market).
                let absorbed = self.by_id(m1).weight + self.by_id(m2).weight;
                self.by_id(m3).weight += absorbed * 1.6;
                let victims: Vec<u32> = self
                    .booters
                    .iter()
                    .filter(|b| b.is_alive() && b.size != SizeClass::Major)
                    .map(|b| b.id)
                    .take(5)
                    .collect();
                for id in victims {
                    if self.kill_id(id, week, false) {
                        tally.deaths += 1;
                    }
                }
            }
            Some(MarketShock::ReturnOfTheMajor) => {
                let b = self.by_id(self.returning_major);
                if b.state == BooterState::Dead {
                    b.resurrect();
                    tally.resurrections += 1;
                }
            }
            None => {}
        }

        self.churn_and_sweeps(rng, week, &mut tally);
        tally
    }

    /// One week of churn with scenario-DSL structural shocks instead of
    /// the hard-wired [`MarketShock`]s. Structural shocks are applied
    /// deterministically (no RNG draws) in the order given, so the
    /// baseline-churn RNG stream below stays aligned with [`Self::step`]
    /// — a scenario run consumes exactly the same random sequence as the
    /// no-shock run, which is what makes scenario goldens
    /// thread-invariant (DESIGN.md §5j).
    pub fn step_scenario(
        &mut self,
        rng: &mut StdRng,
        week: usize,
        shocks: &[ShockKind],
    ) -> LifecycleWeek {
        let mut tally = LifecycleWeek::default();
        // Weight closed by supply cuts earlier in this week's shock list,
        // available for a subsequent `displacement` to absorb.
        let mut closed_weight = 0.0f64;
        for kind in shocks {
            match *kind {
                ShockKind::SupplyCut { class, count } => {
                    closed_weight += self.supply_cut(class, count as usize, week, &mut tally);
                }
                ShockKind::Displacement { absorb } => {
                    self.displace(absorb * closed_weight);
                }
                ShockKind::Rebrand { migration } => {
                    if self.rebrand(migration) {
                        tally.resurrections += 1;
                    }
                }
                // Demand-side kinds act through
                // `crate::demand::scenario_log_intensity`, not here.
                ShockKind::DemandShift { .. }
                | ShockKind::Reprisal { .. }
                | ShockKind::DomainSeizure { .. }
                | ShockKind::PaymentFriction { .. }
                | ShockKind::Deterrence { .. } => {}
            }
        }
        self.churn_and_sweeps(rng, week, &mut tally);
        tally
    }

    /// Permanently close the `count` largest-weight alive booters
    /// matching `class` (ties broken by ascending id). Returns the total
    /// weight closed.
    fn supply_cut(
        &mut self,
        class: ClassSel,
        count: usize,
        week: usize,
        tally: &mut LifecycleWeek,
    ) -> f64 {
        let matches = |b: &Booter| match class {
            ClassSel::Major => b.size == SizeClass::Major,
            ClassSel::Medium => b.size == SizeClass::Medium,
            ClassSel::Small => b.size == SizeClass::Small,
            ClassSel::Any => true,
        };
        let mut targets: Vec<(u32, f64)> = self
            .booters
            .iter()
            .filter(|b| b.is_alive() && matches(b))
            .map(|b| (b.id, b.weight))
            .collect();
        // Largest weight first; equal weights fall back to ascending id
        // so the target list is fully deterministic.
        targets.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        let mut closed = 0.0;
        for &(id, weight) in targets.iter().take(count) {
            if self.kill_id(id, week, true) {
                tally.deaths += 1;
                closed += weight;
            }
        }
        closed
    }

    /// The largest surviving booter (ties broken by ascending id) absorbs
    /// `extra` market weight.
    fn displace(&mut self, extra: f64) {
        let winner = self
            .booters
            .iter()
            .filter(|b| b.is_alive())
            .max_by(|a, b| a.weight.partial_cmp(&b.weight).unwrap().then(b.id.cmp(&a.id)))
            .map(|b| b.id);
        if let Some(id) = winner {
            self.by_id(id).weight += extra;
        }
    }

    /// Re-open the most recently closed booter "under a similar name",
    /// keeping `migration` of its former weight. Candidates are Dead or
    /// Retired records with a recorded death week; ties on the death week
    /// resolve to the largest weight, then the smallest id. Unlike
    /// [`Booter::resurrect`], this revives Retired records too — a
    /// rebrand is a *new* service inheriting the customer base, not the
    /// seized one coming back.
    fn rebrand(&mut self, migration: f64) -> bool {
        let candidate = self
            .booters
            .iter()
            .filter(|b| !b.is_alive() && b.died_week.is_some())
            .max_by(|a, b| {
                a.died_week
                    .cmp(&b.died_week)
                    .then(a.weight.partial_cmp(&b.weight).unwrap())
                    .then(b.id.cmp(&a.id))
            })
            .map(|b| b.id);
        let Some(id) = candidate else { return false };
        let b = self.by_id(id);
        b.state = BooterState::Alive;
        b.weight *= migration;
        true
    }

    /// Baseline churn and discovery sweeps, shared verbatim between
    /// [`Self::step`] and [`Self::step_scenario`] so both consume the
    /// same RNG stream.
    fn churn_and_sweeps(&mut self, rng: &mut StdRng, week: usize, tally: &mut LifecycleWeek) {
        // Baseline churn. Each draw touches only its own booter, so the
        // states read in this pass are the week's opening states.
        for b in &mut self.booters {
            match b.state {
                BooterState::Alive => {
                    let p = match b.size {
                        SizeClass::Major => 0.0,
                        SizeClass::Medium => WEEKLY_DEATH_PROB_MEDIUM,
                        SizeClass::Small => WEEKLY_DEATH_PROB_SMALL,
                    };
                    if rng.gen::<f64>() < p {
                        b.kill(week, false);
                        tally.deaths += 1;
                    }
                }
                BooterState::Dead => {
                    // Resurrection chance decays with time dead.
                    let age = week.saturating_sub(b.died_week.unwrap_or(week));
                    let p = WEEKLY_RESURRECT_PROB * (0.8f64).powi(age as i32);
                    if rng.gen::<f64>() < p {
                        b.resurrect();
                        tally.resurrections += 1;
                    }
                }
                BooterState::Retired => {}
            }
        }

        // Discovery sweeps: bursty births (a data-collection artifact the
        // paper warns about — "should be viewed cautiously").
        if self.weeks_to_sweep == 0 {
            let births = rng.gen_range(2..=9);
            for _ in 0..births {
                let size = if rng.gen::<f64>() < 0.3 {
                    SizeClass::Medium
                } else {
                    SizeClass::Small
                };
                self.spawn(rng, week, size);
            }
            tally.births += births;
            self.weeks_to_sweep = rng.gen_range(4..=10);
        } else {
            self.weeks_to_sweep -= 1;
        }
    }
}

/// Structural shocks applied by interventions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MarketShock {
    /// 2018-04-24: Webstresser and its subcontractors go down.
    WebstresserTakedown,
    /// 2018-12-19: the FBI action closes two majors and several others.
    Xmas2018,
    /// March 2019: a closed major returns under a similar name.
    ReturnOfTheMajor,
}

/// Draw a 2–4 protocol portfolio for a booter.
fn sample_portfolio(rng: &mut StdRng) -> Vec<UdpProtocol> {
    let n = rng.gen_range(2..=4usize);
    let mut portfolio = Vec::with_capacity(n);
    while portfolio.len() < n {
        let p = UdpProtocol::ALL[rng.gen_range(0..UdpProtocol::ALL.len())];
        if !portfolio.contains(&p) {
            portfolio.push(p);
        }
    }
    portfolio
}

#[cfg(test)]
mod tests {
    use super::*;
    use booters_testkit::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xB008)
    }

    fn alive_count(p: &Population) -> usize {
        p.booters.iter().filter(|b| b.is_alive()).count()
    }

    #[test]
    fn initial_population_shape() {
        let mut r = rng();
        let p = Population::new(&mut r);
        assert!(alive_count(&p) >= 40);
        let majors = p
            .booters()
            .iter()
            .filter(|b| b.size == SizeClass::Major)
            .count();
        assert_eq!(majors, 4); // Webstresser + three self-reporting majors
        // Webstresser does not self-report.
        let w = p.booters().iter().find(|b| b.id == p.webstresser_id()).unwrap();
        assert!(!w.self_reports);
        let alive_weight: f64 = p.booters.iter().filter(|b| b.is_alive()).map(|b| b.weight).sum();
        assert!((alive_weight - 1.0).abs() < 0.6); // ~1, not normalised
    }

    #[test]
    fn webstresser_shock_kills_it_and_small_booters() {
        let mut r = rng();
        let mut p = Population::new(&mut r);
        let before = alive_count(&p);
        let t = p.step(&mut r, 10, Some(MarketShock::WebstresserTakedown));
        assert!(t.deaths >= 10, "deaths={}", t.deaths);
        assert!(alive_count(&p) < before);
        let w = p.booters().iter().find(|b| b.id == p.webstresser_id()).unwrap();
        assert_eq!(w.state, BooterState::Retired);
    }

    #[test]
    fn xmas_shock_restructures_market() {
        let mut r = rng();
        let mut p = Population::new(&mut r);
        let [m1, m2, m3] = p.majors;
        let t = p.step(&mut r, 20, Some(MarketShock::Xmas2018));
        assert!(t.deaths >= 7, "deaths={}", t.deaths);
        let get = |id| p.booters().iter().find(|b| b.id == id).unwrap().clone();
        assert_ne!(get(m1).state, BooterState::Alive);
        assert_eq!(get(m2).state, BooterState::Retired);
        assert!(get(m3).is_alive());
        // Survivor's share of the alive self-reporting market ≈ 60%.
        let alive_rep: f64 = p
            .booters()
            .iter()
            .filter(|b| b.is_alive() && b.self_reports)
            .map(|b| b.weight)
            .sum();
        let share = get(m3).weight / alive_rep;
        assert!(share > 0.45 && share < 0.75, "share={share}");
    }

    #[test]
    fn returning_major_resurrects_once() {
        let mut r = rng();
        let mut p = Population::new(&mut r);
        let [m1, _, _] = p.majors;
        p.step(&mut r, 20, Some(MarketShock::Xmas2018));
        let t = p.step(&mut r, 32, Some(MarketShock::ReturnOfTheMajor));
        assert!(t.resurrections >= 1);
        let b = p.booters().iter().find(|b| b.id == m1).unwrap();
        assert!(b.is_alive());
    }

    #[test]
    fn churn_is_quiet_most_weeks() {
        let mut r = rng();
        let mut p = Population::new(&mut r);
        let mut total_deaths = 0;
        let mut quiet_weeks = 0;
        for w in 0..40 {
            let t = p.step(&mut r, w, None);
            total_deaths += t.deaths;
            if t.deaths <= 2 {
                quiet_weeks += 1;
            }
        }
        assert!(quiet_weeks >= 30, "quiet={quiet_weeks}");
        assert!(total_deaths < 70);
    }

    #[test]
    fn births_arrive_in_bursts() {
        let mut r = rng();
        let mut p = Population::new(&mut r);
        let mut birth_weeks = 0;
        let mut total_births = 0;
        for w in 0..50 {
            let t = p.step(&mut r, w, None);
            if t.births > 0 {
                birth_weeks += 1;
                total_births += t.births;
            }
        }
        assert!((4..=13).contains(&birth_weeks), "weeks={birth_weeks}");
        assert!(total_births >= 10);
    }

    #[test]
    fn resurrections_happen_after_churn_deaths() {
        let mut r = rng();
        let mut p = Population::new(&mut r);
        let mut res = 0;
        for w in 0..80 {
            let t = p.step(&mut r, w, None);
            res += t.resurrections;
        }
        assert!(res > 0, "no resurrections in 80 weeks");
    }

    #[test]
    fn scenario_step_with_no_shocks_matches_plain_step() {
        // The §5j alignment property: an empty scenario week consumes
        // exactly the RNG stream of a shockless `step`, so both runs
        // stay bit-identical forever after.
        let mut r1 = rng();
        let mut r2 = rng();
        let mut p1 = Population::new(&mut r1);
        let mut p2 = Population::new(&mut r2);
        for w in 0..60 {
            let a = p1.step(&mut r1, w, None);
            let b = p2.step_scenario(&mut r2, w, &[]);
            assert_eq!(a, b, "week {w}");
        }
        let snap = |p: &Population| -> Vec<(u32, f64, BooterState)> {
            p.booters().iter().map(|b| (b.id, b.weight, b.state)).collect()
        };
        assert_eq!(snap(&p1), snap(&p2));
    }

    #[test]
    fn supply_cut_retires_largest_of_class_and_displacement_absorbs() {
        let mut r = rng();
        let mut p = Population::new(&mut r);
        // Largest major is the Webstresser analogue (weight 0.30).
        let web = p.webstresser_id();
        let survivor_before: f64 = {
            let mut ws: Vec<f64> = p
                .booters()
                .iter()
                .filter(|b| b.size == SizeClass::Major)
                .map(|b| b.weight)
                .collect();
            ws.sort_by(|a, b| b.partial_cmp(a).unwrap());
            ws[1] // the next-largest major inherits
        };
        let cut = ShockKind::SupplyCut {
            class: ClassSel::Major,
            count: 1,
        };
        let disp = ShockKind::Displacement { absorb: 0.5 };
        let t = p.step_scenario(&mut r, 10, &[cut, disp]);
        assert!(t.deaths >= 1);
        let w = p.booters().iter().find(|b| b.id == web).unwrap();
        assert_eq!(w.state, BooterState::Retired);
        let winner = p
            .booters()
            .iter()
            .filter(|b| b.is_alive())
            .max_by(|a, b| a.weight.partial_cmp(&b.weight).unwrap())
            .unwrap();
        assert!(
            (winner.weight - (survivor_before + 0.5 * 0.30)).abs() < 1e-12,
            "winner weight {}",
            winner.weight
        );
    }

    #[test]
    fn rebrand_revives_the_retired_casualty_with_scaled_weight() {
        let mut r = rng();
        let mut p = Population::new(&mut r);
        let web = p.webstresser_id();
        let cut = ShockKind::SupplyCut {
            class: ClassSel::Major,
            count: 1,
        };
        p.step_scenario(&mut r, 10, &[cut]);
        let dead_weight = p.booters().iter().find(|b| b.id == web).unwrap().weight;
        let reb = ShockKind::Rebrand { migration: 0.7 };
        let t = p.step_scenario(&mut r, 14, &[reb]);
        assert!(t.resurrections >= 1);
        let b = p.booters().iter().find(|b| b.id == web).unwrap();
        assert!(b.is_alive(), "rebrand must revive a Retired record");
        assert!((b.weight - dead_weight * 0.7).abs() < 1e-12);
    }

    #[test]
    fn portfolios_are_distinct_and_bounded() {
        let mut r = rng();
        for _ in 0..50 {
            let port = sample_portfolio(&mut r);
            assert!(port.len() >= 2 && port.len() <= 4);
            let mut dedup = port.clone();
            dedup.dedup();
            assert_eq!(dedup.len(), port.len());
        }
    }
}
