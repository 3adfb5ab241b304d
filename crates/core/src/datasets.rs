//! The two datasets of §3, as produced by the simulated measurement chain.

use booters_netsim::{Country, UdpProtocol};
use booters_timeseries::{Date, WeeklySeries};
use std::collections::BTreeMap;

/// The honeypot-observed reflected-UDP attack dataset (§3, dataset 1):
/// weekly counts of classified attacks, globally and broken down by victim
/// country and by protocol.
#[derive(Debug, Clone)]
pub struct HoneypotDataset {
    /// Global weekly attack counts.
    pub global: WeeklySeries,
    /// Weekly counts per victim country (indexed by [`Country::index`]).
    pub by_country: Vec<WeeklySeries>,
    /// Weekly counts per protocol (indexed by [`UdpProtocol::index`]).
    pub by_protocol: Vec<WeeklySeries>,
    /// Joint country × protocol weekly counts, row-major by country —
    /// the §4.2 per-country protocol analysis ("Attacks against China use
    /// a much smaller range of protocols") reads this.
    pub country_protocol: Vec<WeeklySeries>,
}

impl HoneypotDataset {
    /// Empty dataset covering `[start, end)`.
    pub fn new(start: Date, end: Date) -> HoneypotDataset {
        HoneypotDataset {
            global: WeeklySeries::covering(start, end),
            by_country: (0..Country::ALL.len())
                .map(|_| WeeklySeries::covering(start, end))
                .collect(),
            by_protocol: (0..UdpProtocol::ALL.len())
                .map(|_| WeeklySeries::covering(start, end))
                .collect(),
            country_protocol: (0..Country::ALL.len() * UdpProtocol::ALL.len())
                .map(|_| WeeklySeries::covering(start, end))
                .collect(),
        }
    }

    /// Series for one (country, protocol) cell.
    pub fn country_protocol(&self, c: Country, p: UdpProtocol) -> &WeeklySeries {
        &self.country_protocol[c.index() * UdpProtocol::ALL.len() + p.index()]
    }

    /// Protocol shares of attacks on one country over `[from, to)`.
    /// Returns `None` when the window is outside the dataset or empty.
    pub fn protocol_mix(&self, c: Country, from: Date, to: Date) -> Option<[f64; 10]> {
        let mut out = [0.0; 10];
        let mut total = 0.0;
        for p in UdpProtocol::ALL {
            let v = self.country_protocol(c, p).window(from, to)?.total();
            out[p.index()] = v;
            total += v;
        }
        if total <= 0.0 {
            return None;
        }
        for v in &mut out {
            *v /= total;
        }
        Some(out)
    }

    /// Series for one country.
    pub fn country(&self, c: Country) -> &WeeklySeries {
        &self.by_country[c.index()]
    }

    /// Series for one protocol.
    pub fn protocol(&self, p: UdpProtocol) -> &WeeklySeries {
        &self.by_protocol[p.index()]
    }

    /// Restrict every series to `[from, to)`; `None` if out of range.
    pub fn window(&self, from: Date, to: Date) -> Option<HoneypotDataset> {
        Some(HoneypotDataset {
            global: self.global.window(from, to)?,
            by_country: self
                .by_country
                .iter()
                .map(|s| s.window(from, to))
                .collect::<Option<Vec<_>>>()?,
            by_protocol: self
                .by_protocol
                .iter()
                .map(|s| s.window(from, to))
                .collect::<Option<Vec<_>>>()?,
            country_protocol: self
                .country_protocol
                .iter()
                .map(|s| s.window(from, to))
                .collect::<Option<Vec<_>>>()?,
        })
    }

    /// Country share of total attacks over `[from, to)` — a Table 3 cell.
    /// Shares are conservative per-country counts over the global total.
    pub fn country_share(&self, c: Country, from: Date, to: Date) -> Option<f64> {
        let country = self.country(c).window(from, to)?.total();
        let global = self.global.window(from, to)?.total();
        if global <= 0.0 {
            return None;
        }
        Some(country / global)
    }
}

/// One booter's scrape history: week index → displayed counter.
pub type CounterHistory = BTreeMap<usize, u64>;

/// The booter self-reported dataset (§3, dataset 2): weekly scraped
/// counters per booter, plus the lifecycle tallies behind Figure 8.
#[derive(Debug, Clone)]
pub struct SelfReportDataset {
    /// Monday of scrape week 0 (the collection started November 2017).
    pub start: Date,
    /// Scrape histories per booter id.
    pub counters: BTreeMap<u32, CounterHistory>,
    /// Weekly deaths (Figure 8).
    pub deaths: WeeklySeries,
    /// Weekly resurrections (Figure 8).
    pub resurrections: WeeklySeries,
    /// Weekly observed births (bursty sweeps; Figure 8's caveat).
    pub births: WeeklySeries,
}

impl SelfReportDataset {
    /// Weekly *new attacks* implied by one booter's counter: successive
    /// differences, clamped at zero across database wipes.
    pub fn weekly_increments(&self, booter: u32) -> Vec<(usize, u64)> {
        self.counters
            .get(&booter)
            .map(|h| increments(h).collect())
            .unwrap_or_default()
    }

    /// Every booter's [`Self::weekly_increments`], by ascending id,
    /// without collecting them.
    pub(crate) fn all_increments(
        &self,
    ) -> impl Iterator<Item = impl Iterator<Item = (usize, u64)> + '_> + '_ {
        self.counters.values().map(increments)
    }

    /// Total self-reported weekly attack series, summed over booters with
    /// a defined increment that week (the Figure 7 stack height).
    pub fn total_weekly(&self, n_weeks: usize) -> WeeklySeries {
        let mut s = WeeklySeries::zeros(self.start, n_weeks);
        for h in self.counters.values() {
            for (week, inc) in increments(h) {
                if week < n_weeks {
                    s.set(week, s.get(week) + inc as f64);
                }
            }
        }
        s
    }

    /// Booters whose counters were scraped at least once.
    pub fn booter_ids(&self) -> Vec<u32> {
        self.counters.keys().copied().collect()
    }

    /// The `top` booters by total reported increment, descending.
    pub fn top_booters(&self, top: usize) -> Vec<u32> {
        let mut totals: Vec<(u32, u64)> = self
            .counters
            .iter()
            .map(|(&id, h)| (id, increments(h).map(|(_, v)| v).sum()))
            .collect();
        totals.sort_by_key(|&(_, t)| std::cmp::Reverse(t));
        totals.into_iter().take(top).map(|(id, _)| id).collect()
    }

    /// Market share of the top booter over `[from_week, to_week)` —
    /// §4.3's "the remaining one maintaining a substantial share (about
    /// 60%)".
    pub fn top_share(&self, from_week: usize, to_week: usize) -> Option<f64> {
        let mut per_booter: BTreeMap<u32, u64> = BTreeMap::new();
        for (&id, h) in &self.counters {
            for (week, inc) in increments(h) {
                if week >= from_week && week < to_week {
                    *per_booter.entry(id).or_insert(0) += inc;
                }
            }
        }
        let total: u64 = per_booter.values().sum();
        if total == 0 {
            return None;
        }
        per_booter
            .values()
            .max()
            .map(|&m| m as f64 / total as f64)
    }
}

/// Successive differences of one counter history over consecutive scrape
/// weeks, clamped at zero across database wipes.
fn increments(h: &CounterHistory) -> impl Iterator<Item = (usize, u64)> + '_ {
    let mut prev: Option<(usize, u64)> = None;
    h.iter().filter_map(move |(&week, &count)| {
        let inc = prev
            .filter(|&(pw, _)| week == pw + 1)
            .map(|(_, pc)| (week, count.saturating_sub(pc)));
        prev = Some((week, count));
        inc
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn monday() -> Date {
        Date::new(2017, 11, 6)
    }

    #[test]
    fn honeypot_dataset_shapes() {
        let ds = HoneypotDataset::new(Date::new(2014, 7, 1), Date::new(2019, 4, 1));
        assert_eq!(ds.by_country.len(), 12);
        assert_eq!(ds.by_protocol.len(), 10);
        assert_eq!(ds.global.len(), ds.country(Country::Us).len());
        assert_eq!(ds.global.len(), ds.protocol(UdpProtocol::Ldap).len());
    }

    #[test]
    fn country_share_computes_ratio() {
        let mut ds = HoneypotDataset::new(monday(), monday().add_days(28));
        for i in 0..4 {
            ds.global.set(i, 100.0);
            ds.by_country[Country::Us.index()].set(i, 45.0);
        }
        let share = ds
            .country_share(Country::Us, monday(), monday().add_days(28))
            .unwrap();
        assert!((share - 0.45).abs() < 1e-12);
    }

    #[test]
    fn weekly_increments_difference_counters() {
        let mut sr = SelfReportDataset {
            start: monday(),
            counters: BTreeMap::new(),
            deaths: WeeklySeries::zeros(monday(), 10),
            resurrections: WeeklySeries::zeros(monday(), 10),
            births: WeeklySeries::zeros(monday(), 10),
        };
        let mut h = CounterHistory::new();
        h.insert(0, 1000);
        h.insert(1, 1500);
        h.insert(2, 2100);
        // gap at week 3 (dead) then back
        h.insert(4, 2500);
        h.insert(5, 2400); // wipe artifact: counter went down
        sr.counters.insert(7, h);
        let inc = sr.weekly_increments(7);
        assert_eq!(inc, vec![(1, 500), (2, 600), (5, 0)]);
    }

    #[test]
    fn total_weekly_stacks_booters() {
        let mut sr = SelfReportDataset {
            start: monday(),
            counters: BTreeMap::new(),
            deaths: WeeklySeries::zeros(monday(), 4),
            resurrections: WeeklySeries::zeros(monday(), 4),
            births: WeeklySeries::zeros(monday(), 4),
        };
        for id in 0..3u32 {
            let mut h = CounterHistory::new();
            h.insert(0, 0);
            h.insert(1, 100);
            h.insert(2, 300);
            sr.counters.insert(id, h);
        }
        let total = sr.total_weekly(4);
        assert_eq!(total.values(), &[0.0, 300.0, 600.0, 0.0]);
    }

    #[test]
    fn top_booters_and_share() {
        let mut sr = SelfReportDataset {
            start: monday(),
            counters: BTreeMap::new(),
            deaths: WeeklySeries::zeros(monday(), 4),
            resurrections: WeeklySeries::zeros(monday(), 4),
            births: WeeklySeries::zeros(monday(), 4),
        };
        for (id, step) in [(1u32, 1000u64), (2, 300), (3, 50)] {
            let mut h = CounterHistory::new();
            for w in 0..4usize {
                h.insert(w, step * w as u64);
            }
            sr.counters.insert(id, h);
        }
        assert_eq!(sr.top_booters(2), vec![1, 2]);
        let share = sr.top_share(0, 4).unwrap();
        assert!((share - 1000.0 * 3.0 / 1350.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn missing_booter_has_no_increments() {
        let sr = SelfReportDataset {
            start: monday(),
            counters: BTreeMap::new(),
            deaths: WeeklySeries::zeros(monday(), 1),
            resurrections: WeeklySeries::zeros(monday(), 1),
            births: WeeklySeries::zeros(monday(), 1),
        };
        assert!(sr.weekly_increments(99).is_empty());
        assert!(sr.top_share(0, 1).is_none());
    }

    #[test]
    fn window_restricts_all_series() {
        let ds = HoneypotDataset::new(Date::new(2016, 6, 6), Date::new(2019, 4, 1));
        let w = ds
            .window(Date::new(2017, 1, 2), Date::new(2018, 1, 1))
            .unwrap();
        assert_eq!(w.global.len(), 52);
        assert_eq!(w.by_country[0].len(), 52);
        assert!(ds.window(Date::new(2013, 1, 1), Date::new(2014, 1, 1)).is_none());
    }
}
