//! Market concentration metrics.
//!
//! §4.3 and §7: the Xmas2018 intervention moved the market "away from
//! multiple mid-range providers towards a market dominated by a single
//! booter", making it "more 'brittle'" — any future action against the
//! dominant provider would be "especially disruptive". This module
//! quantifies that with the Herfindahl–Hirschman index and top-k shares
//! over the simulated booter attack allocations.

use crate::market::WeekOutput;

/// Herfindahl–Hirschman index of a share vector: Σ sᵢ² with shares in
/// [0, 1]. 1/N for a symmetric N-firm market, → 1 under monopoly.
pub fn herfindahl(volumes: &[u64]) -> f64 {
    let total: u64 = volumes.iter().sum();
    if total == 0 {
        return f64::NAN;
    }
    volumes
        .iter()
        .map(|&v| {
            let s = v as f64 / total as f64;
            s * s
        })
        .sum()
}

/// Combined share of the `k` largest participants.
pub fn top_k_share(volumes: &[u64], k: usize) -> f64 {
    let total: u64 = volumes.iter().sum();
    if total == 0 {
        return f64::NAN;
    }
    let mut sorted = volumes.to_vec();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    sorted.iter().take(k).sum::<u64>() as f64 / total as f64
}

/// Weekly market-concentration series from the simulator output.
#[derive(Debug, Clone)]
pub struct ConcentrationSeries {
    /// Week index of each point.
    pub weeks: Vec<usize>,
    /// HHI per week.
    pub hhi: Vec<f64>,
    /// Top-1 share per week.
    pub top1: Vec<f64>,
    /// Effective number of competitors (1/HHI) per week.
    pub effective_firms: Vec<f64>,
}

impl ConcentrationSeries {
    /// Compute from weekly outputs.
    pub fn from_weeks(weeks: &[WeekOutput]) -> ConcentrationSeries {
        let mut out = ConcentrationSeries {
            weeks: Vec::with_capacity(weeks.len()),
            hhi: Vec::with_capacity(weeks.len()),
            top1: Vec::with_capacity(weeks.len()),
            effective_firms: Vec::with_capacity(weeks.len()),
        };
        for w in weeks {
            let volumes: Vec<u64> = w.booter_attacks.iter().map(|(_, n)| *n).collect();
            let h = herfindahl(&volumes);
            out.weeks.push(w.week);
            out.hhi.push(h);
            out.top1.push(top_k_share(&volumes, 1));
            out.effective_firms.push(if h > 0.0 { 1.0 / h } else { f64::NAN });
        }
        out
    }

    /// Mean HHI over a week range.
    pub fn mean_hhi(&self, from_week: usize, to_week: usize) -> f64 {
        let vals: Vec<f64> = self
            .weeks
            .iter()
            .zip(&self.hhi)
            .filter(|(&w, _)| w >= from_week && w < to_week)
            .map(|(_, &h)| h)
            .filter(|h| h.is_finite())
            .collect();
        if vals.is_empty() {
            return f64::NAN;
        }
        vals.iter().sum::<f64>() / vals.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::market::{MarketConfig, MarketSim};
    use booters_timeseries::Date;

    #[test]
    fn hhi_closed_forms() {
        // Symmetric duopoly: 0.5; monopoly: 1; 4 equal firms: 0.25.
        assert!((herfindahl(&[50, 50]) - 0.5).abs() < 1e-12);
        assert!((herfindahl(&[100]) - 1.0).abs() < 1e-12);
        assert!((herfindahl(&[25, 25, 25, 25]) - 0.25).abs() < 1e-12);
        assert!(herfindahl(&[]).is_nan());
        assert!(herfindahl(&[0, 0]).is_nan());
    }

    #[test]
    fn top_k_share_basics() {
        assert!((top_k_share(&[60, 30, 10], 1) - 0.6).abs() < 1e-12);
        assert!((top_k_share(&[60, 30, 10], 2) - 0.9).abs() < 1e-12);
        assert!((top_k_share(&[60, 30, 10], 5) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn concentration_rises_after_xmas2018() {
        let weeks = MarketSim::new(MarketConfig {
            scale: 0.01,
            seed: 77,
            ..MarketConfig::default()
        })
        .run();
        let xmas_week = weeks
            .iter()
            .find(|w| w.monday >= Date::new(2018, 12, 17))
            .unwrap()
            .week;
        let series = ConcentrationSeries::from_weeks(&weeks);
        let before = series.mean_hhi(xmas_week.saturating_sub(12), xmas_week);
        let after = series.mean_hhi(xmas_week + 2, xmas_week + 12);
        assert!(
            after > 1.5 * before,
            "HHI before={before:.3} after={after:.3} — market should concentrate"
        );
        // Effective competitor count collapses correspondingly.
        let eff_before = 1.0 / before;
        let eff_after = 1.0 / after;
        assert!(eff_after < eff_before);
    }

    #[test]
    fn series_is_aligned_with_weeks() {
        let weeks = MarketSim::new(MarketConfig {
            scale: 0.005,
            seed: 3,
            ..MarketConfig::default()
        })
        .run();
        let series = ConcentrationSeries::from_weeks(&weeks);
        assert_eq!(series.weeks.len(), weeks.len());
        assert_eq!(series.hhi.len(), weeks.len());
        for (h, t) in series.hhi.iter().zip(&series.top1) {
            if h.is_finite() {
                assert!(*t * *t <= *h + 1e-12, "top1²={} must be ≤ HHI={h}", t * t);
            }
        }
    }
}
