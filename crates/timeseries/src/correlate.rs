//! Cross-series correlation (Figure 4 of the paper).
//!
//! The paper computes pairwise Pearson correlations between per-country
//! weekly attack series and observes that the UK/US/FR/DE/PL block is
//! strongly correlated while China "stands apart".

use crate::series::WeeklySeries;
use booters_stats::describe::pearson;

/// A labelled correlation matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct CorrelationTable {
    /// Series labels, in matrix order.
    pub labels: Vec<String>,
    /// Symmetric matrix of Pearson correlations; `NaN` where undefined.
    pub matrix: Vec<Vec<f64>>,
}

impl CorrelationTable {
    /// Correlation between two labelled series.
    pub fn get(&self, a: &str, b: &str) -> Option<f64> {
        let i = self.labels.iter().position(|l| l == a)?;
        let j = self.labels.iter().position(|l| l == b)?;
        Some(self.matrix[i][j])
    }

    /// Mean absolute off-diagonal correlation of one series against all
    /// others — low values identify the "stands apart" series (China).
    pub fn mean_abs_correlation(&self, label: &str) -> Option<f64> {
        let i = self.labels.iter().position(|l| l == label)?;
        let others: Vec<f64> = (0..self.labels.len())
            .filter(|&j| j != i)
            .map(|j| self.matrix[i][j].abs())
            .filter(|v| v.is_finite())
            .collect();
        if others.is_empty() {
            return None;
        }
        Some(others.iter().sum::<f64>() / others.len() as f64)
    }

    /// Render as an aligned text table (the repro of Figure 4's data).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!("{:>6}", "");
        for l in &self.labels {
            let _ = write!(out, "{l:>7}");
        }
        out.push('\n');
        for (i, l) in self.labels.iter().enumerate() {
            let _ = write!(out, "{l:>6}");
            for j in 0..self.labels.len() {
                let v = self.matrix[i][j];
                if v.is_nan() {
                    out.push_str("    nan");
                } else {
                    let _ = write!(out, "{v:>7.2}");
                }
            }
            out.push('\n');
        }
        out
    }
}

/// Pairwise Pearson correlation over aligned weekly series.
///
/// # Panics
/// Panics if the series are not aligned (same start, same length).
pub fn correlate_series(labelled: &[(String, &WeeklySeries)]) -> CorrelationTable {
    let k = labelled.len();
    if k > 1 {
        let s0 = labelled[0].1;
        for (_, s) in labelled.iter().skip(1) {
            assert_eq!(s.start(), s0.start(), "correlate_series: misaligned start");
            assert_eq!(s.len(), s0.len(), "correlate_series: length mismatch");
        }
    }
    let mut matrix = vec![vec![f64::NAN; k]; k];
    for i in 0..k {
        for j in i..k {
            let r = if i == j {
                1.0
            } else {
                pearson(labelled[i].1.values(), labelled[j].1.values())
            };
            matrix[i][j] = r;
            matrix[j][i] = r;
        }
    }
    CorrelationTable {
        labels: labelled.iter().map(|(l, _)| l.clone()).collect(),
        matrix,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::date::Date;

    fn mk(vals: Vec<f64>) -> WeeklySeries {
        WeeklySeries::from_values(Date::new(2018, 1, 1), vals)
    }

    #[test]
    fn correlated_and_uncorrelated_series() {
        let a = mk(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = mk(vec![2.0, 4.0, 5.9, 8.1, 10.0, 12.0]); // ≈ 2a
        let c = mk(vec![5.0, 1.0, 4.0, 2.0, 6.0, 1.5]); // noise
        let t = correlate_series(&[
            ("A".into(), &a),
            ("B".into(), &b),
            ("C".into(), &c),
        ]);
        assert!(t.get("A", "B").unwrap() > 0.99);
        assert!(t.get("A", "C").unwrap().abs() < 0.6);
        assert_eq!(t.get("A", "A").unwrap(), 1.0);
        assert_eq!(t.get("A", "B"), t.get("B", "A"));
    }

    #[test]
    fn mean_abs_correlation_identifies_outlier() {
        let a = mk(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = mk(vec![1.1, 2.2, 2.9, 4.2, 5.1, 5.8]);
        let flat = mk(vec![3.0, 1.0, 3.5, 0.5, 3.2, 1.1]);
        let t = correlate_series(&[
            ("A".into(), &a),
            ("B".into(), &b),
            ("CN".into(), &flat),
        ]);
        let a_corr = t.mean_abs_correlation("A").unwrap();
        let cn_corr = t.mean_abs_correlation("CN").unwrap();
        assert!(a_corr > cn_corr, "a={a_corr} cn={cn_corr}");
    }

    #[test]
    fn render_contains_labels() {
        let a = mk(vec![1.0, 2.0, 3.0]);
        let b = mk(vec![3.0, 2.0, 1.0]);
        let t = correlate_series(&[("UK".into(), &a), ("US".into(), &b)]);
        let s = t.render();
        assert!(s.contains("UK"));
        assert!(s.contains("US"));
        assert!(s.contains("-1.00"));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn misaligned_series_rejected() {
        let a = mk(vec![1.0, 2.0, 3.0]);
        let b = mk(vec![1.0, 2.0]);
        correlate_series(&[("A".into(), &a), ("B".into(), &b)]);
    }

    #[test]
    fn unknown_label_returns_none() {
        let a = mk(vec![1.0, 2.0, 3.0]);
        let t = correlate_series(&[("A".into(), &a)]);
        assert!(t.get("A", "Z").is_none());
        assert!(t.mean_abs_correlation("Z").is_none());
    }
}
