//! Week-indexed time series.
//!
//! The paper's unit of analysis is the week ("Weekly totals were used as
//! daily attack counts showed a high degree of volatility"). A
//! [`WeeklySeries`] is a contiguous run of weeks (Monday-keyed) with one
//! `f64` value per week; it supports accumulation from dated events,
//! slicing to an analysis window, and elementwise transformations.

use crate::date::Date;

/// A contiguous weekly time series keyed by the Monday starting each week.
#[derive(Debug, Clone, PartialEq)]
pub struct WeeklySeries {
    start: Date, // always a Monday
    values: Vec<f64>,
}

impl WeeklySeries {
    /// Create a zero-filled series covering `n_weeks` weeks starting with
    /// the week containing `start`.
    pub fn zeros(start: Date, n_weeks: usize) -> WeeklySeries {
        WeeklySeries {
            start: start.week_start(),
            values: vec![0.0; n_weeks],
        }
    }

    /// Create a series from explicit values; `start` is snapped to Monday.
    pub fn from_values(start: Date, values: Vec<f64>) -> WeeklySeries {
        WeeklySeries {
            start: start.week_start(),
            values,
        }
    }

    /// Create a series covering `[start, end)` (week granularity, both
    /// snapped to their Mondays), zero-filled.
    pub fn covering(start: Date, end: Date) -> WeeklySeries {
        let s = start.week_start();
        let e = end.week_start();
        let n = (e.days_since(s) / 7).max(0) as usize;
        WeeklySeries {
            start: s,
            values: vec![0.0; n],
        }
    }

    /// First week's Monday.
    pub fn start(&self) -> Date {
        self.start
    }

    /// Number of weeks.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the series has no weeks.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Monday of week `i`.
    pub fn week_date(&self, i: usize) -> Date {
        self.start.add_days(7 * i as i64)
    }

    /// Week index containing `date`, if within the series.
    pub fn index_of(&self, date: Date) -> Option<usize> {
        let days = date.days_since(self.start);
        if days < 0 {
            return None;
        }
        let idx = (days / 7) as usize;
        if idx < self.values.len() {
            Some(idx)
        } else {
            None
        }
    }

    /// Value for week `i`.
    pub fn get(&self, i: usize) -> f64 {
        self.values[i]
    }

    /// Set the value for week `i`.
    pub fn set(&mut self, i: usize, v: f64) {
        self.values[i] = v;
    }

    /// Add `amount` to the week containing `date`; events outside the
    /// series range are ignored (they fall off the observation window).
    pub fn add_event(&mut self, date: Date, amount: f64) {
        if let Some(i) = self.index_of(date) {
            self.values[i] += amount;
        }
    }

    /// Borrow the values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutably borrow the values.
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Sum of all values.
    pub fn total(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Slice out the sub-series covering `[from, to)` (snapped to Mondays).
    /// Returns `None` if the window is not fully inside the series.
    pub fn window(&self, from: Date, to: Date) -> Option<WeeklySeries> {
        let f = from.week_start();
        let t = to.week_start();
        let i = self.index_of(f)?;
        let n = (t.days_since(f) / 7).max(0) as usize;
        if i + n > self.values.len() {
            return None;
        }
        Some(WeeklySeries {
            start: f,
            values: self.values[i..i + n].to_vec(),
        })
    }

    /// Map every value through `f`, returning a new series.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> WeeklySeries {
        WeeklySeries {
            start: self.start,
            values: self.values.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Iterator of `(week_monday, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Date, f64)> + '_ {
        self.values
            .iter()
            .enumerate()
            .map(move |(i, &v)| (self.week_date(i), v))
    }

}

#[cfg(test)]
mod tests {
    use super::*;

    fn monday() -> Date {
        Date::new(2018, 1, 1) // a Monday
    }

    #[test]
    fn construction_snaps_to_monday() {
        let s = WeeklySeries::zeros(Date::new(2018, 1, 3), 4); // Wednesday
        assert_eq!(s.start(), monday());
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn covering_counts_weeks() {
        let s = WeeklySeries::covering(Date::new(2018, 1, 1), Date::new(2018, 2, 5));
        assert_eq!(s.len(), 5);
        let empty = WeeklySeries::covering(Date::new(2018, 1, 1), Date::new(2018, 1, 1));
        assert!(empty.is_empty());
    }

    #[test]
    fn index_of_maps_dates_to_weeks() {
        let s = WeeklySeries::zeros(monday(), 3);
        assert_eq!(s.index_of(Date::new(2018, 1, 1)), Some(0));
        assert_eq!(s.index_of(Date::new(2018, 1, 7)), Some(0)); // Sunday, same week
        assert_eq!(s.index_of(Date::new(2018, 1, 8)), Some(1));
        assert_eq!(s.index_of(Date::new(2018, 1, 21)), Some(2));
        assert_eq!(s.index_of(Date::new(2018, 1, 22)), None); // past end
        assert_eq!(s.index_of(Date::new(2017, 12, 31)), None); // before start
    }

    #[test]
    fn add_event_accumulates_within_week() {
        let mut s = WeeklySeries::zeros(monday(), 2);
        s.add_event(Date::new(2018, 1, 2), 5.0);
        s.add_event(Date::new(2018, 1, 6), 3.0);
        s.add_event(Date::new(2018, 1, 10), 7.0);
        s.add_event(Date::new(2019, 1, 1), 100.0); // ignored, out of range
        assert_eq!(s.values(), &[8.0, 7.0]);
        assert_eq!(s.total(), 15.0);
    }

    #[test]
    fn window_extracts_aligned_slice() {
        let s = WeeklySeries::from_values(monday(), vec![1.0, 2.0, 3.0, 4.0]);
        let w = s.window(Date::new(2018, 1, 8), Date::new(2018, 1, 22)).unwrap();
        assert_eq!(w.values(), &[2.0, 3.0]);
        assert_eq!(w.start(), Date::new(2018, 1, 8));
        assert!(s.window(Date::new(2017, 12, 1), Date::new(2018, 1, 8)).is_none());
        assert!(s.window(Date::new(2018, 1, 8), Date::new(2018, 3, 1)).is_none());
    }

    #[test]
    fn map_and_counts() {
        let s = WeeklySeries::from_values(monday(), vec![1.4, 2.6, -0.5]);
        assert_eq!(s.map(|v| v * 2.0).values(), &[2.8, 5.2, -1.0]);
    }

    #[test]
    fn iter_yields_dated_pairs() {
        let s = WeeklySeries::from_values(monday(), vec![5.0, 6.0]);
        let pairs: Vec<_> = s.iter().collect();
        assert_eq!(pairs[0], (Date::new(2018, 1, 1), 5.0));
        assert_eq!(pairs[1], (Date::new(2018, 1, 8), 6.0));
    }
}
