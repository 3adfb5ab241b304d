//! Intervention (step-function) windows for interrupted time series.
//!
//! The paper models each intervention as a dummy variable equal to 1 during
//! a window of weeks after the intervention date and 0 elsewhere — a pulse
//! of suppressed (or, for the NL reprisals, elevated) attack intensity.

use crate::date::Date;
use crate::series::WeeklySeries;

/// One intervention window: a name, an onset date, an optional delay (the
/// Webstresser takedown "\[took\] effect after a fortnight") and a duration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterventionWindow {
    /// Human-readable label (e.g. "Xmas2018").
    pub name: String,
    /// The announced date of the intervention.
    pub date: Date,
    /// Weeks between the intervention date and the start of the effect.
    pub delay_weeks: usize,
    /// Number of weeks the effect lasts.
    pub duration_weeks: usize,
}

impl InterventionWindow {
    /// Construct a window with no onset delay.
    pub fn immediate(name: &str, date: Date, duration_weeks: usize) -> Self {
        InterventionWindow {
            name: name.to_string(),
            date,
            delay_weeks: 0,
            duration_weeks,
        }
    }

    /// Construct a window with an onset delay.
    pub fn delayed(name: &str, date: Date, delay_weeks: usize, duration_weeks: usize) -> Self {
        InterventionWindow {
            name: name.to_string(),
            date,
            delay_weeks,
            duration_weeks,
        }
    }

    /// Monday of the first affected week.
    pub fn effect_start(&self) -> Date {
        self.date.week_start().add_days(7 * self.delay_weeks as i64)
    }

    /// Monday of the first week after the effect ends.
    pub fn effect_end(&self) -> Date {
        self.effect_start().add_days(7 * self.duration_weeks as i64)
    }

    /// True when the week starting at `monday` is inside the effect window.
    pub fn active_in_week(&self, monday: Date) -> bool {
        let m = monday.week_start();
        m >= self.effect_start() && m < self.effect_end()
    }

    /// Dummy column (0/1) aligned to `series`: [`Self::active_in_week`]
    /// for each week, with the effect bounds computed once and compared
    /// as day numbers (series weeks are Mondays).
    pub fn dummy_column(&self, series: &WeeklySeries) -> Vec<f64> {
        let effect = self.effect_start().to_days()..self.effect_end().to_days();
        let first = series.start().to_days();
        (0..series.len())
            .map(|i| {
                if effect.contains(&(first + 7 * i as i64)) {
                    1.0
                } else {
                    0.0
                }
            })
            .collect()
    }

    /// A copy of this window with a different duration — used by the
    /// duration-scan that picks the best-fitting window length.
    pub fn with_duration(&self, duration_weeks: usize) -> Self {
        InterventionWindow {
            duration_weeks,
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn immediate_window_starts_its_own_week() {
        // Xmas2018 announced Wednesday 2018-12-19; its week starts Mon 17th.
        let w = InterventionWindow::immediate("Xmas2018", Date::new(2018, 12, 19), 10);
        assert_eq!(w.effect_start(), Date::new(2018, 12, 17));
        assert_eq!(w.effect_end(), Date::new(2019, 2, 25));
        assert!(w.active_in_week(Date::new(2018, 12, 17)));
        assert!(w.active_in_week(Date::new(2019, 2, 18)));
        assert!(!w.active_in_week(Date::new(2019, 2, 25)));
        assert!(!w.active_in_week(Date::new(2018, 12, 10)));
    }

    #[test]
    fn delayed_window_shifts_effect() {
        // Webstresser: takedown 2018-04-24, effect after a fortnight, 3 weeks.
        let w = InterventionWindow::delayed("Webstresser", Date::new(2018, 4, 24), 2, 3);
        assert_eq!(w.effect_start(), Date::new(2018, 5, 7));
        assert!(!w.active_in_week(Date::new(2018, 4, 23)));
        assert!(!w.active_in_week(Date::new(2018, 4, 30)));
        assert!(w.active_in_week(Date::new(2018, 5, 7)));
        assert!(w.active_in_week(Date::new(2018, 5, 21)));
        assert!(!w.active_in_week(Date::new(2018, 5, 28)));
    }

    #[test]
    fn dummy_column_counts_duration_weeks() {
        let s = WeeklySeries::zeros(Date::new(2018, 1, 1), 20);
        let w = InterventionWindow::immediate("test", Date::new(2018, 2, 7), 4);
        let col = w.dummy_column(&s);
        assert_eq!(col.iter().sum::<f64>(), 4.0);
        // First affected week: Feb 5 is week index 5.
        assert_eq!(col[5], 1.0);
        assert_eq!(col[4], 0.0);
        assert_eq!(col[9], 0.0);
    }

    #[test]
    fn dummy_column_truncated_by_series_end() {
        let s = WeeklySeries::zeros(Date::new(2018, 1, 1), 6);
        let w = InterventionWindow::immediate("test", Date::new(2018, 2, 5), 10);
        let col = w.dummy_column(&s);
        assert_eq!(col.iter().sum::<f64>(), 1.0); // only 1 of 10 weeks visible
    }

    #[test]
    fn with_duration_clones_other_fields() {
        let w = InterventionWindow::delayed("x", Date::new(2018, 4, 24), 2, 3);
        let w2 = w.with_duration(7);
        assert_eq!(w2.duration_weeks, 7);
        assert_eq!(w2.delay_weeks, 2);
        assert_eq!(w2.name, "x");
    }
}
