//! Seasonal encoding: month-of-year dummies and the Easter indicator.
//!
//! The paper "model\[s\] seasonality over twelve one-month periods, for which
//! we need eleven seasonal variables" — month 1 (January) is the reference
//! level, so dummies cover months 2..=12. A separate Easter component
//! captures the moving school-holiday effect.

use crate::date::Date;
use crate::easter::{easter_sunday, in_easter_window};
use crate::series::WeeklySeries;

/// The 11 seasonal dummy values (months 2..=12) for one week.
pub fn seasonal_row(monday: Date) -> [f64; 11] {
    let mut row = [0.0; 11];
    let m = monday.month();
    if m >= 2 {
        row[(m - 2) as usize] = 1.0;
    }
    row
}

/// Easter dummy for one week: 1.0 when any day of the week (Mon..Sun)
/// falls inside the Easter holiday window.
pub fn easter_dummy(monday: Date, days_before: i64, days_after: i64) -> f64 {
    for off in 0..7 {
        if in_easter_window(monday.add_days(off), days_before, days_after) {
            return 1.0;
        }
    }
    0.0
}

/// All seasonal columns for a weekly series: 11 month dummies then Easter.
///
/// Returns columns in model order `seasonal_2 ... seasonal_12, easter`.
/// Each row equals [`seasonal_row`] and [`easter_dummy`] for its week, but
/// Easter is computed once per calendar year: a day is in the holiday
/// window of its own year, so a week is flagged when its days in year Y
/// meet Y's window.
pub fn seasonal_columns(series: &WeeklySeries, easter_window: (i64, i64)) -> Vec<Vec<f64>> {
    let n = series.len();
    let mut cols: Vec<Vec<f64>> = vec![vec![0.0; n]; 12];
    let first = series.start().to_days();
    let year0 = series.start().year();
    let (before, after) = easter_window;
    // Per year from `year0`: the holiday window's days inside that year.
    let windows: Vec<(i64, i64)> = (year0..=Date::from_days(first + 7 * n as i64).year())
        .map(|year| {
            let easter = easter_sunday(year).to_days();
            let lo = (easter - before).max(Date::new(year, 1, 1).to_days());
            let hi = (easter + after).min(Date::new(year, 12, 31).to_days());
            (lo, hi)
        })
        .collect();
    for i in 0..n {
        let mon = first + 7 * i as i64;
        let monday = Date::from_days(mon);
        for (j, &v) in seasonal_row(monday).iter().enumerate() {
            cols[j][i] = v;
        }
        let years = monday.year()..=Date::from_days(mon + 6).year();
        if years.into_iter().any(|year| {
            let (lo, hi) = windows[(year - year0) as usize];
            lo.max(mon) <= hi.min(mon + 6)
        }) {
            cols[11][i] = 1.0;
        }
    }
    cols
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn january_is_reference_level() {
        let jan = Date::new(2018, 1, 1);
        assert_eq!(seasonal_row(jan), [0.0; 11]);
    }

    #[test]
    fn each_month_sets_one_dummy() {
        for m in 2..=12u8 {
            let d = Date::new(2018, m, 5).week_start();
            // week_start may move into the previous month at boundaries, so
            // use a mid-month date whose Monday is still in the month.
            let d = if d.month() == m { d } else { Date::new(2018, m, 14).week_start() };
            let row = seasonal_row(d);
            let ones: Vec<usize> = row
                .iter()
                .enumerate()
                .filter(|(_, &v)| v == 1.0)
                .map(|(i, _)| i)
                .collect();
            assert_eq!(ones, vec![(m - 2) as usize], "month {m}");
        }
    }

    #[test]
    fn easter_dummy_flags_weeks_near_easter() {
        // Easter 2018 = April 1. Week of Mar 26 contains it.
        assert_eq!(easter_dummy(Date::new(2018, 3, 26), 7, 7), 1.0);
        assert_eq!(easter_dummy(Date::new(2018, 3, 19), 7, 7), 1.0); // window start Mar 25
        assert_eq!(easter_dummy(Date::new(2018, 3, 12), 7, 7), 0.0);
        assert_eq!(easter_dummy(Date::new(2018, 4, 9), 7, 7), 0.0);
    }

    #[test]
    fn seasonal_columns_shapes_and_coverage() {
        let s = WeeklySeries::zeros(Date::new(2018, 1, 1), 52);
        let cols = seasonal_columns(&s, (7, 7));
        assert_eq!(cols.len(), 12);
        assert!(cols.iter().all(|c| c.len() == 52));
        // Every week has at most one month dummy set.
        for i in 0..52 {
            let active: f64 = cols[..11].iter().map(|c| c[i]).sum();
            assert!(active <= 1.0);
        }
        // The Easter column is non-empty in a 52-week year.
        assert!(cols[11].iter().sum::<f64>() >= 2.0);
        // Roughly one twelfth of weeks in each month dummy.
        let june: f64 = cols[4].iter().sum();
        assert!((3.0..=5.0).contains(&june));
    }
}
