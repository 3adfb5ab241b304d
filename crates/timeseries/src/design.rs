//! Assembly of the paper's interrupted-time-series design matrix.
//!
//! Column order mirrors Table 1: intervention dummies, Easter, seasonal_2
//! through seasonal_12, the linear `time` trend, then the constant. Column
//! names travel with the matrix so the GLM summary can be rendered exactly
//! like the paper's table.

use crate::intervention::InterventionWindow;
use crate::seasonal::seasonal_columns;
use crate::series::WeeklySeries;
use booters_linalg::Matrix;

/// A design matrix with named columns.
#[derive(Debug, Clone)]
pub struct Design {
    /// The matrix, one row per week.
    pub x: Matrix,
    /// One name per column, in order.
    pub names: Vec<String>,
}

impl Design {
    /// Index of a named column.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }
}

/// Configuration for [`its_design`].
#[derive(Debug, Clone)]
pub struct DesignConfig {
    /// Easter window as (days before, days after) Easter Sunday.
    pub easter_window: (i64, i64),
    /// Include the 11 monthly seasonal dummies.
    pub seasonal: bool,
    /// Include the Easter dummy.
    pub easter: bool,
    /// Include the linear time trend (week index, starting at 0).
    pub trend: bool,
}

impl Default for DesignConfig {
    fn default() -> Self {
        DesignConfig {
            easter_window: (7, 7),
            seasonal: true,
            easter: true,
            trend: true,
        }
    }
}

/// Build the paper's design matrix for `series` with the given intervention
/// windows. Columns: interventions (in the order given), `easter`,
/// `seasonal_2`..`seasonal_12`, `time`, `_cons`.
pub fn its_design(
    series: &WeeklySeries,
    interventions: &[InterventionWindow],
    config: &DesignConfig,
) -> Design {
    let n = series.len();
    let mut cols: Vec<(String, Vec<f64>)> = Vec::new();

    for w in interventions {
        cols.push((w.name.clone(), w.dummy_column(series)));
    }

    let seasonal_cols = seasonal_columns(series, config.easter_window);
    if config.easter {
        cols.push(("Easter".to_string(), seasonal_cols[11].clone()));
    }
    if config.seasonal {
        for (m, col) in seasonal_cols[..11].iter().enumerate() {
            cols.push((format!("seasonal_{}", m + 2), col.clone()));
        }
    }
    if config.trend {
        cols.push(("time".to_string(), (0..n).map(|i| i as f64).collect()));
    }
    cols.push(("_cons".to_string(), vec![1.0; n]));

    let p = cols.len();
    let mut x = Matrix::zeros(n, p);
    for (j, (_, col)) in cols.iter().enumerate() {
        for i in 0..n {
            x[(i, j)] = col[i];
        }
    }
    Design {
        x,
        names: cols.into_iter().map(|(name, _)| name).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::date::Date;

    fn series() -> WeeklySeries {
        // June 2016 .. April 2019, the paper's modelling window.
        WeeklySeries::covering(Date::new(2016, 6, 6), Date::new(2019, 4, 1))
    }

    #[test]
    fn full_design_matches_table1_shape() {
        let s = series();
        let interventions = vec![
            InterventionWindow::immediate("Xmas2018", Date::new(2018, 12, 19), 10),
            InterventionWindow::delayed("Webstresser", Date::new(2018, 4, 24), 2, 3),
        ];
        let d = its_design(&s, &interventions, &DesignConfig::default());
        // 2 interventions + Easter + 11 seasonal + time + _cons = 16
        assert_eq!(d.x.cols(), 16);
        assert_eq!(d.names.len(), 16);
        assert_eq!(d.x.rows(), s.len());
        assert_eq!(d.names[0], "Xmas2018");
        assert_eq!(d.names[2], "Easter");
        assert_eq!(d.names[3], "seasonal_2");
        assert_eq!(d.names[13], "seasonal_12");
        assert_eq!(d.names[14], "time");
        assert_eq!(d.names[15], "_cons");
    }

    #[test]
    fn trend_column_is_week_index() {
        let s = series();
        let d = its_design(&s, &[], &DesignConfig::default());
        let t = d.column_index("time").unwrap();
        assert_eq!(d.x[(0, t)], 0.0);
        assert_eq!(d.x[(10, t)], 10.0);
    }

    #[test]
    fn constant_column_is_ones() {
        let s = series();
        let d = its_design(&s, &[], &DesignConfig::default());
        let c = d.column_index("_cons").unwrap();
        for i in 0..s.len() {
            assert_eq!(d.x[(i, c)], 1.0);
        }
    }

    #[test]
    fn config_can_disable_components() {
        let s = series();
        let d = its_design(
            &s,
            &[],
            &DesignConfig {
                seasonal: false,
                easter: false,
                trend: true,
                easter_window: (7, 7),
            },
        );
        assert_eq!(d.names, vec!["time".to_string(), "_cons".to_string()]);
    }

    #[test]
    fn intervention_column_sums_to_duration() {
        let s = series();
        let w = InterventionWindow::immediate("HF", Date::new(2016, 10, 28), 13);
        let d = its_design(&s, &[w], &DesignConfig::default());
        let j = d.column_index("HF").unwrap();
        let total: f64 = (0..s.len()).map(|i| d.x[(i, j)]).sum();
        assert_eq!(total, 13.0);
    }

    #[test]
    fn design_matches_the_per_week_calendar_definitions() {
        // The column builders compute effect bounds and Easter once; every
        // entry must still equal the per-week definitions. The series span
        // year boundaries (weeks split across two years) and Easters from
        // 22 March (2285) to 25 April (2038), and the windows include a
        // delayed one and ones running off either end of the series. The
        // last two Easter windows make the week of 30 December 2019 hinge
        // on which year's Easter each of its days uses: with (100, 0) only
        // its January days are in the 2020 window; with (−255, 270) the
        // 2019 window starts on 1 January 2020, a day that belongs to 2020.
        use crate::seasonal::{easter_dummy, seasonal_row};
        let cases = [
            (Date::new(2015, 12, 28), 230, (7, 7)),
            (Date::new(2037, 11, 30), 80, (7, 7)),
            (Date::new(2284, 12, 31), 70, (7, 7)),
            (Date::new(2016, 6, 6), 148, (0, 0)),
            (Date::new(2019, 6, 3), 60, (100, 0)),
            (Date::new(2019, 6, 3), 60, (-255, 270)),
        ];
        for (start, weeks, easter_window) in cases {
            let s = WeeklySeries::zeros(start, weeks);
            let windows = vec![
                InterventionWindow::immediate("early", start.add_days(-30), 8),
                InterventionWindow::delayed("mid", start.add_days(7 * 20 + 3), 2, 5),
                InterventionWindow::immediate("late", start.add_days(7 * (weeks as i64 - 3)), 10),
            ];
            let config = DesignConfig { easter_window, ..DesignConfig::default() };
            let d = its_design(&s, &windows, &config);
            let easter = d.column_index("Easter").unwrap();
            for i in 0..s.len() {
                let monday = s.week_date(i);
                for (j, w) in windows.iter().enumerate() {
                    let expected = if w.active_in_week(monday) { 1.0 } else { 0.0 };
                    assert_eq!(d.x[(i, j)], expected, "{} week {monday}", w.name);
                }
                let expected = easter_dummy(monday, easter_window.0, easter_window.1);
                assert_eq!(d.x[(i, easter)], expected, "Easter week {monday}");
                for (m, &v) in seasonal_row(monday).iter().enumerate() {
                    assert_eq!(d.x[(i, easter + 1 + m)], v, "seasonal_{} week {monday}", m + 2);
                }
            }
        }
    }

    #[test]
    fn column_index_missing_is_none() {
        let s = series();
        let d = its_design(&s, &[], &DesignConfig::default());
        assert!(d.column_index("nope").is_none());
    }
}
