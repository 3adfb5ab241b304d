//! Proleptic Gregorian civil dates from scratch.
//!
//! Uses the classic days-from-civil / civil-from-days algorithms
//! (era-of-400-years arithmetic) so date maths is exact integer work with
//! no lookup tables, valid across the whole simulation range and far
//! beyond.

use std::fmt;

/// Day of week, ISO numbering (Monday = 1 ... Sunday = 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Weekday {
    /// Monday (ISO 1).
    Monday = 1,
    /// Tuesday (ISO 2).
    Tuesday = 2,
    /// Wednesday (ISO 3).
    Wednesday = 3,
    /// Thursday (ISO 4).
    Thursday = 4,
    /// Friday (ISO 5).
    Friday = 5,
    /// Saturday (ISO 6).
    Saturday = 6,
    /// Sunday (ISO 7).
    Sunday = 7,
}

impl Weekday {
    fn from_iso(n: i64) -> Weekday {
        match n {
            1 => Weekday::Monday,
            2 => Weekday::Tuesday,
            3 => Weekday::Wednesday,
            4 => Weekday::Thursday,
            5 => Weekday::Friday,
            6 => Weekday::Saturday,
            7 => Weekday::Sunday,
            _ => unreachable!("iso weekday out of range: {n}"),
        }
    }
}

/// A proleptic Gregorian calendar date.
///
/// Ordering and equality follow chronological order. The internal
/// representation is (year, month, day); conversions to a linear day count
/// are exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Date {
    year: i32,
    month: u8,
    day: u8,
}

impl Date {
    /// Construct a date; panics on invalid month/day combinations. A
    /// `const fn`, so fixed dates can live in static tables.
    pub const fn new(year: i32, month: u8, day: u8) -> Date {
        assert!(month >= 1 && month <= 12, "invalid month");
        assert!(
            day >= 1 && day <= days_in_month(year, month),
            "invalid day for the year and month"
        );
        Date { year, month, day }
    }

    /// Year component.
    pub fn year(&self) -> i32 {
        self.year
    }

    /// Month component (1–12).
    pub fn month(&self) -> u8 {
        self.month
    }

    /// Day-of-month component (1–31).
    pub fn day(&self) -> u8 {
        self.day
    }

    /// Days since the civil epoch 1970-01-01 (may be negative).
    pub fn to_days(&self) -> i64 {
        days_from_civil(self.year, self.month, self.day)
    }

    /// Inverse of [`Date::to_days`].
    pub fn from_days(days: i64) -> Date {
        let (y, m, d) = civil_from_days(days);
        Date {
            year: y,
            month: m,
            day: d,
        }
    }

    /// The date `n` days later (or earlier for negative `n`).
    pub fn add_days(&self, n: i64) -> Date {
        Date::from_days(self.to_days() + n)
    }

    /// Signed number of days from `other` to `self`.
    pub fn days_since(&self, other: Date) -> i64 {
        self.to_days() - other.to_days()
    }

    /// Day of week.
    pub fn weekday(&self) -> Weekday {
        // 1970-01-01 was a Thursday (ISO 4).
        let iso = (self.to_days() + 3).rem_euclid(7) + 1;
        Weekday::from_iso(iso)
    }

    /// The Monday on or before this date (used as the canonical week key).
    pub fn week_start(&self) -> Date {
        let dow = self.weekday() as i64; // Monday = 1
        self.add_days(-(dow - 1))
    }

    /// Day-of-year, 1-based.
    pub fn ordinal(&self) -> u32 {
        let mut total = 0u32;
        for m in 1..self.month {
            total += days_in_month(self.year, m) as u32;
        }
        total + self.day as u32
    }
}

impl fmt::Display for Date {
    /// ISO `YYYY-MM-DD`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.iso_bytes() {
            Some(buf) => f.write_str(std::str::from_utf8(&buf).expect("ASCII digits")),
            None => write!(f, "{:04}-{:02}-{:02}", self.year, self.month, self.day),
        }
    }
}

impl Date {
    /// Append the date to `out` exactly as its `Display` renders it, past
    /// the general formatter: the renderers print a date per row, and
    /// the formatter was a large share of their cost.
    pub fn push_iso(&self, out: &mut String) {
        match self.iso_bytes() {
            Some(buf) => out.extend(buf.iter().map(|&b| char::from(b))),
            None => {
                use fmt::Write as _;
                let _ = write!(out, "{self}");
            }
        }
    }

    /// `YYYY-MM-DD` as bytes, for four-digit years (every year a report
    /// shows); `None` for the rest.
    fn iso_bytes(&self) -> Option<[u8; 10]> {
        if !(0..=9999).contains(&self.year) {
            return None;
        }
        let digit = |n: u32, place: u32| b'0' + (n / place % 10) as u8;
        let (y, m, d) = (self.year as u32, self.month as u32, self.day as u32);
        Some([
            digit(y, 1000),
            digit(y, 100),
            digit(y, 10),
            digit(y, 1),
            b'-',
            digit(m, 10),
            digit(m, 1),
            b'-',
            digit(d, 10),
            digit(d, 1),
        ])
    }
}

/// True for Gregorian leap years.
pub const fn is_leap(year: i32) -> bool {
    year % 4 == 0 && (year % 100 != 0 || year % 400 == 0)
}

/// Number of days in the given month.
pub const fn days_in_month(year: i32, month: u8) -> u8 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if is_leap(year) {
                29
            } else {
                28
            }
        }
        _ => panic!("invalid month"),
    }
}

/// Days from 1970-01-01 (Hinnant's `days_from_civil`).
fn days_from_civil(y: i32, m: u8, d: u8) -> i64 {
    let y = y as i64 - if m <= 2 { 1 } else { 0 };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400; // [0, 399]
    let mp = (m as i64 + 9) % 12; // March = 0
    let doy = (153 * mp + 2) / 5 + d as i64 - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146_097 + doe - 719_468
}

/// Civil date from days since 1970-01-01 (Hinnant's `civil_from_days`).
fn civil_from_days(z: i64) -> (i32, u8, u8) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u8; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u8; // [1, 12]
    let y = if m <= 2 { y + 1 } else { y };
    (y as i32, m, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_day_zero() {
        assert_eq!(Date::new(1970, 1, 1).to_days(), 0);
        assert_eq!(Date::from_days(0), Date::new(1970, 1, 1));
    }

    #[test]
    fn known_day_counts() {
        assert_eq!(Date::new(1970, 1, 2).to_days(), 1);
        assert_eq!(Date::new(1969, 12, 31).to_days(), -1);
        assert_eq!(Date::new(2000, 3, 1).to_days(), 11_017);
        // 2014-07-01, the era our dataset starts: verified against Unix time.
        assert_eq!(Date::new(2014, 7, 1).to_days(), 16_252);
    }

    #[test]
    fn roundtrip_over_long_range() {
        // Every 37 days across ~80 years.
        let mut d = Date::new(1960, 1, 1).to_days();
        let end = Date::new(2040, 1, 1).to_days();
        while d < end {
            assert_eq!(Date::from_days(d).to_days(), d);
            d += 37;
        }
    }

    #[test]
    fn add_days_crosses_month_and_year() {
        assert_eq!(Date::new(2018, 12, 30).add_days(5), Date::new(2019, 1, 4));
        assert_eq!(Date::new(2016, 2, 28).add_days(1), Date::new(2016, 2, 29));
        assert_eq!(Date::new(2017, 2, 28).add_days(1), Date::new(2017, 3, 1));
        assert_eq!(Date::new(2018, 1, 10).add_days(-10), Date::new(2017, 12, 31));
    }

    #[test]
    fn weekday_known_values() {
        assert_eq!(Date::new(1970, 1, 1).weekday(), Weekday::Thursday);
        assert_eq!(Date::new(2019, 10, 21).weekday(), Weekday::Monday); // IMC'19 started
        assert_eq!(Date::new(2018, 12, 19).weekday(), Weekday::Wednesday); // Xmas2018 action
        assert_eq!(Date::new(2016, 10, 28).weekday(), Weekday::Friday); // HackForums SST closure
        assert_eq!(Date::new(2000, 1, 1).weekday(), Weekday::Saturday);
    }

    #[test]
    fn week_start_is_monday_on_or_before() {
        let d = Date::new(2018, 12, 19); // Wednesday
        assert_eq!(d.week_start(), Date::new(2018, 12, 17));
        assert_eq!(d.week_start().weekday(), Weekday::Monday);
        // A Monday is its own week start.
        let m = Date::new(2018, 12, 17);
        assert_eq!(m.week_start(), m);
        // Sunday maps back 6 days.
        assert_eq!(Date::new(2018, 12, 23).week_start(), m);
    }

    #[test]
    fn display_is_zero_padded_iso() {
        let general = |d: Date| format!("{:04}-{:02}-{:02}", d.year(), d.month(), d.day());
        let check = |d: Date| {
            assert_eq!(d.to_string(), general(d));
            let mut pushed = String::from("x");
            d.push_iso(&mut pushed);
            assert_eq!(pushed, format!("x{}", general(d)));
        };
        let mut d = Date::new(1999, 12, 1);
        while d < Date::new(2031, 2, 1) {
            check(d);
            d = d.add_days(1);
        }
        for d in [
            Date::new(7, 3, 9),
            Date::new(9999, 12, 31),
            Date::new(10_000, 1, 1),
            Date::new(-44, 3, 15),
        ] {
            check(d);
        }
        assert_eq!(Date::new(2018, 4, 24).to_string(), "2018-04-24");
    }

    #[test]
    fn leap_year_rules() {
        assert!(is_leap(2016));
        assert!(is_leap(2000));
        assert!(!is_leap(1900));
        assert!(!is_leap(2019));
        assert_eq!(days_in_month(2016, 2), 29);
        assert_eq!(days_in_month(2017, 2), 28);
        assert_eq!(days_in_month(2018, 4), 30);
        assert_eq!(days_in_month(2018, 8), 31);
    }

    #[test]
    fn ordinal_day_of_year() {
        assert_eq!(Date::new(2018, 1, 1).ordinal(), 1);
        assert_eq!(Date::new(2018, 12, 31).ordinal(), 365);
        assert_eq!(Date::new(2016, 12, 31).ordinal(), 366);
        assert_eq!(Date::new(2018, 3, 1).ordinal(), 60);
        assert_eq!(Date::new(2016, 3, 1).ordinal(), 61);
    }

    #[test]
    fn ordering_is_chronological() {
        assert!(Date::new(2018, 1, 2) > Date::new(2018, 1, 1));
        assert!(Date::new(2018, 2, 1) > Date::new(2018, 1, 31));
        assert!(Date::new(2019, 1, 1) > Date::new(2018, 12, 31));
    }

    #[test]
    fn days_since_signed() {
        let a = Date::new(2018, 4, 24);
        let b = Date::new(2018, 5, 1);
        assert_eq!(b.days_since(a), 7);
        assert_eq!(a.days_since(b), -7);
    }

    #[test]
    #[should_panic(expected = "invalid day")]
    fn invalid_date_rejected() {
        Date::new(2017, 2, 29);
    }

    #[test]
    #[should_panic(expected = "invalid month")]
    fn invalid_month_rejected() {
        Date::new(2017, 13, 1);
    }
}
