//! The intervention timeline of §2 — every event labelled in Figure 1.

use booters_timeseries::Date;

/// Identifier for each intervention event in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EventId {
    /// Operation Vivarium: UK arrests of LizardStresser users (2015-08-28).
    OperationVivarium,
    /// Sentencing of a Vivarium-linked teenager (2015-12-22).
    SentencingVivarium,
    /// Krebs' vDOS exposé and the Israeli arrests (2016-09-08).
    KrebsVdosArrests,
    /// LizardStresser operator arrests in the US/NL (2016-10-06).
    LizardStresserArrests,
    /// HackForums closes its Server Stress Testing section (2016-10-28).
    HackForumsClosure,
    /// Europol-coordinated international action against users (2016-12-05).
    InternationalUserAction,
    /// Titaniumstresser operator sentenced (2017-04-25).
    TitaniumSentencing,
    /// NCA Google search advert campaign (UK only), Dec 2017 – Jun 2018.
    NcaAds,
    /// vDOS-linked sentencing (2017-12-19).
    VdosSentencing,
    /// LizardStresser operator sentenced in the US (2018-03-27).
    LizardStresserSentencing,
    /// Dejabooter operator sentenced (2018-04-08).
    DejabooterSentencing,
    /// Webstresser takedown and admin arrests (2018-04-24).
    WebstresserTakedown,
    /// First Mirai sentencing (2018-09-18).
    MiraiSentencing1,
    /// Second Mirai sentencing and related actions (2018-10-26).
    MiraiSentencing2,
    /// FBI Xmas2018 action: 15 domains seized, three operators arrested
    /// (2018-12-19).
    Xmas2018,
}

/// The operational category of an intervention (§6 discusses effects by
/// type).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Arrests of users or operators.
    Arrests,
    /// Court case / sentencing publicity.
    Sentencing,
    /// Takedown of booter website(s)/domains.
    Takedown,
    /// Closure of a market shop-front (forum section).
    ForumClosure,
    /// Targeted messaging (the NCA search adverts).
    Messaging,
}

/// One intervention event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterventionEvent {
    /// Which event.
    pub id: EventId,
    /// Figure 1's label.
    pub name: &'static str,
    /// Date of the event (campaigns use their start date).
    pub date: Date,
    /// For campaigns, the end date.
    pub end_date: Option<Date>,
    /// Category.
    pub kind: EventKind,
}

/// The timeline, in [`EventId`] declaration order (which is
/// chronological up to the NCA campaign/vDOS sentencing near-tie).
static TIMELINE: [InterventionEvent; 15] = [
    InterventionEvent {
        id: EventId::OperationVivarium,
        name: "Operation Vivarium",
        date: Date::new(2015, 8, 28),
        end_date: None,
        kind: EventKind::Arrests,
    },
    InterventionEvent {
        id: EventId::SentencingVivarium,
        name: "Sentencing Vivarium",
        date: Date::new(2015, 12, 22),
        end_date: None,
        kind: EventKind::Sentencing,
    },
    InterventionEvent {
        id: EventId::KrebsVdosArrests,
        name: "Krebs vDOS leaks and arrests",
        date: Date::new(2016, 9, 8),
        end_date: None,
        kind: EventKind::Arrests,
    },
    InterventionEvent {
        id: EventId::LizardStresserArrests,
        name: "Lizardstresser arrests",
        date: Date::new(2016, 10, 6),
        end_date: None,
        kind: EventKind::Arrests,
    },
    InterventionEvent {
        id: EventId::HackForumsClosure,
        name: "Hackforums shuts down SST section",
        date: Date::new(2016, 10, 28),
        end_date: None,
        kind: EventKind::ForumClosure,
    },
    InterventionEvent {
        id: EventId::InternationalUserAction,
        name: "International action against users",
        date: Date::new(2016, 12, 5),
        end_date: None,
        kind: EventKind::Arrests,
    },
    InterventionEvent {
        id: EventId::TitaniumSentencing,
        name: "Titaniumstresser sentencing",
        date: Date::new(2017, 4, 25),
        end_date: None,
        kind: EventKind::Sentencing,
    },
    InterventionEvent {
        id: EventId::NcaAds,
        name: "NCA Google ads",
        date: Date::new(2017, 12, 25),
        end_date: Some(Date::new(2018, 6, 30)),
        kind: EventKind::Messaging,
    },
    InterventionEvent {
        id: EventId::VdosSentencing,
        name: "vDOS sentencing",
        date: Date::new(2017, 12, 19),
        end_date: None,
        kind: EventKind::Sentencing,
    },
    InterventionEvent {
        id: EventId::LizardStresserSentencing,
        name: "Lizardstresser sentenced",
        date: Date::new(2018, 3, 27),
        end_date: None,
        kind: EventKind::Sentencing,
    },
    InterventionEvent {
        id: EventId::DejabooterSentencing,
        name: "Dejabooter sentenced",
        date: Date::new(2018, 4, 8),
        end_date: None,
        kind: EventKind::Sentencing,
    },
    InterventionEvent {
        id: EventId::WebstresserTakedown,
        name: "Webstresser takedown",
        date: Date::new(2018, 4, 24),
        end_date: None,
        kind: EventKind::Takedown,
    },
    InterventionEvent {
        id: EventId::MiraiSentencing1,
        name: "Mirai sentencing 1",
        date: Date::new(2018, 9, 18),
        end_date: None,
        kind: EventKind::Sentencing,
    },
    InterventionEvent {
        id: EventId::MiraiSentencing2,
        name: "Mirai sentencing 2",
        date: Date::new(2018, 10, 26),
        end_date: None,
        kind: EventKind::Sentencing,
    },
    InterventionEvent {
        id: EventId::Xmas2018,
        name: "Xmas 2018 event",
        date: Date::new(2018, 12, 19),
        end_date: None,
        kind: EventKind::Takedown,
    },
];

/// The full timeline, chronological.
pub fn timeline() -> &'static [InterventionEvent] {
    &TIMELINE
}

/// Look up one event. The timeline lists the events in [`EventId`]
/// declaration order, so the id is the index.
pub fn event(id: EventId) -> &'static InterventionEvent {
    &TIMELINE[id as usize]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeline_is_chronological_and_complete() {
        let t = timeline();
        assert_eq!(t.len(), 15);
        for w in t.windows(2) {
            // NCA ads (25 Dec) and vDOS sentencing (19 Dec) are the only
            // near-tie; the list is sorted by the narrative of §2, allow
            // 7-day slack.
            assert!(
                w[1].date.days_since(w[0].date) >= -7,
                "{} before {}",
                w[1].name,
                w[0].name
            );
        }
    }

    #[test]
    fn event_ids_index_the_timeline() {
        for (i, e) in timeline().iter().enumerate() {
            assert_eq!(e.id as usize, i, "{}", e.name);
            assert_eq!(event(e.id), e);
        }
    }

    #[test]
    fn key_dates_match_the_paper() {
        assert_eq!(event(EventId::Xmas2018).date, Date::new(2018, 12, 19));
        assert_eq!(event(EventId::WebstresserTakedown).date, Date::new(2018, 4, 24));
        assert_eq!(event(EventId::HackForumsClosure).date, Date::new(2016, 10, 28));
        assert_eq!(event(EventId::VdosSentencing).date, Date::new(2017, 12, 19));
        assert_eq!(event(EventId::MiraiSentencing2).date, Date::new(2018, 10, 26));
    }

    #[test]
    fn nca_campaign_has_an_end_date() {
        let e = event(EventId::NcaAds);
        assert_eq!(e.kind, EventKind::Messaging);
        let end = e.end_date.expect("campaign end");
        assert!(end > e.date);
        // Roughly six months.
        let days = end.days_since(e.date);
        assert!((150..230).contains(&days), "campaign {days} days");
    }

    #[test]
    fn kinds_are_assigned_sensibly() {
        assert_eq!(event(EventId::Xmas2018).kind, EventKind::Takedown);
        assert_eq!(event(EventId::HackForumsClosure).kind, EventKind::ForumClosure);
        assert_eq!(event(EventId::MiraiSentencing1).kind, EventKind::Sentencing);
        assert_eq!(event(EventId::OperationVivarium).kind, EventKind::Arrests);
    }
}
