//! The UDP protocols abused for reflection, with ports and amplification
//! factors.
//!
//! The paper's honeypots cover "QOTD, CHARGEN, time, DNS, PORTMAP, NTP,
//! LDAP, MSSQL Monitor, MDNS, and SSDP" (§3). Amplification factors follow
//! the published measurements (Rossow's "Amplification Hell" NDSS 2014 and
//! the US-CERT TA14-017A advisory); they drive which protocols booters
//! prefer in which era (§4.2: LDAP's "large amplification factor ... has
//! driven its popularity").

use std::fmt;

/// A UDP protocol abused for reflection attacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum UdpProtocol {
    /// Quote of the Day (port 17).
    Qotd,
    /// Character generator (port 19).
    Chargen,
    /// Time protocol (port 37).
    Time,
    /// Domain Name System (port 53).
    Dns,
    /// ONC RPC portmapper (port 111).
    Portmap,
    /// Network Time Protocol `monlist` (port 123).
    Ntp,
    /// Connectionless LDAP (port 389).
    Ldap,
    /// Microsoft SQL Server Resolution (port 1434).
    Mssql,
    /// Multicast DNS (port 5353).
    Mdns,
    /// Simple Service Discovery Protocol (port 1900).
    Ssdp,
}

impl UdpProtocol {
    /// All simulated protocols, in dataset order.
    pub const ALL: [UdpProtocol; 10] = [
        UdpProtocol::Qotd,
        UdpProtocol::Chargen,
        UdpProtocol::Time,
        UdpProtocol::Dns,
        UdpProtocol::Portmap,
        UdpProtocol::Ntp,
        UdpProtocol::Ldap,
        UdpProtocol::Mssql,
        UdpProtocol::Mdns,
        UdpProtocol::Ssdp,
    ];

    /// UDP port the service listens on.
    pub fn port(&self) -> u16 {
        match self {
            UdpProtocol::Qotd => 17,
            UdpProtocol::Chargen => 19,
            UdpProtocol::Time => 37,
            UdpProtocol::Dns => 53,
            UdpProtocol::Portmap => 111,
            UdpProtocol::Ntp => 123,
            UdpProtocol::Ldap => 389,
            UdpProtocol::Mssql => 1434,
            UdpProtocol::Mdns => 5353,
            UdpProtocol::Ssdp => 1900,
        }
    }

    /// Approximate number of genuine (non-honeypot) open reflectors on the
    /// Internet for this protocol, scaled to simulation units. LDAP's small
    /// real population is why "the honeypots are likely to be used" and the
    /// LDAP data is "very representative" (§4.2).
    pub fn real_reflector_population(&self) -> usize {
        match self {
            UdpProtocol::Qotd => 2_000,
            UdpProtocol::Chargen => 4_000,
            UdpProtocol::Time => 1_500,
            UdpProtocol::Dns => 200_000,
            UdpProtocol::Portmap => 15_000,
            UdpProtocol::Ntp => 40_000,
            UdpProtocol::Ldap => 800,
            UdpProtocol::Mssql => 5_000,
            UdpProtocol::Mdns => 10_000,
            UdpProtocol::Ssdp => 60_000,
        }
    }

    /// Dataset label, matching the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            UdpProtocol::Qotd => "QOTD",
            UdpProtocol::Chargen => "CHARGEN",
            UdpProtocol::Time => "TIME",
            UdpProtocol::Dns => "DNS",
            UdpProtocol::Portmap => "PORTMAP",
            UdpProtocol::Ntp => "NTP",
            UdpProtocol::Ldap => "LDAP",
            UdpProtocol::Mssql => "MSSQL",
            UdpProtocol::Mdns => "MDNS",
            UdpProtocol::Ssdp => "SSDP",
        }
    }

    /// Parse a dataset label.
    pub fn from_label(label: &str) -> Option<UdpProtocol> {
        UdpProtocol::ALL.iter().copied().find(|p| p.label() == label)
    }

    /// Index of this protocol within [`UdpProtocol::ALL`].
    pub fn index(&self) -> usize {
        UdpProtocol::ALL.iter().position(|p| p == self).expect("protocol in ALL")
    }
}

impl fmt::Display for UdpProtocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ports_are_distinct_and_well_known() {
        let mut ports: Vec<u16> = UdpProtocol::ALL.iter().map(|p| p.port()).collect();
        ports.sort_unstable();
        ports.dedup();
        assert_eq!(ports.len(), 10, "duplicate ports");
        assert_eq!(UdpProtocol::Dns.port(), 53);
        assert_eq!(UdpProtocol::Ntp.port(), 123);
        assert_eq!(UdpProtocol::Ldap.port(), 389);
    }

    #[test]
    fn ldap_has_smallest_real_population() {
        let ldap = UdpProtocol::Ldap.real_reflector_population();
        for p in UdpProtocol::ALL {
            if p != UdpProtocol::Ldap {
                assert!(p.real_reflector_population() > ldap, "{p}");
            }
        }
    }

    #[test]
    fn labels_roundtrip() {
        for p in UdpProtocol::ALL {
            assert_eq!(UdpProtocol::from_label(p.label()), Some(p));
        }
        assert_eq!(UdpProtocol::from_label("NOPE"), None);
    }

    #[test]
    fn index_matches_all_order() {
        for (i, p) in UdpProtocol::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
    }

    #[test]
    fn display_matches_label() {
        assert_eq!(UdpProtocol::Ssdp.to_string(), "SSDP");
    }
}
