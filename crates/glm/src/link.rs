//! Link functions mapping the linear predictor η to the mean μ.

/// A GLM link function g with μ = g⁻¹(η).
pub trait Link {
    /// g(μ) — the link itself.
    fn link(&self, mu: f64) -> f64;
    /// g⁻¹(η) — the inverse link (mean function).
    fn inverse(&self, eta: f64) -> f64;
    /// dμ/dη evaluated at η.
    fn d_inverse(&self, eta: f64) -> f64;
    /// Short name for summaries.
    fn name(&self) -> &'static str;
}

/// Identity link (Gaussian default): μ = η.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdentityLink;

impl Link for IdentityLink {
    fn link(&self, mu: f64) -> f64 {
        mu
    }
    fn inverse(&self, eta: f64) -> f64 {
        eta
    }
    fn d_inverse(&self, _eta: f64) -> f64 {
        1.0
    }
    fn name(&self) -> &'static str {
        "identity"
    }
}

/// Log link (count-model default): μ = exp(η).
///
/// η is clamped to ±`LogLink::ETA_CLAMP` before exponentiation so a wild
/// IRLS step cannot produce an infinite mean and poison the weights.
#[derive(Debug, Clone, Copy, Default)]
pub struct LogLink;

impl LogLink {
    /// Clamp bound for the linear predictor (e^30 ≈ 1.07e13 — far above
    /// any weekly attack count, far below overflow).
    pub const ETA_CLAMP: f64 = 30.0;
}

impl Link for LogLink {
    fn link(&self, mu: f64) -> f64 {
        mu.max(f64::MIN_POSITIVE).ln()
    }
    fn inverse(&self, eta: f64) -> f64 {
        eta.clamp(-Self::ETA_CLAMP, Self::ETA_CLAMP).exp()
    }
    fn d_inverse(&self, eta: f64) -> f64 {
        self.inverse(eta)
    }
    fn name(&self) -> &'static str {
        "log"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_roundtrip() {
        let l = IdentityLink;
        assert_eq!(l.inverse(l.link(3.5)), 3.5);
        assert_eq!(l.d_inverse(3.5), 1.0);
    }

    #[test]
    fn log_roundtrip_and_derivative() {
        let l = LogLink;
        for &mu in &[0.1, 1.0, 100.0, 1e6] {
            assert!((l.inverse(l.link(mu)) - mu).abs() / mu < 1e-12);
        }
        // dμ/dη = μ for the log link.
        let eta = 2.0;
        let h = 1e-7;
        let numeric = (l.inverse(eta + h) - l.inverse(eta - h)) / (2.0 * h);
        assert!((l.d_inverse(eta) - numeric).abs() < 1e-4);
    }

    #[test]
    fn log_clamps_extreme_eta() {
        let l = LogLink;
        assert!(l.inverse(1e9).is_finite());
        assert!(l.inverse(-1e9) > 0.0);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(IdentityLink.name(), "identity");
        assert_eq!(LogLink.name(), "log");
    }
}
