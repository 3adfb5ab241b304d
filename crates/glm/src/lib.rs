#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]
//! Generalised linear models from scratch.
//!
//! The paper fits negative binomial (NB2) regressions to weekly DoS attack
//! counts ("We use a negative binomial rather than poisson regression
//! model, as the events ... are not independent"). No mature Rust GLM
//! library exists, so this crate implements the textbook machinery
//! (Hardin & Hilbe, *Generalized Linear Models and Extensions*; Cameron &
//! Trivedi, *Regression Analysis of Count Data*):
//!
//! * [`link`] — link functions (identity, log).
//! * [`family`] — exponential-family variance/deviance/likelihood
//!   definitions (Gaussian, Poisson, NB2 with fixed α).
//! * [`irls`] — the iteratively reweighted least squares fitter shared by
//!   every family.
//! * [`poisson`] — Poisson regression (the baseline the paper rejects in
//!   favour of NB because of overdispersion).
//! * [`negbin`] — NB2 regression with dispersion α estimated by profile
//!   maximum likelihood, the paper's actual model.
//! * [`ols`] — ordinary least squares with full inference (used for the
//!   Figure 5 slopes and as the substrate of White's test).
//! * [`inference`] — Wald z/p/confidence intervals, model-based and HC1
//!   sandwich ("pseudolikelihood") covariance, incidence-rate ratios.
//! * [`summary`] — Table 1-style rendering of a fitted model.
//! * [`workspace`] — the allocation-free IRLS core: a reusable buffer
//!   arena ([`IrlsWorkspace`]) plus warm-start continuation, which the
//!   profile-α loop in [`negbin`] exploits to cut fit time.

pub mod family;
pub mod inference;
pub mod irls;
pub mod link;
pub mod negbin;
pub mod ols;
pub mod poisson;
pub mod summary;
pub mod workspace;

pub use family::{Family, Gaussian, NegBin2, PoissonFamily};
pub use inference::{joint_wald_test, CoefEstimate, CovarianceKind, FitInference};
pub use irls::{fit_irls, fit_irls_offset, lr_test, GlmError, GlmFit, IrlsOptions};
pub use link::{IdentityLink, Link, LogLink};
pub use negbin::{fit_negbin, fit_negbin_with, NegBinFit, NegBinOptions};
pub use ols::{fit_ols, OlsFit};
pub use poisson::{fit_poisson, fit_poisson_with};
pub use workspace::{fit_irls_into, IrlsWorkspace, WarmStart};
