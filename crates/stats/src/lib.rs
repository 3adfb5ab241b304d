#![allow(clippy::needless_range_loop)]
#![allow(clippy::module_inception)]
#![warn(missing_docs)]
//! Statistical foundation for the booters analysis stack.
//!
//! There is no mature GLM/statistics crate in the allowed dependency set, so
//! this crate implements from scratch everything the paper's analysis needs:
//!
//! * [`special`] — log-gamma, digamma, trigamma, the complementary error
//!   function and the regularised incomplete gamma/beta functions (the
//!   bedrock of every CDF).
//! * [`dist`] — probability distributions (Normal, Poisson, Negative
//!   Binomial, Gamma, Chi-squared, Student's t, F) with mass function, CDF,
//!   quantile and seedable sampling.
//! * [`describe`] — descriptive statistics: moments, skewness, kurtosis,
//!   Pearson correlation, autocorrelation.
//! * [`tests`] — the hypothesis tests used in §3 of the paper to validate
//!   booter self-reports: White's heteroskedasticity test, the D'Agostino
//!   K² skewness/kurtosis normality test, Jarque–Bera, Ljung–Box, and the
//!   prime-divisibility "multiplier" check.

pub mod describe;
pub mod dist;
pub mod special;
pub mod tests;

pub use dist::{
    ChiSquared, FDist, GammaDist, NegativeBinomial, Normal, Poisson, StudentsT,
};
