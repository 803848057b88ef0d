//! Statistics for simulation experiments.
//!
//! Turning raw Monte-Carlo runs into the rows of the paper's tables needs a
//! small, dependable statistics layer:
//!
//! * [`Summary`] — streaming mean/variance (Welford), min/max, quantiles,
//!   and normal-approximation 95% confidence intervals.
//! * [`LinearFit`] / [`fit_against`] — least-squares fits used to estimate
//!   scaling shapes (`T(n) ≈ a·lg n + b`, power-law exponents on log-log
//!   axes).
//! * [`Histogram`] — integer histograms with tail sums, for survivor-count
//!   distributions (Lemma 7).
//! * [`chi_square_homogeneity`] / [`quantile_bins`] — Pearson homogeneity
//!   tests over shared quantile bins, used to pin the engines' execution
//!   paths (per-agent, compiled, jump-scheduled) to one stabilization law.
//! * [`two_proportion_z`] — the pooled two-sample proportion test the
//!   equivalence suites apply at a sensitive quantile.
//! * [`theory`] — closed-form reference curves from the paper: the lottery
//!   game bound `2^{1−i}`, the Lemma 2 epidemic tail, coupon collector,
//!   harmonic numbers, Chernoff evaluators, and fratricide's exact
//!   stabilization law.
//! * [`Table`] — plain-text/markdown/CSV rendering for experiment output.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod binomial;
mod chisq;
mod histogram;
mod regression;
mod summary;
mod table;
pub mod theory;

pub use binomial::{two_proportion_z, wilson95, wilson_interval};
pub use chisq::{
    chi_square_critical, chi_square_homogeneity, chi_square_samples, quantile_bins, ChiSquare,
};
pub use histogram::Histogram;
pub use regression::{fit_against, fit_log2, fit_power_law, LinearFit};
pub use summary::Summary;
pub use table::Table;
