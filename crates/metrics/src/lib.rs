//! Screening-test statistics for sharing prediction.
//!
//! Section 4 of the paper imports the vocabulary of epidemiological
//! screening and polygraph testing (after Gastwirth 1987) to score sharing
//! predictors. Every per-node decision falls into one of four cells of a
//! confusion matrix ([`ConfusionMatrix`]); the derived [`Screening`] rates
//! are
//!
//! * **prevalence** — how much sharing actually happens; the upper bound on
//!   any predictor's benefit,
//! * **sensitivity** — the fraction of real sharing the predictor captured,
//! * **PVP** (predictive value of a positive test) — the fraction of
//!   forwarding traffic that was useful; the only metric prior studies
//!   reported,
//! * plus **specificity** and **PVN**, which the paper names but does not
//!   use, and Gastwirth-style standard errors ([`precision`]).
//!
//! # Example
//!
//! ```
//! use csp_metrics::ConfusionMatrix;
//! use csp_trace::{NodeId, SharingBitmap};
//!
//! let mut m = ConfusionMatrix::default();
//! let predicted = SharingBitmap::from_nodes(&[NodeId(1), NodeId(2)]);
//! let actual = SharingBitmap::from_nodes(&[NodeId(2), NodeId(3)]);
//! m.record(predicted, actual, 16);
//! assert_eq!(m.tp, 1); // node 2
//! assert_eq!(m.fp, 1); // node 1
//! assert_eq!(m.fn_, 1); // node 3
//! assert_eq!(m.tn, 13);
//! let s = m.screening();
//! assert!((s.sensitivity - 0.5).abs() < 1e-12);
//! assert!((s.pvp - 0.5).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
mod confusion;
pub mod online;
pub mod precision;
mod screening;

pub use confusion::ConfusionMatrix;
pub use online::OnlineConfusion;
pub use screening::Screening;
