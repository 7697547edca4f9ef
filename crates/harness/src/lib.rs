//! Experiment harness: everything needed to regenerate the paper's tables
//! and figures.
//!
//! * [`space`] — enumeration of the affordable design space (every
//!   `union`/`inter` scheme up to the paper's 2^24-bit budget, Section 5.4);
//! * [`runner`] — parallel, panic-isolated evaluation of schemes over the
//!   benchmark suite, including the single-pass family sweep that
//!   evaluates all depths of `union` and `inter` together, with optional
//!   resumable checkpointing;
//! * [`cache`] — a checksummed on-disk cache of generated traces with
//!   atomic writes and quarantine-on-corruption;
//! * [`checkpoint`] — the crash-safe sweep-result log behind the
//!   `*_checkpointed` runners;
//! * [`error`] — the structured [`error::HarnessError`] the library
//!   surfaces instead of panicking;
//! * [`engines`] — the [`engines::Engine`] adapter layer putting the
//!   reference evaluator, the production kernel and the sharded serving
//!   engine behind one trait with bit-identity cross-checks, shared by
//!   the benchmark barometer (`csp-bar`);
//! * [`serve`] — serve-backed evaluation through the online sharded
//!   engine (`csp-serve`) and the online == offline equivalence check
//!   behind `csp-repro --verify-serve`;
//! * [`render`] — plain-text tables and bar "figures" for terminals;
//! * [`experiments`] — one driver per table/figure of the paper (Tables
//!   3–11, Figures 6–9) plus the extension experiments from `DESIGN.md`.
//!
//! The `csp-repro` binary exposes all of it from the command line:
//!
//! ```text
//! csp-repro all            # every table and figure
//! csp-repro table8         # one experiment
//! csp-repro --scale 0.2 fig6
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code must surface failures as typed errors, not unwrap panics;
// tests opt back in where unwrapping is the assertion.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod cache;
pub mod checkpoint;
pub mod engines;
pub mod error;
pub mod experiments;
pub mod render;
pub mod runner;
pub mod serve;
pub mod space;

pub use cache::{CacheOutcome, TraceCache};
pub use error::HarnessError;
pub use runner::{PreparedSuite, SchemeStats, Suite, SweepFailure, SweepOutcome};
