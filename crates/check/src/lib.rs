//! `seuss-check` — a minimal, fully deterministic property-testing
//! harness, in-tree so the workspace builds and tests with **zero**
//! external dependencies.
//!
//! SEUSS's claims are mechanism invariants — page-level COW sharing,
//! snapshot-stack diffs, dirty-page accounting — exactly the kind of
//! properties randomized state exploration validates well. This crate
//! replaces `proptest` with the ~20% of it those suites actually use:
//!
//! * **Seeded generators** built on [`simcore::SimRng`] — every case's
//!   seed derives from the property name and case index, never the wall
//!   clock, so runs are hermetic and byte-replayable.
//! * **A [`Gen`] trait** with integer/bool/vector/tuple/choice
//!   combinators; suites write their domain generators on top of them.
//! * **Binary-search shrinking**: integers bisect toward zero, vectors
//!   drop halving-sized chunks, tuples shrink componentwise. Failures
//!   report both the raw and the minimized counterexample.
//! * **Failure-seed replay**: every report names the seed; re-run just
//!   that case with `SEUSS_CHECK_SEED=<seed> cargo test`. Case counts
//!   scale with `SEUSS_CHECK_CASES=<n>`. Both must be positive integers;
//!   anything else panics, naming the variable.
//!
//! # Examples
//!
//! ```
//! use seuss_check::{check, ensure, gen};
//!
//! // "reversing twice is the identity", 64 deterministic cases
//! check(
//!     "reverse_roundtrip",
//!     &gen::vecs(gen::range(0u32, 1000), 0, 50),
//!     |v| {
//!         let mut w = v.clone();
//!         w.reverse();
//!         w.reverse();
//!         ensure!(&w == v, "round trip changed the vector");
//!         Ok(())
//!     },
//! );
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod gen;
pub mod runner;

pub use gen::{bools, choice, just, one_of, range, vecs, BoxedGen, Gen};
pub use runner::{check, check_with, run_check, Config, Failure, CASES_ENV, SEED_ENV};
// Custom `Gen` impls need the RNG type; re-export it so test crates
// don't have to depend on simcore directly.
pub use simcore::SimRng;
