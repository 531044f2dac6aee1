//! MaxRank query processing — the primary contribution of the paper.
//!
//! Given a dataset `D`, a focal record `p` and (optionally) a slack `τ`, the
//! **MaxRank** query reports the best attainable rank `k*` of `p` under any
//! permissible linear preference vector, together with *all* regions of the
//! (reduced) query space where that rank — or, for **iMaxRank**, any rank up
//! to `k* + τ` — is attained.
//!
//! Three algorithms are provided, mirroring the paper:
//!
//! * [`fca`] — the first-cut algorithm for `d = 2` (Section 4), which sorts
//!   the score-line intersections;
//! * [`ba`] — the basic approach for `d ≥ 2` (Section 5): map every
//!   incomparable record to a half-space of the reduced query space, index
//!   the half-spaces in an augmented quad-tree, prune leaves by their
//!   full-containment cardinality and enumerate cells within the surviving
//!   leaves by Hamming weight;
//! * [`aa`] — the advanced approach (Section 6): maintain a *mixed
//!   arrangement* of singular and augmented half-spaces driven by the
//!   incrementally maintained skyline of the incomparable records, expanding
//!   augmented half-spaces only when they could affect the result.  The
//!   specialised 2-d variant of Section 6.3 ([`aa2d`]) keeps the arrangement
//!   in a sorted list of half-lines instead of a quad-tree.
//!
//! [`oracle`] holds reference implementations (query-vector sampling and
//! exhaustive cell enumeration) used by the tests, and [`query`] a convenient
//! façade that picks the right algorithm.

#![warn(missing_docs)]

pub mod aa;
pub mod aa2d;
pub mod ba;
pub(crate) mod common;
pub mod fca;
pub mod maintain;
pub mod oracle;
pub mod query;
pub mod result;
pub mod withinleaf;

pub use maintain::{classify_delta, shift_result, triage_batch, triage_delete, triage_insert};
pub use maintain::{BatchTriage, DeltaClass, DeltaTriage, TriageTally};
pub use query::{Algorithm, MaxRankConfig, MaxRankQuery};
pub use result::{MaxRankResult, QueryStats, ResultRegion};
