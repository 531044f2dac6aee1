//! Computational-geometry substrate for the MaxRank reproduction.
//!
//! The MaxRank query (Mouratidis, Zhang, Pang — VLDB 2015) maps every data
//! record that is *incomparable* to the focal record into a half-space of the
//! (d−1)-dimensional *reduced query space*, and then reasons about the
//! arrangement of those half-spaces.  This crate provides the geometric
//! building blocks used by every higher layer:
//!
//! * [`vector`] — dense d-dimensional vector/score arithmetic,
//! * [`halfspace`] — hyperplanes and open half-spaces,
//! * [`boxes`] — axis-parallel boxes and box/half-space classification,
//! * [`reduced`] — the record → half-space mapping of Section 5 of the paper,
//! * [`lp`] — a dense two-phase simplex used to decide whether a cell of the
//!   arrangement has non-zero extent (the role Qhull plays in the paper),
//! * [`region`] — convex result regions (H-representation + interior witness).
//!
//! Everything is `f64`-based; the numerical tolerances used throughout are
//! collected in [`EPS`] and [`FEASIBILITY_SLACK`].

pub mod boxes;
pub mod halfspace;
pub mod lp;
pub mod reduced;
pub mod region;
pub mod vector;

pub use boxes::{BoundingBox, BoxRelation, PreparedHalfSpace};
pub use halfspace::{HalfSpace, Hyperplane};
pub use lp::{maximize, maximize_with, LpOutcome, LpScratch, LpStatus};
pub use reduced::{
    halfline_for_record, halfspace_for_record, reduced_simplex_constraint, reduced_space_box,
    HalfLine2d,
};
pub use region::{interval_region, CellSpec, Region};
pub use vector::{dot, l1_norm, l2_norm, score, sub};

/// Geometric tolerance used for classification decisions (containment,
/// disjointness, sign tests).
pub const EPS: f64 = 1e-9;

/// Minimum interior slack for a cell to be considered full-dimensional
/// (non-zero extent).  The paper ignores score ties / degenerate cells; we
/// make the same choice explicit through this threshold.
pub const FEASIBILITY_SLACK: f64 = 1e-7;
