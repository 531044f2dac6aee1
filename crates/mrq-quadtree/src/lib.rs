//! The augmented quad-tree over the reduced query space (paper, Section 5.1).
//!
//! Both the basic approach (BA) and the advanced approach (AA) organise the
//! half-spaces induced by (a subset of) the incomparable records in a
//! space-partitioning index over the (d−1)-dimensional reduced query space.
//! The index is a quad-tree augmented with two sets per node:
//!
//! * the **full-containment set** — half-spaces that fully contain the node's
//!   region but do *not* contain its parent (recording those would be
//!   redundant, exactly as the paper notes);
//! * the **partial-overlap set** (leaves only) — half-spaces whose supporting
//!   hyperplane crosses the leaf.
//!
//! A leaf splits into its `2^(d−1)` quadrants when its partial-overlap set
//! exceeds a threshold; children that fall completely outside the permissible
//! simplex (`Σ q_i < 1`) are discarded.  Unlike the paper, which splits at
//! insert time, a leaf is split only when a [`Frontier`] — the best-first
//! walk of the cell enumeration — reaches it within the caller's bound on
//! `|F_l|`.  A node's sets do not depend on when it splits, so every leaf
//! the walk reaches is exactly the paper's (see [`Frontier`]); the leaves no
//! bound reaches are simply never refined.
//!
//! The leaves are listed by a borrowing walk ([`HalfSpaceQuadTree::leaf_walk`])
//! that yields each leaf's bounds, `|F_l|` and `P_l` without copying, and can
//! skip every subtree whose containment count already exceeds a cap.  `|F_l|`
//! is the lower bound on the order of every arrangement cell inside the leaf
//! that drives BA's and AA's leaf pruning.  `F_l` itself (the union of the
//! containment sets on the root-to-leaf path) is rebuilt from parent links
//! only when a caller needs the ids ([`HalfSpaceQuadTree::full_containment`]).
//!
//! # Storage
//!
//! The tree is flat.  Node `i`'s box is the `2·dr` values at `i·2·dr` of one
//! `Vec<f64>` (lower corner, then upper corner); half-space `h`'s
//! coefficients are the `dr` values at `h·dr` of another, each stored beside
//! a [`PreparedHalfSpace`](mrq_geometry::PreparedHalfSpace) holding its norm
//! and threshold, so a box test takes no square root.  Containment sets are
//! chains of `(id, next)` links in one arena, appended in insertion order;
//! a node keeps its chain's head, tail and length, its parent, its children
//! (a contiguous index range) and, while it is a leaf, its `P_l`, which
//! starts with room for `split_threshold + 1` ids.  A [`LeafRef`] borrows its
//! `lo`/`hi` corners and `P_l` straight from these arrays;
//! [`LeafRef::bounds`] builds an owned box for the few leaves that need one.

pub mod tree;

pub use tree::{Frontier, HalfSpaceId, HalfSpaceQuadTree, LeafRef, LeafWalk, QuadTreeConfig};
