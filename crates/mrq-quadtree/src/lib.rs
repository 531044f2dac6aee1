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
//! simplex (`Σ q_i < 1`) are discarded.
//!
//! The leaves are listed by a borrowing walk ([`HalfSpaceQuadTree::leaf_walk`])
//! that yields each leaf's bounds, `|F_l|` and `P_l` without copying, and can
//! skip every subtree whose containment count already exceeds a cap.  `|F_l|`
//! is the lower bound on the order of every arrangement cell inside the leaf
//! that drives BA's and AA's leaf pruning.  `F_l` itself (the union of the
//! containment sets on the root-to-leaf path) is rebuilt from parent links
//! only when a caller needs the ids ([`HalfSpaceQuadTree::full_containment`]).

pub mod tree;

pub use tree::{HalfSpaceId, HalfSpaceQuadTree, LeafRef, LeafWalk, QuadTreeConfig};
