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
//! a [`PreparedHalfSpace`](mrq_geometry::PreparedHalfSpace) holding its cut,
//! so a box test takes neither a square root nor a division.
//! [`HalfSpaceQuadTree::insert_row`] takes the coefficients as a borrowed
//! slice, so a caller mapping records into the tree allocates nothing per
//! half-space.  Containment sets are
//! chains of `(id, next)` links in one arena, appended in insertion order;
//! a node keeps its chain's head, tail and length, its parent, its children
//! (a contiguous index range) and, while it is a leaf, its `P_l`, which
//! has room for at least `split_threshold + 1` ids.  A [`LeafRef`] borrows its
//! `lo`/`hi` corners and `P_l` straight from these arrays;
//! [`LeafRef::bounds`] builds an owned box for the few leaves that need one.
//!
//! # Splitting
//!
//! A split walks the leaf's `P_l` once.  Every child box is cut from the
//! same grid (`lo`, `mid`, `hi` along each dimension, `3^dr` points), so
//! each half-space needs only the `3·dr` products `c_i · {lo_i, mid_i,
//! hi_i}`; each surviving child's minimum and maximum of `c · x` are summed
//! from them in coordinate order, exactly as a box test over that child
//! sums them, and compared with the half-space's cut.  The ids go into
//! per-child rows without a branch, and each child's containment chain and
//! `P_l` are then appended in id order, so the tree is bit for bit the one
//! a child-at-a-time split builds.  The kernel is compiled with a constant `dr`
//! for `dr` = 2 and 3 (data of three and four dimensions, where that was
//! measured to help) and once with `dr` read at run time for the rest; its
//! buffers live in the tree and are reused by every split.  A
//! [`Frontier`] counts the splits it makes and the box tests they take
//! (`|P_l|` per surviving child).

pub mod tree;

pub use tree::{Frontier, HalfSpaceId, HalfSpaceQuadTree, LeafRef, LeafWalk, QuadTreeConfig};
