//! Implementation of the augmented half-space quad-tree.

use mrq_geometry::{reduced_simplex_constraint, BoundingBox, BoxRelation, HalfSpace};
use std::ops::Range;

/// Identifier of a half-space stored in the tree (insertion order).
pub type HalfSpaceId = u32;

/// Split/depth configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuadTreeConfig {
    /// A leaf splits when its partial-overlap set grows beyond this size.
    pub split_threshold: usize,
    /// Maximum tree depth (the root has depth 0).  Bounds memory: a split
    /// creates `2^(d−1)` children, so high-dimensional trees stay shallow.
    pub max_depth: usize,
}

impl QuadTreeConfig {
    /// A reasonable default for the given reduced dimensionality `d − 1`:
    /// the split threshold keeps within-leaf bit-string enumeration cheap,
    /// while the depth cap keeps the number of nodes bounded as the fan-out
    /// (`2^(d−1)`) grows.
    pub fn for_reduced_dims(dr: usize) -> Self {
        let max_depth = match dr {
            0 | 1 => 16,
            2 => 9,
            3 => 6,
            4 => 5,
            5 => 4,
            _ => 3,
        };
        Self {
            split_threshold: 12,
            max_depth,
        }
    }
}

/// A borrowed view of one leaf, as yielded by [`HalfSpaceQuadTree::leaf_walk`].
///
/// Nothing is copied: `F_l` is carried only as its size, and the ids are
/// rebuilt on demand by [`HalfSpaceQuadTree::full_containment`].
#[derive(Debug, Clone, Copy)]
pub struct LeafRef<'a> {
    /// Index of the leaf node inside the tree (stable across insertions that
    /// do not split it).
    pub node: usize,
    /// The leaf's region.
    pub bounds: &'a BoundingBox,
    /// `|F_l|`: how many half-spaces fully contain the leaf.
    pub full_len: usize,
    /// `P_l`: ids of half-spaces partially overlapping the leaf.
    pub partial: &'a [HalfSpaceId],
}

#[derive(Debug, Clone)]
enum NodeKind {
    Leaf {
        partial: Vec<HalfSpaceId>,
    },
    /// A split creates all of a node's children in one go, so their indices
    /// are contiguous.
    Internal {
        children: Range<usize>,
    },
}

#[derive(Debug, Clone)]
struct QNode {
    bounds: BoundingBox,
    depth: usize,
    /// Index of the parent node (`None` for the root); lets
    /// `full_containment` walk a leaf's path without a stored copy of `F_l`.
    parent: Option<usize>,
    /// Half-spaces fully containing this node but not its parent.
    containment: Vec<HalfSpaceId>,
    kind: NodeKind,
}

/// The augmented quad-tree over the reduced query space `[0,1]^(d−1)`.
#[derive(Debug, Clone)]
pub struct HalfSpaceQuadTree {
    dr: usize,
    config: QuadTreeConfig,
    simplex: HalfSpace,
    halfspaces: Vec<HalfSpace>,
    nodes: Vec<QNode>,
    root: usize,
}

impl HalfSpaceQuadTree {
    /// Creates an empty tree over the `dr`-dimensional reduced query space
    /// (for data dimensionality `d`, `dr = d − 1`).
    pub fn new(dr: usize) -> Self {
        Self::with_config(dr, QuadTreeConfig::for_reduced_dims(dr))
    }

    /// Creates an empty tree with an explicit configuration.
    pub fn with_config(dr: usize, config: QuadTreeConfig) -> Self {
        assert!(
            dr >= 1,
            "the reduced query space has at least one dimension"
        );
        let root = QNode {
            bounds: BoundingBox::unit(dr),
            depth: 0,
            parent: None,
            containment: Vec::new(),
            kind: NodeKind::Leaf {
                partial: Vec::new(),
            },
        };
        Self {
            dr,
            config,
            simplex: reduced_simplex_constraint(dr + 1),
            halfspaces: Vec::new(),
            nodes: vec![root],
            root: 0,
        }
    }

    /// Dimensionality of the reduced query space.
    pub fn reduced_dims(&self) -> usize {
        self.dr
    }

    /// Number of half-spaces inserted so far.
    pub fn halfspace_count(&self) -> usize {
        self.halfspaces.len()
    }

    /// Borrow a stored half-space by id.
    pub fn halfspace(&self, id: HalfSpaceId) -> &HalfSpace {
        &self.halfspaces[id as usize]
    }

    /// Total number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of leaves (including leaves that are partially outside the
    /// permissible simplex; fully outside leaves are never created).
    pub fn leaf_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n.kind, NodeKind::Leaf { .. }))
            .count()
    }

    /// Inserts a half-space of the reduced query space, returning its id.
    ///
    /// # Panics
    /// Panics if the half-space dimensionality does not match the tree's.
    pub fn insert(&mut self, h: HalfSpace) -> HalfSpaceId {
        assert_eq!(h.dim(), self.dr, "half-space dimensionality mismatch");
        let id = self.halfspaces.len() as HalfSpaceId;
        self.halfspaces.push(h);
        self.insert_into(self.root, id);
        id
    }

    fn insert_into(&mut self, node_idx: usize, id: HalfSpaceId) {
        let relation = {
            let node = &self.nodes[node_idx];
            node.bounds.relation_to(&self.halfspaces[id as usize])
        };
        match relation {
            BoxRelation::Disjoint => {}
            BoxRelation::Contained => self.nodes[node_idx].containment.push(id),
            BoxRelation::Overlapping => {
                let children = match &mut self.nodes[node_idx].kind {
                    NodeKind::Leaf { partial } => {
                        partial.push(id);
                        let should_split = partial.len() > self.config.split_threshold
                            && self.nodes[node_idx].depth < self.config.max_depth;
                        if should_split {
                            self.split_leaf(node_idx);
                        }
                        return;
                    }
                    NodeKind::Internal { children } => children.clone(),
                };
                for child in children {
                    self.insert_into(child, id);
                }
            }
        }
    }

    /// Splits a leaf into its quadrants, redistributing its partial-overlap
    /// set.  Children fully outside the permissible simplex are discarded.
    fn split_leaf(&mut self, node_idx: usize) {
        let (bounds, depth, partial) = {
            let node = &mut self.nodes[node_idx];
            let partial = match &mut node.kind {
                NodeKind::Leaf { partial } => std::mem::take(partial),
                NodeKind::Internal { .. } => unreachable!("split_leaf on internal node"),
            };
            (node.bounds.clone(), node.depth, partial)
        };
        let first = self.nodes.len();
        for quadrant in bounds.quadrants() {
            // Drop quadrants completely outside Σ q_i < 1.
            if quadrant.relation_to(&self.simplex) == BoxRelation::Disjoint {
                continue;
            }
            let mut containment = Vec::new();
            let mut child_partial = Vec::new();
            for &hid in &partial {
                match quadrant.relation_to(&self.halfspaces[hid as usize]) {
                    BoxRelation::Contained => containment.push(hid),
                    BoxRelation::Overlapping => child_partial.push(hid),
                    BoxRelation::Disjoint => {}
                }
            }
            let child = QNode {
                bounds: quadrant,
                depth: depth + 1,
                parent: Some(node_idx),
                containment,
                kind: NodeKind::Leaf {
                    partial: child_partial,
                },
            };
            self.nodes.push(child);
        }
        let children = first..self.nodes.len();
        self.nodes[node_idx].kind = NodeKind::Internal {
            children: children.clone(),
        };
        // Recursively split children that are still over the threshold.
        for child in children {
            let needs_split = match &self.nodes[child].kind {
                NodeKind::Leaf { partial } => {
                    partial.len() > self.config.split_threshold
                        && self.nodes[child].depth < self.config.max_depth
                }
                NodeKind::Internal { .. } => false,
            };
            if needs_split {
                self.split_leaf(child);
            }
        }
    }

    /// Walks the leaves in depth-first order, children in split order,
    /// borrowing their bounds and `P_l` from the tree.
    ///
    /// With `cap = Some(c)` every subtree whose inherited containment count
    /// already exceeds `c` is skipped: `|F_l|` only grows from parent to
    /// child, so no leaf below it has `|F_l| ≤ c`.  The capped walk yields
    /// exactly the leaves of the uncapped walk with `|F_l| ≤ c`, in the same
    /// order.
    ///
    /// Leaves fully outside the permissible simplex never exist (discarded at
    /// split time); the root itself always straddles the simplex boundary and
    /// is therefore kept.
    pub fn leaf_walk(&self, cap: Option<usize>) -> LeafWalk<'_> {
        LeafWalk {
            tree: self,
            cap: cap.unwrap_or(usize::MAX),
            stack: vec![(self.root, 0)],
        }
    }

    /// `F` of a node: the ids of the half-spaces fully containing it, as the
    /// union of the containment sets on the root-to-node path, root first.
    pub fn full_containment(&self, node: usize) -> Vec<HalfSpaceId> {
        let mut path = Vec::new();
        let mut at = Some(node);
        while let Some(idx) = at {
            path.push(idx);
            at = self.nodes[idx].parent;
        }
        path.iter()
            .rev()
            .flat_map(|&idx| self.nodes[idx].containment.iter().copied())
            .collect()
    }

    /// For a single point of the reduced query space, the ids of all inserted
    /// half-spaces containing it (reference implementation used by tests and
    /// oracles; linear in the number of half-spaces).
    pub fn containing_halfspaces(&self, q: &[f64]) -> Vec<HalfSpaceId> {
        self.halfspaces
            .iter()
            .enumerate()
            .filter(|(_, h)| h.contains(q))
            .map(|(i, _)| i as HalfSpaceId)
            .collect()
    }
}

/// Iterator over the leaves of a [`HalfSpaceQuadTree`]; see
/// [`HalfSpaceQuadTree::leaf_walk`].
#[derive(Debug)]
pub struct LeafWalk<'a> {
    tree: &'a HalfSpaceQuadTree,
    cap: usize,
    /// Nodes still to visit, each with the `|F|` of its parent.
    stack: Vec<(usize, usize)>,
}

impl<'a> Iterator for LeafWalk<'a> {
    type Item = LeafRef<'a>;

    fn next(&mut self) -> Option<LeafRef<'a>> {
        while let Some((idx, inherited)) = self.stack.pop() {
            let node = &self.tree.nodes[idx];
            let full_len = inherited + node.containment.len();
            if full_len > self.cap {
                continue;
            }
            match &node.kind {
                NodeKind::Leaf { partial } => {
                    return Some(LeafRef {
                        node: idx,
                        bounds: &node.bounds,
                        full_len,
                        partial,
                    })
                }
                NodeKind::Internal { children } => self
                    .stack
                    .extend(children.clone().rev().map(|child| (child, full_len))),
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hs(coeffs: &[f64], rhs: f64) -> HalfSpace {
        HalfSpace::new(coeffs.to_vec(), rhs)
    }

    #[test]
    fn empty_tree_single_leaf() {
        let t = HalfSpaceQuadTree::new(2);
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.leaf_count(), 1);
        let leaves: Vec<_> = t.leaf_walk(None).collect();
        assert_eq!(leaves.len(), 1);
        assert_eq!(leaves[0].full_len, 0);
        assert!(t.full_containment(leaves[0].node).is_empty());
        assert!(leaves[0].partial.is_empty());
        assert_eq!(t.reduced_dims(), 2);
    }

    #[test]
    fn containment_vs_partial_classification() {
        let mut t = HalfSpaceQuadTree::new(2);
        // Contains the whole unit box.
        let a = t.insert(hs(&[1.0, 1.0], -0.5));
        // Crosses the box.
        let b = t.insert(hs(&[1.0, 0.0], 0.5));
        // Disjoint from the box.
        let c = t.insert(hs(&[1.0, 1.0], 5.0));
        let leaves: Vec<_> = t.leaf_walk(None).collect();
        assert_eq!(leaves.len(), 1);
        let full = t.full_containment(leaves[0].node);
        assert_eq!(full, vec![a]);
        assert_eq!(leaves[0].full_len, 1);
        assert_eq!(leaves[0].partial, vec![b]);
        assert!(!full.contains(&c) && !leaves[0].partial.contains(&c));
        assert_eq!(t.halfspace_count(), 3);
    }

    #[test]
    fn split_redistributes_and_avoids_redundancy() {
        let mut t = HalfSpaceQuadTree::with_config(
            2,
            QuadTreeConfig {
                split_threshold: 2,
                max_depth: 4,
            },
        );
        // Three crossing half-spaces force a split.
        let ids: Vec<_> = [
            hs(&[1.0, 0.0], 0.3),
            hs(&[0.0, 1.0], 0.6),
            hs(&[1.0, 1.0], 0.9),
        ]
        .into_iter()
        .map(|h| t.insert(h))
        .collect();
        assert!(t.leaf_count() > 1, "leaf must have split");
        for leaf in t.leaf_walk(None) {
            let full = t.full_containment(leaf.node);
            // F_l and P_l are disjoint and never contain duplicates.
            let mut all: Vec<_> = full.iter().chain(leaf.partial).collect();
            let before = all.len();
            all.sort_unstable();
            all.dedup();
            assert_eq!(all.len(), before, "duplicate id in leaf sets");
            // Every id must be one of the inserted ones.
            for id in all {
                assert!(ids.contains(id));
            }
            // Classification must be geometrically correct.
            for &id in &full {
                assert_eq!(
                    leaf.bounds.relation_to(t.halfspace(id)),
                    BoxRelation::Contained
                );
            }
            for &id in leaf.partial {
                assert_eq!(
                    leaf.bounds.relation_to(t.halfspace(id)),
                    BoxRelation::Overlapping
                );
            }
        }
    }

    #[test]
    fn leaf_sets_account_for_every_overlapping_halfspace() {
        // For any leaf and any inserted half-space: either the half-space is
        // in F_l, in P_l, disjoint from the leaf, or it contains the leaf via
        // an ancestor (and is then still reported in F_l by
        // `full_containment`).
        let mut t = HalfSpaceQuadTree::with_config(
            3,
            QuadTreeConfig {
                split_threshold: 3,
                max_depth: 3,
            },
        );
        let mut rng_state = 123456789u64;
        let mut next = || {
            // Simple xorshift for reproducibility without pulling rand here.
            rng_state ^= rng_state << 13;
            rng_state ^= rng_state >> 7;
            rng_state ^= rng_state << 17;
            (rng_state % 1000) as f64 / 1000.0
        };
        for _ in 0..40 {
            let coeffs = vec![next() - 0.5, next() - 0.5, next() - 0.5];
            let rhs = next() - 0.5;
            t.insert(HalfSpace::new(coeffs, rhs));
        }
        for leaf in t.leaf_walk(None) {
            let full = t.full_containment(leaf.node);
            assert_eq!(full.len(), leaf.full_len);
            for id in 0..t.halfspace_count() as HalfSpaceId {
                let h = t.halfspace(id);
                let rel = leaf.bounds.relation_to(h);
                let in_full = full.contains(&id);
                let in_partial = leaf.partial.contains(&id);
                match rel {
                    BoxRelation::Contained => assert!(in_full && !in_partial),
                    BoxRelation::Overlapping => assert!(in_partial && !in_full),
                    BoxRelation::Disjoint => assert!(!in_full && !in_partial),
                }
            }
        }
    }

    #[test]
    fn children_outside_simplex_are_discarded() {
        // In a 2-d reduced space the permissible region is the triangle below
        // q1 + q2 = 1; after one split the upper-right quadrant is entirely
        // outside and must be dropped.
        let mut t = HalfSpaceQuadTree::with_config(
            2,
            QuadTreeConfig {
                split_threshold: 1,
                max_depth: 2,
            },
        );
        t.insert(hs(&[1.0, -1.0], 0.0));
        t.insert(hs(&[-1.0, 1.0], 0.0));
        assert!(t.leaf_count() > 1);
        for leaf in t.leaf_walk(None) {
            let lo_sum: f64 = leaf.bounds.lo.iter().sum();
            assert!(
                lo_sum < 1.0 - 1e-9,
                "leaf entirely outside the simplex must not exist: {:?}",
                leaf.bounds
            );
        }
    }

    #[test]
    fn max_depth_caps_splitting() {
        let mut t = HalfSpaceQuadTree::with_config(
            2,
            QuadTreeConfig {
                split_threshold: 1,
                max_depth: 1,
            },
        );
        // Many half-spaces through the centre would split forever without the
        // depth cap.
        for i in 0..20 {
            let angle = i as f64 * 0.3;
            t.insert(hs(
                &[angle.cos(), angle.sin()],
                0.5 * (angle.cos() + angle.sin()),
            ));
        }
        let max_depth_seen = t
            .leaf_walk(None)
            .map(|l| {
                // Depth can be inferred from the side length (unit box halved
                // per level).
                let side = l.bounds.extent(0);
                (1.0 / side).log2().round() as usize
            })
            .max()
            .unwrap();
        assert!(max_depth_seen <= 1);
    }

    #[test]
    fn containing_halfspaces_reference() {
        let mut t = HalfSpaceQuadTree::new(2);
        let a = t.insert(hs(&[1.0, 0.0], 0.2));
        let b = t.insert(hs(&[0.0, 1.0], 0.7));
        let got = t.containing_halfspaces(&[0.5, 0.5]);
        assert!(got.contains(&a) && !got.contains(&b));
    }

    #[test]
    fn default_config_scales_with_dimension() {
        assert!(
            QuadTreeConfig::for_reduced_dims(1).max_depth
                > QuadTreeConfig::for_reduced_dims(7).max_depth
        );
    }

    /// The reference `F_l`: the recursive walk that carries the union of the
    /// containment sets down the root-to-leaf path, in walk order.
    fn brute_force_leaves(t: &HalfSpaceQuadTree) -> Vec<(usize, Vec<HalfSpaceId>)> {
        fn rec(
            t: &HalfSpaceQuadTree,
            idx: usize,
            inherited: &[HalfSpaceId],
            out: &mut Vec<(usize, Vec<HalfSpaceId>)>,
        ) {
            let node = &t.nodes[idx];
            let full = [inherited, &node.containment].concat();
            match &node.kind {
                NodeKind::Leaf { .. } => out.push((idx, full)),
                NodeKind::Internal { children } => {
                    for child in children.clone() {
                        rec(t, child, &full, out);
                    }
                }
            }
        }
        let mut out = Vec::new();
        rec(t, t.root, &[], &mut out);
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// For random insert sequences and caps, the capped walk yields
        /// exactly the uncapped walk's leaves with `|F_l| ≤ cap`, in the same
        /// order, and every leaf's rebuilt `F_l` equals the brute-force
        /// root-to-leaf union of containment sets.
        #[test]
        fn capped_walk_and_rebuilt_full_sets_match_brute_force(
            dr in 1usize..4,
            threshold in 1usize..8,
            specs in prop::collection::vec(
                (prop::collection::vec(-1.0f64..1.0, 3), -0.8f64..0.8),
                0..40,
            ),
            cap in 0usize..12,
        ) {
            let mut t = HalfSpaceQuadTree::with_config(
                dr,
                QuadTreeConfig { split_threshold: threshold, max_depth: 4 },
            );
            for (coeffs, rhs) in specs {
                let coeffs = coeffs[..dr].to_vec();
                if coeffs.iter().any(|c| c.abs() > 1e-6) {
                    t.insert(HalfSpace::new(coeffs, rhs));
                }
            }
            let reference = brute_force_leaves(&t);
            let all: Vec<LeafRef<'_>> = t.leaf_walk(None).collect();
            prop_assert_eq!(all.len(), t.leaf_count());
            prop_assert_eq!(
                all.iter().map(|l| l.node).collect::<Vec<_>>(),
                reference.iter().map(|(node, _)| *node).collect::<Vec<_>>()
            );
            for (leaf, (_, full)) in all.iter().zip(&reference) {
                prop_assert_eq!(leaf.full_len, full.len());
                prop_assert_eq!(&t.full_containment(leaf.node), full);
            }
            let capped: Vec<usize> = t.leaf_walk(Some(cap)).map(|l| l.node).collect();
            let filtered: Vec<usize> = all
                .iter()
                .filter(|l| l.full_len <= cap)
                .map(|l| l.node)
                .collect();
            prop_assert_eq!(capped, filtered);
        }
    }
}
