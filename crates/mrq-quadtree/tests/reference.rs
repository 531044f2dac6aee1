//! The flat quad-tree against a reference builder that keeps one owned box
//! and two growable id vectors per node: the straightforward form of the
//! paper's Section 5.1 insert (recursive descent, `BoundingBox::relation_to`,
//! `BoundingBox::quadrants`), which splits every over-threshold leaf at
//! insert time.  The flat tree splits a leaf only when a `Frontier` reaches
//! it.  For random insert sequences over the inputs that break geometry code
//! (degenerate normals, integer coefficients, `rhs` exactly on a box corner,
//! duplicates):
//!
//! * after full refinement both trees have the same leaves in the same walk
//!   order with bit-identical bounds, `|F_l|`, `P_l`, `F_l` and capped walks;
//! * after refining to a cap `c`, even with inserts between refinements, the
//!   flat tree's leaves with `|F_l| ≤ c` are the reference's, in walk order,
//!   and the frontier pops them in walk order stably sorted by `|F_l|`.

use mrq_geometry::{reduced_simplex_constraint, BoundingBox, BoxRelation, HalfSpace};
use mrq_quadtree::{Frontier, HalfSpaceId, HalfSpaceQuadTree, LeafRef, QuadTreeConfig};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::ops::Range;

struct RefNode {
    bounds: BoundingBox,
    depth: usize,
    containment: Vec<HalfSpaceId>,
    partial: Vec<HalfSpaceId>,
    children: Option<Range<usize>>,
}

struct RefTree {
    config: QuadTreeConfig,
    simplex: HalfSpace,
    halfspaces: Vec<HalfSpace>,
    nodes: Vec<RefNode>,
}

/// One leaf as both trees describe it: the bits of its lower and upper
/// corners, `F_l` and `P_l`.  Node indices differ, since the flat tree splits
/// in a different order.
type Leaf = (Vec<u64>, Vec<u64>, Vec<HalfSpaceId>, Vec<HalfSpaceId>);

impl RefTree {
    fn new(dr: usize, config: QuadTreeConfig) -> Self {
        Self {
            config,
            simplex: reduced_simplex_constraint(dr + 1),
            halfspaces: Vec::new(),
            nodes: vec![RefNode {
                bounds: BoundingBox::unit(dr),
                depth: 0,
                containment: Vec::new(),
                partial: Vec::new(),
                children: None,
            }],
        }
    }

    fn insert(&mut self, h: HalfSpace) {
        let id = self.halfspaces.len() as HalfSpaceId;
        self.halfspaces.push(h);
        self.insert_into(0, id);
    }

    fn insert_into(&mut self, idx: usize, id: HalfSpaceId) {
        match self.nodes[idx]
            .bounds
            .relation_to(&self.halfspaces[id as usize])
        {
            BoxRelation::Disjoint => {}
            BoxRelation::Contained => self.nodes[idx].containment.push(id),
            BoxRelation::Overlapping => match self.nodes[idx].children.clone() {
                Some(children) => children.for_each(|c| self.insert_into(c, id)),
                None => {
                    self.nodes[idx].partial.push(id);
                    self.split_if_needed(idx);
                }
            },
        }
    }

    fn split_if_needed(&mut self, idx: usize) {
        let node = &self.nodes[idx];
        if node.partial.len() <= self.config.split_threshold || node.depth >= self.config.max_depth
        {
            return;
        }
        let partial = std::mem::take(&mut self.nodes[idx].partial);
        let first = self.nodes.len();
        for quadrant in self.nodes[idx].bounds.quadrants() {
            if quadrant.relation_to(&self.simplex) == BoxRelation::Disjoint {
                continue;
            }
            let mut child = RefNode {
                bounds: quadrant,
                depth: self.nodes[idx].depth + 1,
                containment: Vec::new(),
                partial: Vec::new(),
                children: None,
            };
            for &hid in &partial {
                match child.bounds.relation_to(&self.halfspaces[hid as usize]) {
                    BoxRelation::Contained => child.containment.push(hid),
                    BoxRelation::Overlapping => child.partial.push(hid),
                    BoxRelation::Disjoint => {}
                }
            }
            self.nodes.push(child);
        }
        let children = first..self.nodes.len();
        self.nodes[idx].children = Some(children.clone());
        children.for_each(|c| self.split_if_needed(c));
    }

    /// Depth-first leaves, children in split order, each carrying the union
    /// of the containment sets on its root-to-leaf path.
    fn leaves(&self) -> Vec<Leaf> {
        fn rec(t: &RefTree, idx: usize, inherited: &[HalfSpaceId], out: &mut Vec<Leaf>) {
            let node = &t.nodes[idx];
            let full = [inherited, &node.containment].concat();
            match &node.children {
                None => out.push((
                    bits(&node.bounds.lo),
                    bits(&node.bounds.hi),
                    full,
                    node.partial.clone(),
                )),
                Some(children) => children.clone().for_each(|c| rec(t, c, &full, out)),
            }
        }
        let mut out = Vec::new();
        rec(self, 0, &[], &mut out);
        out
    }
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Pops every leaf with `|F_l| ≤ cap` from a frontier over the whole tree,
/// splitting the over-threshold ones, and returns them in pop order.
fn refine(tree: &mut HalfSpaceQuadTree, cap: usize) -> Vec<usize> {
    let mut frontier = Frontier::default();
    frontier.push(tree, 0);
    std::iter::from_fn(|| frontier.pop(tree, cap)).collect()
}

/// A flat-tree leaf as the reference describes one.
fn described(tree: &HalfSpaceQuadTree, leaf: LeafRef<'_>) -> Leaf {
    let full = tree.full_containment(leaf.node);
    assert_eq!(full.len(), leaf.full_len);
    (
        bits(leaf.lo()),
        bits(leaf.hi()),
        full,
        leaf.partial.to_vec(),
    )
}

/// A random insert sequence mixing the hard cases.  Boxes of the tree are
/// dyadic, so `rhs` computed as a dot product with a dyadic corner lands
/// exactly on that corner for integer coefficients.
fn insert_sequence(dr: usize, count: usize, rng: &mut StdRng) -> Vec<HalfSpace> {
    let mut out: Vec<HalfSpace> = Vec::with_capacity(count);
    for _ in 0..count {
        let h = match rng.gen_range(0..6) {
            // Degenerate normal, rhs of either sign (or at the EPS cut).
            0 => {
                let rhs = [-0.5, 0.5, 0.0, -1e-9, -2e-9, 1e-9][rng.gen_range(0..6usize)];
                HalfSpace::new(vec![0.0; dr], rhs)
            }
            // Integer-valued coefficients, rhs on a dyadic corner.
            1 | 2 => {
                let coeffs: Vec<f64> = (0..dr).map(|_| rng.gen_range(-3..=3) as f64).collect();
                let level = 1u32 << rng.gen_range(0..4u32);
                let rhs = coeffs
                    .iter()
                    .map(|c| c * rng.gen_range(0..=level) as f64 / level as f64)
                    .sum();
                HalfSpace::new(coeffs, rhs)
            }
            // A duplicate of an earlier half-space.
            3 if !out.is_empty() => out[rng.gen_range(0..out.len())].clone(),
            // Continuous.
            _ => HalfSpace::new(
                (0..dr).map(|_| rng.gen::<f64>() * 2.0 - 1.0).collect(),
                rng.gen::<f64>() - 0.5,
            ),
        };
        out.push(h);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn flat_tree_matches_the_reference_builder(
        dr in 1usize..=4,
        split_threshold in 1usize..=8,
        max_depth in 0usize..=5,
        count in 0usize..60,
        seed in any::<u64>(),
    ) {
        let config = QuadTreeConfig { split_threshold, max_depth };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tree = HalfSpaceQuadTree::with_config(dr, config);
        let mut reference = RefTree::new(dr, config);
        for h in insert_sequence(dr, count, &mut rng) {
            reference.insert(h.clone());
            tree.insert(h);
        }
        prop_assert_eq!(tree.node_count(), 1);
        refine(&mut tree, usize::MAX);
        prop_assert_eq!(tree.node_count(), reference.nodes.len());
        let expected = reference.leaves();
        let walked: Vec<Leaf> = tree.leaf_walk(None).map(|l| described(&tree, l)).collect();
        prop_assert_eq!(&walked, &expected);
        prop_assert_eq!(tree.leaf_count(), expected.len());
        let deepest = expected.iter().map(|l| l.2.len()).max().unwrap_or(0);
        for cap in 0..=deepest + 1 {
            let capped: Vec<Leaf> =
                tree.leaf_walk(Some(cap)).map(|l| described(&tree, l)).collect();
            let filtered: Vec<Leaf> =
                expected.iter().filter(|l| l.2.len() <= cap).cloned().collect();
            prop_assert_eq!(capped, filtered, "cap {}", cap);
        }
    }

    #[test]
    fn refining_to_a_cap_matches_the_reference_leaves_under_it(
        dr in 1usize..=4,
        split_threshold in 1usize..=8,
        max_depth in 0usize..=5,
        count in 0usize..60,
        first_cap in 0usize..6,
        cap in 0usize..10,
        seed in any::<u64>(),
    ) {
        let config = QuadTreeConfig { split_threshold, max_depth };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tree = HalfSpaceQuadTree::with_config(dr, config);
        let mut reference = RefTree::new(dr, config);
        let sequence = insert_sequence(dr, count, &mut rng);
        let (early, late) = sequence.split_at(count / 2);
        // Refine part-way through, as AA does between rounds.
        for h in early {
            reference.insert(h.clone());
            tree.insert(h.clone());
        }
        refine(&mut tree, first_cap);
        for h in late {
            reference.insert(h.clone());
            tree.insert(h.clone());
        }
        let popped = refine(&mut tree, cap);
        prop_assert!(tree.node_count() <= reference.nodes.len());
        let mut expected: Vec<Leaf> = reference
            .leaves()
            .into_iter()
            .filter(|l| l.2.len() <= cap)
            .collect();
        let walked: Vec<Leaf> =
            tree.leaf_walk(Some(cap)).map(|l| described(&tree, l)).collect();
        prop_assert_eq!(&walked, &expected);
        expected.sort_by_key(|l| l.2.len());
        let popped: Vec<Leaf> =
            popped.into_iter().map(|node| described(&tree, tree.leaf(node))).collect();
        prop_assert_eq!(&popped, &expected);
    }
}
