//! The flat quad-tree against a reference builder that keeps one owned box
//! and two growable id vectors per node: the straightforward form of the
//! paper's Section 5.1 insert (recursive descent, `BoundingBox::relation_to`,
//! `BoundingBox::quadrants`).  For random insert sequences over the inputs
//! that break geometry code (degenerate normals, integer coefficients,
//! `rhs` exactly on a box corner, duplicates), both trees must have the same
//! leaves in the same walk order with bit-identical bounds, `|F_l|`, `P_l`,
//! `F_l` and capped walks.

use mrq_geometry::{reduced_simplex_constraint, BoundingBox, BoxRelation, HalfSpace};
use mrq_quadtree::{HalfSpaceId, HalfSpaceQuadTree, QuadTreeConfig};
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

/// One leaf of the reference walk: node index, bounds, `F_l`, `P_l`.
type RefLeaf = (usize, BoundingBox, Vec<HalfSpaceId>, Vec<HalfSpaceId>);

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
    fn leaves(&self) -> Vec<RefLeaf> {
        fn rec(t: &RefTree, idx: usize, inherited: &[HalfSpaceId], out: &mut Vec<RefLeaf>) {
            let node = &t.nodes[idx];
            let full = [inherited, &node.containment].concat();
            match &node.children {
                None => out.push((idx, node.bounds.clone(), full, node.partial.clone())),
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
        prop_assert_eq!(tree.node_count(), reference.nodes.len());
        let expected = reference.leaves();
        let walked: Vec<_> = tree.leaf_walk(None).collect();
        prop_assert_eq!(walked.len(), expected.len());
        prop_assert_eq!(tree.leaf_count(), expected.len());
        for (leaf, (node, bounds, full, partial)) in walked.iter().zip(&expected) {
            prop_assert_eq!(leaf.node, *node);
            prop_assert_eq!(bits(leaf.lo()), bits(&bounds.lo));
            prop_assert_eq!(bits(leaf.hi()), bits(&bounds.hi));
            prop_assert_eq!(leaf.full_len, full.len());
            prop_assert_eq!(leaf.partial, &partial[..]);
            prop_assert_eq!(&tree.full_containment(leaf.node), full);
        }
        let deepest = expected.iter().map(|l| l.2.len()).max().unwrap_or(0);
        for cap in 0..=deepest + 1 {
            let capped: Vec<usize> = tree.leaf_walk(Some(cap)).map(|l| l.node).collect();
            let filtered: Vec<usize> = expected
                .iter()
                .filter(|l| l.2.len() <= cap)
                .map(|l| l.0)
                .collect();
            prop_assert_eq!(capped, filtered, "cap {}", cap);
        }
    }
}
