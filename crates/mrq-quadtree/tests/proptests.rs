//! Property-based tests for the augmented quad-tree: for random half-space
//! sets, every leaf's full-containment and partial-overlap sets must be
//! geometrically correct and jointly account for every inserted half-space,
//! and membership derived from the tree must agree with direct evaluation.

use mrq_geometry::{BoxRelation, HalfSpace};
use mrq_quadtree::{HalfSpaceQuadTree, QuadTreeConfig};
use proptest::prelude::*;

fn halfspaces_strategy(dr: usize) -> impl Strategy<Value = Vec<HalfSpace>> {
    prop::collection::vec(
        (prop::collection::vec(-1.0f64..1.0, dr), -0.8f64..0.8),
        1..40,
    )
    .prop_map(|specs| {
        specs
            .into_iter()
            .filter(|(coeffs, _)| coeffs.iter().any(|c| c.abs() > 1e-6))
            .map(|(coeffs, rhs)| HalfSpace::new(coeffs, rhs))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Leaf set classification is geometrically exact for every half-space.
    #[test]
    fn leaf_sets_are_exact(
        dr in 1usize..4,
        seed in any::<u64>(),
        threshold in 2usize..10,
    ) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut qt = HalfSpaceQuadTree::with_config(
            dr,
            QuadTreeConfig { split_threshold: threshold, max_depth: 4 },
        );
        let count = rng.gen_range(1..30);
        for _ in 0..count {
            let coeffs: Vec<f64> = (0..dr).map(|_| rng.gen::<f64>() * 2.0 - 1.0).collect();
            if coeffs.iter().all(|c| c.abs() < 1e-6) {
                continue;
            }
            let rhs = rng.gen::<f64>() - 0.5;
            qt.insert(HalfSpace::new(coeffs, rhs));
        }
        for leaf in qt.leaf_walk(None) {
            let full = qt.full_containment(leaf.node);
            for id in 0..qt.halfspace_count() as u32 {
                let rel = leaf.bounds.relation_to(qt.halfspace(id));
                let in_full = full.contains(&id);
                let in_partial = leaf.partial.contains(&id);
                match rel {
                    BoxRelation::Contained => prop_assert!(in_full && !in_partial),
                    BoxRelation::Overlapping => prop_assert!(in_partial && !in_full),
                    BoxRelation::Disjoint => prop_assert!(!in_full && !in_partial),
                }
            }
        }
    }

    /// For any point of the permissible simplex, |F_l| of its leaf is a lower
    /// bound on (and |F_l| + |P_l| an upper bound on) the number of inserted
    /// half-spaces containing the point.
    #[test]
    fn leaf_bounds_bracket_point_membership(halfspaces in halfspaces_strategy(2), px in 0.01f64..0.95, py in 0.01f64..0.95) {
        prop_assume!(px + py < 0.99);
        let mut qt = HalfSpaceQuadTree::with_config(2, QuadTreeConfig { split_threshold: 4, max_depth: 5 });
        for h in &halfspaces {
            qt.insert(h.clone());
        }
        let point = [px, py];
        let direct = qt.containing_halfspaces(&point).len();
        // Find the leaf containing the point.
        let leaf = qt
            .leaf_walk(None)
            .find(|l| l.bounds.contains(&point))
            .expect("the leaves cover the unit box");
        prop_assert!(leaf.full_len <= direct);
        prop_assert!(direct <= leaf.full_len + leaf.partial.len());
        // And every full-containment half-space really contains the point.
        for id in &qt.full_containment(leaf.node) {
            prop_assert!(qt.halfspace(*id).contains(&point) || qt.halfspace(*id).slack(&point) > -1e-9);
        }
    }
}
