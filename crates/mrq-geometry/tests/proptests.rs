//! Property-based tests for the geometric substrate.

use mrq_geometry::{
    halfspace_for_record, l2_norm, maximize, reduced::expand_query, BoundingBox, BoxRelation,
    CellSpec, HalfSpace, LpOutcome, PreparedHalfSpace, EPS,
};
use proptest::prelude::*;

fn unit_vec(d: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0f64..1.0, d)
}

fn query_in_simplex(d: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.01f64..1.0, d).prop_map(|v| {
        let s: f64 = v.iter().sum();
        v.into_iter().map(|x| x / s).collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The reduced-space half-space slack equals the score difference exactly
    /// (Section 5 derivation), for any dimensionality 2..=7.
    #[test]
    fn reduced_mapping_matches_score_difference(
        d in 2usize..=7,
        seed in any::<u64>(),
    ) {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(seed);
        let r: Vec<f64> = (0..d).map(|_| rng.gen::<f64>()).collect();
        let p: Vec<f64> = (0..d).map(|_| rng.gen::<f64>()).collect();
        let mut q: Vec<f64> = (0..d).map(|_| rng.gen::<f64>() + 1e-3).collect();
        let s: f64 = q.iter().sum();
        q.iter_mut().for_each(|x| *x /= s);
        let reduced = &q[..d - 1];
        let h = halfspace_for_record(&r, &p);
        let expanded = expand_query(reduced);
        let score_diff: f64 = r.iter().zip(&expanded).map(|(a, b)| a * b).sum::<f64>()
            - p.iter().zip(&expanded).map(|(a, b)| a * b).sum::<f64>();
        prop_assert!((h.slack(reduced) - score_diff).abs() < 1e-9);
    }

    /// Box/half-space classification agrees with exhaustive corner checks.
    #[test]
    fn box_relation_consistent_with_corners(
        lo in unit_vec(3),
        ext in prop::collection::vec(0.01f64..0.5, 3),
        coeffs in prop::collection::vec(-1.0f64..1.0, 3),
        rhs in -1.0f64..1.0,
    ) {
        let hi: Vec<f64> = lo.iter().zip(&ext).map(|(l, e)| l + e).collect();
        let b = BoundingBox::new(lo.clone(), hi.clone());
        let h = HalfSpace::new(coeffs, rhs);
        prop_assume!(!h.is_degenerate());
        // Enumerate the 8 corners.
        let mut inside = 0;
        let mut outside = 0;
        for mask in 0..8u32 {
            let corner: Vec<f64> = (0..3)
                .map(|i| if mask >> i & 1 == 1 { hi[i] } else { lo[i] })
                .collect();
            if h.slack(&corner) > 1e-7 {
                inside += 1;
            } else if h.slack(&corner) < -1e-7 {
                outside += 1;
            }
        }
        match b.relation_to(&h) {
            BoxRelation::Contained => prop_assert_eq!(outside, 0),
            BoxRelation::Disjoint => prop_assert_eq!(inside, 0),
            BoxRelation::Overlapping => {
                // A crossing hyperplane must leave at least one corner on a
                // non-strictly-inside side and one on a non-strictly-outside
                // side (corner signs may be all-boundary in degenerate cases).
                prop_assert!(inside < 8 && outside < 8);
            }
        }
    }

    /// The LP never reports an objective that violates a constraint, and a
    /// randomly generated feasible system is never declared infeasible.
    #[test]
    fn lp_respects_constraints(
        n in 1usize..4,
        m in 1usize..8,
        seed in any::<u64>(),
    ) {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(seed);
        // Construct a system that is feasible by design: pick a point y0 >= 0,
        // random rows a_i, and set b_i = a_i . y0 + margin_i with margin >= 0.
        let y0: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * 2.0).collect();
        let mut a = Vec::new();
        let mut b = Vec::new();
        for _ in 0..m {
            let row: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * 2.0 - 1.0).collect();
            let margin = rng.gen::<f64>();
            let rhs: f64 = row.iter().zip(&y0).map(|(x, y)| x * y).sum::<f64>() + margin;
            a.push(row);
            b.push(rhs);
        }
        // Bound the region so the LP cannot be unbounded.
        for i in 0..n {
            let mut row = vec![0.0; i];
            row.push(1.0);
            row.resize(n, 0.0);
            a.push(row);
            b.push(10.0);
        }
        let c: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
        match maximize(&c, &a, &b) {
            LpOutcome::Optimal { objective, point } => {
                for (row, rhs) in a.iter().zip(&b) {
                    let lhs: f64 = row.iter().zip(&point).map(|(x, y)| x * y).sum();
                    prop_assert!(lhs <= rhs + 1e-6, "constraint violated: {lhs} > {rhs}");
                }
                for v in &point {
                    prop_assert!(*v >= -1e-9);
                }
                let recomputed: f64 = c.iter().zip(&point).map(|(x, y)| x * y).sum();
                prop_assert!((objective - recomputed).abs() < 1e-6);
                // The designed feasible point bounds the optimum from below.
                let lower: f64 = c.iter().zip(&y0).map(|(x, y)| x * y).sum();
                prop_assert!(objective >= lower - 1e-6);
            }
            LpOutcome::Infeasible => prop_assert!(false, "feasible-by-design system declared infeasible"),
            LpOutcome::Unbounded => prop_assert!(false, "bounded system declared unbounded"),
        }
    }

    /// A cell declared non-empty has a witness satisfying every constraint;
    /// a cell containing a half-space and its complement is always empty.
    #[test]
    fn cellspec_witness_is_valid(
        dr in 1usize..4,
        k in 0usize..5,
        seed in any::<u64>(),
    ) {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut inside = Vec::new();
        let mut outside = Vec::new();
        for _ in 0..k {
            let coeffs: Vec<f64> = (0..dr).map(|_| rng.gen::<f64>() * 2.0 - 1.0).collect();
            let rhs = rng.gen::<f64>() - 0.5;
            let h = HalfSpace::new(coeffs, rhs);
            if rng.gen::<bool>() {
                inside.push(h);
            } else {
                outside.push(h);
            }
        }
        let spec = CellSpec::new(inside.clone(), outside.clone(), BoundingBox::unit(dr));
        if let Some(region) = spec.solve() {
            for h in &inside {
                prop_assert!(h.contains(&region.witness));
            }
            for h in &outside {
                prop_assert!(!h.contains(&region.witness));
            }
            prop_assert!(region.contains(&region.witness));
        }
        // Contradictory spec must be empty.
        if let Some(h) = inside.first() {
            let mut out2 = outside.clone();
            out2.push(h.clone());
            let spec2 = CellSpec::new(inside.clone(), out2, BoundingBox::unit(dr));
            prop_assert!(spec2.solve().is_none());
        }
    }

    /// Permissible queries expand to vectors that sum to 1.
    #[test]
    fn expanded_queries_are_permissible(q in query_in_simplex(4)) {
        let reduced = &q[..3];
        let full = expand_query(reduced);
        prop_assert!((full.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }
}

/// The box test as specified: extremes summed in coordinate order from
/// `0.0`, then divided by the norm and compared with `b / ‖a‖ + EPS`.
/// `PreparedHalfSpace` replaces the divisions by one comparison with a
/// precomputed cut, and `BoundingBox::relation_to` goes through it too, so
/// this formula is the only independent statement of what the cut must
/// decide.
fn divided_relation(coeffs: &[f64], rhs: f64, lo: &[f64], hi: &[f64]) -> BoxRelation {
    let norm = l2_norm(coeffs);
    if norm < EPS {
        return if rhs < -EPS {
            BoxRelation::Contained
        } else {
            BoxRelation::Disjoint
        };
    }
    let (min, max) = extremes(coeffs, lo, hi);
    let threshold = rhs / norm + EPS;
    if min / norm > threshold {
        BoxRelation::Contained
    } else if max / norm <= threshold {
        BoxRelation::Disjoint
    } else {
        BoxRelation::Overlapping
    }
}

fn extremes(coeffs: &[f64], lo: &[f64], hi: &[f64]) -> (f64, f64) {
    let (mut min, mut max) = (0.0, 0.0);
    for ((c, l), h) in coeffs.iter().zip(lo).zip(hi) {
        if *c >= 0.0 {
            min += c * l;
            max += c * h;
        } else {
            min += c * h;
            max += c * l;
        }
    }
    (min, max)
}

/// `x` moved `steps` representable values up (or down, when negative).
fn ulps(mut x: f64, steps: i32) -> f64 {
    for _ in 0..steps.unsigned_abs() {
        x = if steps > 0 {
            x.next_up()
        } else {
            x.next_down()
        };
    }
    x
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The prepared box test (and `relation_to`, which uses it) decides
    /// exactly like the divided formula.  The inputs aim at the cut: `rhs`
    /// placed so that the box's `min` or `max` divided by the norm lands on
    /// the threshold and then moved a few ulps either way, `rhs` on a box
    /// corner and at ±0.0, coefficients that are integers, continuous,
    /// tiny (norms near the degeneracy cut `EPS`), huge (up to 1e150), signed
    /// zeros, or all zero (degenerate normals), over dyadic quad-tree boxes
    /// and arbitrary boxes in `[0, 1]^dr`, dr = 1..=8.
    #[test]
    fn prepared_box_test_matches_the_divided_formula(
        dr in 1usize..=8,
        seed in any::<u64>(),
    ) {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(seed);
        let (lo, hi): (Vec<f64>, Vec<f64>) = if rng.gen::<bool>() {
            let depth = rng.gen_range(0..8i32);
            let side = 0.5f64.powi(depth);
            let lo: Vec<f64> = (0..dr)
                .map(|_| rng.gen_range(0..1u64 << depth) as f64 * side)
                .collect();
            let hi = lo.iter().map(|l| l + side).collect();
            (lo, hi)
        } else {
            (0..dr)
                .map(|_| {
                    let (a, b) = (rng.gen::<f64>(), rng.gen::<f64>());
                    (a.min(b), a.max(b))
                })
                .unzip()
        };
        let scale = [1.0, 1e-9, 2e-9, 1e-6, 1e3, 1e150][rng.gen_range(0..6usize)];
        let coeffs: Vec<f64> = (0..dr)
            .map(|_| match rng.gen_range(0..6) {
                0 => 0.0,
                1 => -0.0,
                2 | 3 => rng.gen_range(-3..=3) as f64 * scale,
                _ => (rng.gen::<f64>() * 2.0 - 1.0) * scale,
            })
            .collect();
        let coeffs = if rng.gen_range(0..8) == 0 { vec![0.0; dr] } else { coeffs };
        let norm = l2_norm(&coeffs);
        let (min, max) = extremes(&coeffs, &lo, &hi);
        let corner: f64 = coeffs
            .iter()
            .zip(lo.iter().zip(&hi))
            .map(|(c, (l, h))| c * if rng.gen::<bool>() { *l } else { *h })
            .sum();
        let mut rhs_values = vec![0.0, -0.0, corner, -EPS, EPS, -2.0 * EPS];
        for x in [min, max] {
            let on_threshold = (x / norm - EPS) * norm;
            rhs_values.extend((-4..=4).map(|k| ulps(on_threshold, k)));
        }
        for rhs in rhs_values {
            let expected = divided_relation(&coeffs, rhs, &lo, &hi);
            let prepared = PreparedHalfSpace::for_row(&coeffs, rhs);
            prop_assert_eq!(prepared.classify(&coeffs, &lo, &hi), expected, "rhs {}", rhs);
            prop_assert_eq!(prepared.relation(min, max), expected);
            let h = HalfSpace::new(coeffs.clone(), rhs);
            let from_halfspace = PreparedHalfSpace::new(&h);
            prop_assert_eq!(
                from_halfspace.cut().map(f64::to_bits),
                prepared.cut().map(f64::to_bits)
            );
            prop_assert_eq!(from_halfspace.relation(min, max), expected);
            let b = BoundingBox::new(lo.clone(), hi.clone());
            prop_assert_eq!(b.relation_to(&h), expected);
        }
    }

    /// Around `threshold · norm` the cut splits the values exactly where the
    /// divided comparison does: for every `x` within 16 ulps of it (and at
    /// ±0.0), `x` is contained iff `x / norm > threshold` and disjoint iff
    /// `x / norm ≤ threshold`, for norms from the degeneracy cut to 1e150.
    #[test]
    fn the_cut_splits_values_like_the_division(
        norm_exp in -8.9f64..150.0,
        rhs in -1e3f64..1e3,
        rhs_scale_exp in -12i32..12,
    ) {
        let coeffs = [10f64.powf(norm_exp)];
        let norm = l2_norm(&coeffs);
        let rhs = rhs * 10f64.powi(rhs_scale_exp) * norm;
        let prepared = PreparedHalfSpace::for_row(&coeffs, rhs);
        prop_assume!(prepared.cut().is_some());
        let threshold = rhs / norm + EPS;
        let centre = threshold * norm;
        for x in (-16..=16).map(|k| ulps(centre, k)).chain([0.0, -0.0]) {
            let above = x / norm > threshold;
            let expected = if above { BoxRelation::Contained } else { BoxRelation::Disjoint };
            prop_assert_eq!(prepared.relation(x, x), expected, "x {}", x);
        }
    }
}
