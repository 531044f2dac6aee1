//! The record → half-space mapping into the *reduced query space*.
//!
//! Section 5 of the paper: with the normalisation `Σ q_i = 1` the d-th weight
//! is determined by the others (`q_d = 1 − Σ_{i<d} q_i`), so the query space
//! can be reduced to the (d−1)-dimensional space of `(q_1, …, q_{d−1})`.
//! For an incomparable record `r`, the score comparison `S(r) > S(p)` is
//! equivalent to
//!
//! ```text
//! Σ_{i<d} (r_i − r_d − p_i + p_d) · q_i  >  p_d − r_d
//! ```
//!
//! i.e. membership of the reduced query vector in an open half-space.  The
//! permissible region of the reduced space is the open simplex
//! `{ q : q_i > 0, Σ_{i<d} q_i < 1 }`.

use crate::boxes::BoundingBox;
use crate::halfspace::HalfSpace;
use crate::EPS;

/// Builds the half-space of the reduced query space in which record `r`
/// scores strictly higher than the focal record `p`.
///
/// Both `r` and `p` are full-dimensional (`d ≥ 2`) records; the returned
/// half-space lives in `d − 1` dimensions.
///
/// # Panics
/// Panics if `r` and `p` have different lengths or fewer than two dimensions.
pub fn halfspace_for_record(r: &[f64], p: &[f64]) -> HalfSpace {
    let mut coeffs = Vec::with_capacity(r.len().saturating_sub(1));
    let rhs = halfspace_row_for_record(r, p, &mut coeffs);
    HalfSpace::new(coeffs, rhs)
}

/// [`halfspace_for_record`] into a caller's buffer: replaces the contents of
/// `coeffs` with the half-space's coefficients and returns its `rhs`, so a
/// caller mapping many records against one focal record reuses one buffer.
///
/// # Panics
/// Panics if `r` and `p` have different lengths or fewer than two dimensions.
pub fn halfspace_row_for_record(r: &[f64], p: &[f64], coeffs: &mut Vec<f64>) -> f64 {
    assert_eq!(
        r.len(),
        p.len(),
        "record and focal record dimensions differ"
    );
    let d = r.len();
    assert!(d >= 2, "MaxRank requires at least two dimensions");
    let rd = r[d - 1];
    let pd = p[d - 1];
    coeffs.clear();
    coeffs.extend((0..d - 1).map(|i| r[i] - rd - p[i] + pd));
    pd - rd
}

/// The axis-parallel bounding box of the reduced query space: `[0, 1]^{d−1}`.
///
/// The true permissible region is the open simplex inside this box; see
/// [`reduced_simplex_constraint`].
pub fn reduced_space_box(d: usize) -> BoundingBox {
    assert!(d >= 2);
    BoundingBox::unit(d - 1)
}

/// The additional constraint `Σ_{i<d} q_i < 1` of the reduced query space,
/// expressed as the open half-space `−Σ q_i > −1` so it can be handled
/// uniformly with the record-induced half-spaces.
pub fn reduced_simplex_constraint(d: usize) -> HalfSpace {
    assert!(d >= 2);
    HalfSpace::new(vec![-1.0; d - 1], -1.0)
}

/// The half-line of the one-dimensional reduced query space (`d = 2`) on
/// which a record outranks the focal record.
///
/// With `d = 2` the half-space of [`halfspace_for_record`] collapses to
/// `c · q_1 > b`; depending on the sign of `c` and on where the breakpoint
/// `t = b / c` falls relative to the open domain `(0, 1)`, the record wins on
/// a right half-line, a left half-line, everywhere, or nowhere.  FCA and the
/// 2-d event sweep of AA both consume this classification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HalfLine2d {
    /// The record outranks the focal record for every permissible `q_1`
    /// (numerically indistinguishable from a dominator).
    AlwaysAbove,
    /// The record never outranks the focal record inside `(0, 1)`.
    NeverAbove,
    /// The record wins exactly for `q_1 > t`, with `t` strictly inside
    /// `(0, 1)`.
    WinsRight(f64),
    /// The record wins exactly for `q_1 < t`, with `t` strictly inside
    /// `(0, 1)`.
    WinsLeft(f64),
}

/// Classifies a two-dimensional record against a two-dimensional focal point.
///
/// # Panics
/// Panics if `r` or `p` is not two-dimensional.
pub fn halfline_for_record(r: &[f64], p: &[f64]) -> HalfLine2d {
    assert_eq!(r.len(), 2, "half-lines exist only for d = 2");
    assert_eq!(p.len(), 2, "half-lines exist only for d = 2");
    // S(r) > S(p)  ⇔  (r_1 − r_2 − p_1 + p_2) · q_1 > p_2 − r_2.
    let c = r[0] - r[1] - p[0] + p[1];
    let b = p[1] - r[1];
    if c.abs() < EPS {
        return if b < -EPS {
            HalfLine2d::AlwaysAbove
        } else {
            HalfLine2d::NeverAbove
        };
    }
    let t = b / c;
    if c > 0.0 {
        // Wins for q1 > t.
        if t <= EPS {
            HalfLine2d::AlwaysAbove
        } else if t >= 1.0 - EPS {
            HalfLine2d::NeverAbove
        } else {
            HalfLine2d::WinsRight(t)
        }
    } else if t >= 1.0 - EPS {
        // Wins for q1 < t, and t is beyond the right edge of the domain.
        HalfLine2d::AlwaysAbove
    } else if t <= EPS {
        HalfLine2d::NeverAbove
    } else {
        HalfLine2d::WinsLeft(t)
    }
}

/// Expands a reduced query vector `(q_1, …, q_{d−1})` back to the full
/// d-dimensional permissible query vector by appending `q_d = 1 − Σ q_i`.
pub fn expand_query(reduced: &[f64]) -> Vec<f64> {
    let mut q = reduced.to_vec();
    let last = 1.0 - reduced.iter().sum::<f64>();
    q.push(last);
    q
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::score;
    use rand::prelude::*;

    #[test]
    fn paper_example_d2() {
        // Figure 1(a) / Section 6.3: p = (.5,.5).  For r2 = (.2,.7) the
        // half-line is q1 < 0.4, for r3 = (.9,.4) it is q1 > 0.2.
        let p = [0.5, 0.5];
        let h2 = halfspace_for_record(&[0.2, 0.7], &p);
        // (r1 - r2 - p1 + p2) q1 > p2 - r2  =>  -0.5 q1 > -0.2  =>  q1 < 0.4.
        assert!(h2.contains(&[0.3]));
        assert!(!h2.contains(&[0.5]));
        let h3 = halfspace_for_record(&[0.9, 0.4], &p);
        assert!(h3.contains(&[0.3]));
        assert!(!h3.contains(&[0.1]));
    }

    #[test]
    fn mapping_equals_score_difference() {
        // The slack of the reduced half-space equals S(r) − S(p) exactly.
        let mut rng = StdRng::seed_from_u64(7);
        for d in 2..=6 {
            for _ in 0..50 {
                let r: Vec<f64> = (0..d).map(|_| rng.gen::<f64>()).collect();
                let p: Vec<f64> = (0..d).map(|_| rng.gen::<f64>()).collect();
                // Random reduced query in the open simplex.
                let mut q: Vec<f64> = (0..d).map(|_| rng.gen::<f64>() + 1e-3).collect();
                let s: f64 = q.iter().sum();
                q.iter_mut().for_each(|v| *v /= s);
                let reduced = &q[..d - 1];
                let slack = halfspace_for_record(&r, &p).slack(reduced);
                let full = expand_query(reduced);
                let diff = score(&r, &full) - score(&p, &full);
                assert!((diff - slack).abs() <= 1e-9);
            }
        }
    }

    #[test]
    fn dominator_halfspace_covers_simplex() {
        // A record that dominates p scores above p for every permissible q, so
        // its half-space must contain the whole open simplex.
        let p = [0.3, 0.4, 0.2];
        let r = [0.5, 0.6, 0.4];
        let h = halfspace_for_record(&r, &p);
        for q in [[0.1, 0.1], [0.8, 0.1], [0.1, 0.8], [0.33, 0.33]] {
            assert!(h.contains(&q), "dominator must win at {q:?}");
        }
    }

    #[test]
    fn dominee_halfspace_misses_simplex() {
        let p = [0.3, 0.4, 0.2];
        let r = [0.1, 0.2, 0.05];
        let h = halfspace_for_record(&r, &p);
        for q in [[0.1, 0.1], [0.8, 0.1], [0.1, 0.8], [0.33, 0.33]] {
            assert!(!h.contains(&q), "dominee must lose at {q:?}");
        }
    }

    #[test]
    fn expand_query_sums_to_one() {
        let q = expand_query(&[0.2, 0.3]);
        assert_eq!(q.len(), 3);
        assert!((q.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((q[2] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn simplex_constraint_excludes_outside() {
        let h = reduced_simplex_constraint(3);
        assert!(h.contains(&[0.3, 0.3]));
        assert!(!h.contains(&[0.7, 0.7]));
    }

    #[test]
    fn reduced_box_dimension() {
        assert_eq!(reduced_space_box(4).dim(), 3);
    }

    #[test]
    fn halfline_classification_matches_figure1() {
        // Section 6.3's running example, p = (.5,.5): r2 = (.2,.7) wins for
        // q1 < 0.4, r3 = (.9,.4) wins for q1 > 0.2.
        let p = [0.5, 0.5];
        match halfline_for_record(&[0.2, 0.7], &p) {
            HalfLine2d::WinsLeft(t) => assert!((t - 0.4).abs() < 1e-12),
            other => panic!("expected WinsLeft, got {other:?}"),
        }
        match halfline_for_record(&[0.9, 0.4], &p) {
            HalfLine2d::WinsRight(t) => assert!((t - 0.2).abs() < 1e-12),
            other => panic!("expected WinsRight, got {other:?}"),
        }
        // A dominator / dominee never produces a breakpoint.
        assert_eq!(
            halfline_for_record(&[0.8, 0.9], &p),
            HalfLine2d::AlwaysAbove
        );
        assert_eq!(halfline_for_record(&[0.4, 0.3], &p), HalfLine2d::NeverAbove);
    }

    #[test]
    fn halfline_agrees_with_halfspace_on_random_points() {
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..300 {
            let r = [rng.gen::<f64>(), rng.gen::<f64>()];
            let p = [rng.gen::<f64>(), rng.gen::<f64>()];
            let h = halfspace_for_record(&r, &p);
            let class = halfline_for_record(&r, &p);
            for q1 in [0.05, 0.25, 0.5, 0.75, 0.95] {
                // Skip queries numerically on the breakpoint.
                if (h.slack(&[q1])).abs() < 1e-6 {
                    continue;
                }
                let wins = h.contains(&[q1]);
                let classified = match class {
                    HalfLine2d::AlwaysAbove => true,
                    HalfLine2d::NeverAbove => false,
                    HalfLine2d::WinsRight(t) => q1 > t,
                    HalfLine2d::WinsLeft(t) => q1 < t,
                };
                assert_eq!(wins, classified, "r {r:?} p {p:?} q1 {q1}");
            }
        }
    }
}
