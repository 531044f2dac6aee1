//! Axis-parallel boxes and their classification against half-spaces.
//!
//! The augmented quad-tree (paper, Section 5.1) needs to decide, for every
//! node region and every inserted half-space, whether the node is *fully
//! contained* in the half-space, *disjoint* from it, or *partially
//! overlapping*.  Because the regions are axis-parallel boxes, the minimum
//! and maximum of the linear form `a · x` over the box are attained at
//! corners and can be computed coordinate-wise.

use crate::halfspace::HalfSpace;
use crate::EPS;

/// Relationship of a box with respect to an open half-space `a · x > b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoxRelation {
    /// Every point of the box lies strictly inside the half-space.
    Contained,
    /// No point of the box lies inside the half-space.
    Disjoint,
    /// The supporting hyperplane crosses the box.
    Overlapping,
}

/// The per-half-space part of the box test, computed once so that testing
/// many boxes against one half-space takes no square root.
///
/// The coefficients stay with the caller (the quad-tree keeps all of them in
/// one flat array); [`classify`](Self::classify) takes them with the box.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PreparedHalfSpace {
    /// `‖a‖`; the box test works in the normalised form so that [`EPS`] has
    /// a consistent meaning whatever the magnitude of the coefficients.
    norm: f64,
    /// `b / ‖a‖ + EPS`.
    threshold: f64,
    /// The answer for every box when the normal is (almost) zero: the whole
    /// space (`b < −EPS`) contains it, the empty set is disjoint from it.
    degenerate: Option<BoxRelation>,
}

impl PreparedHalfSpace {
    /// Prepares `h` for [`classify`](Self::classify).
    pub fn new(h: &HalfSpace) -> Self {
        let norm = h.normal_norm();
        let degenerate = (norm < EPS).then_some(if h.rhs < -EPS {
            BoxRelation::Contained
        } else {
            BoxRelation::Disjoint
        });
        Self {
            norm,
            threshold: h.rhs / norm + EPS,
            degenerate,
        }
    }

    /// Classifies the box `[lo, hi]` against the half-space `coeffs · x > b`
    /// this was prepared from: the minimum and maximum of `coeffs · x` over
    /// the box are attained at corners and summed coordinate-wise in one
    /// pass.
    #[inline]
    pub fn classify(&self, coeffs: &[f64], lo: &[f64], hi: &[f64]) -> BoxRelation {
        if let Some(relation) = self.degenerate {
            return relation;
        }
        debug_assert!(coeffs.len() == lo.len() && coeffs.len() == hi.len());
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
        if min / self.norm > self.threshold {
            BoxRelation::Contained
        } else if max / self.norm <= self.threshold {
            BoxRelation::Disjoint
        } else {
            BoxRelation::Overlapping
        }
    }
}

/// A closed axis-parallel box `[lo_1, hi_1] × … × [lo_d, hi_d]`.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundingBox {
    /// Lower corner.
    pub lo: Vec<f64>,
    /// Upper corner.
    pub hi: Vec<f64>,
}

impl BoundingBox {
    /// Creates a box from its corners.
    ///
    /// # Panics
    /// Panics if the corners have different dimensionality or if any lower
    /// coordinate exceeds the corresponding upper coordinate.
    pub fn new(lo: Vec<f64>, hi: Vec<f64>) -> Self {
        assert_eq!(lo.len(), hi.len(), "box corners must share dimensionality");
        assert!(
            lo.iter().zip(&hi).all(|(l, h)| l <= h),
            "box lower corner must not exceed upper corner"
        );
        Self { lo, hi }
    }

    /// The unit hyper-cube `[0, 1]^dim`.
    pub fn unit(dim: usize) -> Self {
        Self::new(vec![0.0; dim], vec![1.0; dim])
    }

    /// Dimensionality of the box.
    #[inline]
    pub fn dim(&self) -> usize {
        self.lo.len()
    }

    /// Side length along dimension `i`.
    #[inline]
    pub fn extent(&self, i: usize) -> f64 {
        self.hi[i] - self.lo[i]
    }

    /// Volume (product of side lengths).
    pub fn volume(&self) -> f64 {
        self.lo
            .iter()
            .zip(&self.hi)
            .map(|(l, h)| (h - l).max(0.0))
            .product()
    }

    /// Centre point of the box.
    pub fn center(&self) -> Vec<f64> {
        self.lo
            .iter()
            .zip(&self.hi)
            .map(|(l, h)| 0.5 * (l + h))
            .collect()
    }

    /// Whether `x` lies in the closed box.
    pub fn contains(&self, x: &[f64]) -> bool {
        debug_assert_eq!(x.len(), self.dim());
        x.iter()
            .zip(self.lo.iter().zip(&self.hi))
            .all(|(v, (l, h))| *v >= l - EPS && *v <= h + EPS)
    }

    /// Classifies the box against an open half-space `a · x > b`.
    pub fn relation_to(&self, h: &HalfSpace) -> BoxRelation {
        PreparedHalfSpace::new(h).classify(&h.coeffs, &self.lo, &self.hi)
    }

    /// Splits the box into its `2^dim` quadrants (children of a quad-tree
    /// node), in lexicographic order of the child index bits: bit `i` of the
    /// child index selects the upper half along dimension `i`.
    pub fn quadrants(&self) -> Vec<BoundingBox> {
        let d = self.dim();
        let mid = self.center();
        let count = 1usize << d;
        let mut out = Vec::with_capacity(count);
        for mask in 0..count {
            let mut lo = Vec::with_capacity(d);
            let mut hi = Vec::with_capacity(d);
            for (i, &m) in mid.iter().enumerate() {
                if mask >> i & 1 == 1 {
                    lo.push(m);
                    hi.push(self.hi[i]);
                } else {
                    lo.push(self.lo[i]);
                    hi.push(m);
                }
            }
            out.push(BoundingBox::new(lo, hi));
        }
        out
    }

    /// Smallest box containing both `self` and `other`.
    pub fn union(&self, other: &BoundingBox) -> BoundingBox {
        debug_assert_eq!(self.dim(), other.dim());
        BoundingBox::new(
            self.lo
                .iter()
                .zip(&other.lo)
                .map(|(a, b)| a.min(*b))
                .collect(),
            self.hi
                .iter()
                .zip(&other.hi)
                .map(|(a, b)| a.max(*b))
                .collect(),
        )
    }

    /// Whether the closed boxes intersect.
    pub fn intersects(&self, other: &BoundingBox) -> bool {
        debug_assert_eq!(self.dim(), other.dim());
        self.lo
            .iter()
            .zip(&self.hi)
            .zip(other.lo.iter().zip(&other.hi))
            .all(|((al, ah), (bl, bh))| al <= bh && bl <= ah)
    }

    /// Whether `other` is fully inside `self` (closed containment).
    pub fn contains_box(&self, other: &BoundingBox) -> bool {
        debug_assert_eq!(self.dim(), other.dim());
        self.lo
            .iter()
            .zip(&self.hi)
            .zip(other.lo.iter().zip(&other.hi))
            .all(|((al, ah), (bl, bh))| al <= bl && bh <= ah)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hs(coeffs: &[f64], rhs: f64) -> HalfSpace {
        HalfSpace::new(coeffs.to_vec(), rhs)
    }

    #[test]
    fn unit_box_basics() {
        let b = BoundingBox::unit(3);
        assert_eq!(b.dim(), 3);
        assert!((b.volume() - 1.0).abs() < 1e-12);
        assert_eq!(b.center(), vec![0.5, 0.5, 0.5]);
        assert!(b.contains(&[0.0, 1.0, 0.5]));
        assert!(!b.contains(&[1.2, 0.5, 0.5]));
    }

    #[test]
    fn classify_uses_the_box_extremes_of_the_linear_form() {
        // Over this box, 2x − y ranges over [−1, 1.5].
        let b = BoundingBox::new(vec![0.0, 0.5], vec![1.0, 1.0]);
        let rel = |rhs: f64| b.relation_to(&hs(&[2.0, -1.0], rhs));
        assert_eq!(rel(-1.001), BoxRelation::Contained);
        assert_eq!(rel(-1.0), BoxRelation::Overlapping);
        assert_eq!(rel(1.499), BoxRelation::Overlapping);
        assert_eq!(rel(1.5), BoxRelation::Disjoint);
    }

    /// The box test as written before [`PreparedHalfSpace`]: the norm taken
    /// twice, the extremes summed in two passes, the threshold recomputed on
    /// every call.  Kept as the oracle the prepared form must match.
    fn relation_oracle(lo: &[f64], hi: &[f64], h: &HalfSpace) -> BoxRelation {
        if h.is_degenerate() {
            return if h.degenerate_is_full() {
                BoxRelation::Contained
            } else {
                BoxRelation::Disjoint
            };
        }
        let n = h.normal_norm();
        let min: f64 = (h.coeffs.iter().zip(lo.iter().zip(hi)))
            .map(|(c, (l, h))| if *c >= 0.0 { c * l } else { c * h })
            .sum();
        let max: f64 = (h.coeffs.iter().zip(lo.iter().zip(hi)))
            .map(|(c, (l, h))| if *c >= 0.0 { c * h } else { c * l })
            .sum();
        let (min, max, rhs) = (min / n, max / n, h.rhs / n);
        if min > rhs + EPS {
            BoxRelation::Contained
        } else if max <= rhs + EPS {
            BoxRelation::Disjoint
        } else {
            BoxRelation::Overlapping
        }
    }

    /// `classify` decides exactly like the oracle on the inputs that break
    /// box tests: degenerate normals with `rhs` of both signs and at ±EPS,
    /// normals just either side of the degeneracy cut, integer-valued
    /// coefficients, and `rhs` placed exactly on (or one EPS·‖a‖ either side
    /// of) a corner's dot product, over dyadic quad-tree boxes of dims 1–4.
    #[test]
    fn prepared_classify_matches_the_pre_prepared_formula() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut checked = [0usize; 3];
        for dim in 1..=4usize {
            for _ in 0..400 {
                // A dyadic box as the quad-tree produces them.
                let depth = (next() % 6) as i32;
                let side = 0.5f64.powi(depth);
                let lo: Vec<f64> = (0..dim)
                    .map(|_| (next() % (1u64 << depth)) as f64 * side)
                    .collect();
                let hi: Vec<f64> = lo.iter().map(|l| l + side).collect();
                let b = BoundingBox::new(lo.clone(), hi.clone());
                let coeffs: Vec<f64> = match next() % 4 {
                    0 => vec![0.0; dim],
                    1 => (0..dim).map(|_| (next() % 7) as f64 - 3.0).collect(),
                    2 => (0..dim)
                        .map(|_| [0.0, 0.5e-9, 1e-9, -1e-9][(next() % 4) as usize])
                        .collect(),
                    _ => (0..dim)
                        .map(|_| (next() % 2001) as f64 / 1000.0 - 1.0)
                        .collect(),
                };
                let corner: Vec<f64> = (0..dim)
                    .map(|i| if next() % 2 == 0 { lo[i] } else { hi[i] })
                    .collect();
                let on_corner: f64 = coeffs.iter().zip(&corner).map(|(c, x)| c * x).sum();
                let n = crate::vector::l2_norm(&coeffs);
                let mut rhs_values = vec![on_corner, on_corner + EPS * n, on_corner - EPS * n];
                rhs_values.extend([-1.0, -EPS, -2.0 * EPS, 0.0, -0.0, EPS, 0.5, 1.0]);
                for rhs in rhs_values {
                    let h = HalfSpace::new(coeffs.clone(), rhs);
                    let expected = relation_oracle(&lo, &hi, &h);
                    let prepared = PreparedHalfSpace::new(&h);
                    assert_eq!(
                        prepared.classify(&coeffs, &lo, &hi),
                        expected,
                        "{h:?} {b:?}"
                    );
                    assert_eq!(b.relation_to(&h), expected);
                    checked[expected as usize] += 1;
                }
            }
        }
        assert!(checked.iter().all(|&c| c > 100), "{checked:?}");
    }

    #[test]
    fn relation_contained_disjoint_overlap() {
        let b = BoundingBox::unit(2);
        // x + y > -1 contains the unit box.
        assert_eq!(
            b.relation_to(&hs(&[1.0, 1.0], -1.0)),
            BoxRelation::Contained
        );
        // x + y > 3 is disjoint from it.
        assert_eq!(b.relation_to(&hs(&[1.0, 1.0], 3.0)), BoxRelation::Disjoint);
        // x + y > 1 crosses it.
        assert_eq!(
            b.relation_to(&hs(&[1.0, 1.0], 1.0)),
            BoxRelation::Overlapping
        );
        // Touching along a face only (x > 1) counts as disjoint for an OPEN
        // half-space.
        assert_eq!(b.relation_to(&hs(&[1.0, 0.0], 1.0)), BoxRelation::Disjoint);
    }

    #[test]
    fn relation_degenerate() {
        let b = BoundingBox::unit(2);
        assert_eq!(
            b.relation_to(&hs(&[0.0, 0.0], -0.5)),
            BoxRelation::Contained
        );
        assert_eq!(b.relation_to(&hs(&[0.0, 0.0], 0.5)), BoxRelation::Disjoint);
    }

    #[test]
    fn quadrants_partition_volume() {
        let b = BoundingBox::new(vec![0.0, 0.0, 0.0], vec![1.0, 2.0, 4.0]);
        let kids = b.quadrants();
        assert_eq!(kids.len(), 8);
        let total: f64 = kids.iter().map(|k| k.volume()).sum();
        assert!((total - b.volume()).abs() < 1e-9);
        for k in &kids {
            assert!(b.contains_box(k));
        }
    }

    #[test]
    fn union_and_intersects() {
        let a = BoundingBox::new(vec![0.0, 0.0], vec![0.5, 0.5]);
        let b = BoundingBox::new(vec![0.4, 0.4], vec![1.0, 1.0]);
        let c = BoundingBox::new(vec![0.6, 0.6], vec![1.0, 1.0]);
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        let u = a.union(&b);
        assert_eq!(u, BoundingBox::unit(2));
        assert!(u.contains_box(&a) && u.contains_box(&b));
    }
}
