//! Convex result regions of the (reduced) query space.
//!
//! A MaxRank result region — one cell of the half-space arrangement — is a
//! convex polytope.  The paper materialises cells with Qhull's half-space
//! intersection; we keep the H-representation (a set of open half-spaces plus
//! the enclosing leaf box) together with an interior *witness* point produced
//! by the feasibility LP.  That is sufficient for every use the paper makes of
//! the regions: testing whether a query vector attains the optimum rank,
//! describing the preference profiles, and estimating the probability mass of
//! the region under a query-vector distribution.

use crate::boxes::BoundingBox;
use crate::halfspace::HalfSpace;
use crate::lp::{maximize, LpOutcome};
use crate::FEASIBILITY_SLACK;

/// The description of a candidate cell: which half-spaces it lies inside,
/// which it lies outside of, and the box it is restricted to.
#[derive(Debug, Clone)]
pub struct CellSpec {
    /// Open half-spaces the cell must lie inside (`a · x > b`).
    pub inside: Vec<HalfSpace>,
    /// Open half-spaces the cell must lie strictly outside of
    /// (`a · x < b`, i.e. inside their complements).
    pub outside: Vec<HalfSpace>,
    /// Axis-parallel box restricting the cell (a quad-tree leaf extent).
    pub bounds: BoundingBox,
}

impl CellSpec {
    /// Creates a cell specification.
    pub fn new(inside: Vec<HalfSpace>, outside: Vec<HalfSpace>, bounds: BoundingBox) -> Self {
        Self {
            inside,
            outside,
            bounds,
        }
    }

    /// All constraints in a uniform `a · x > b` form (complements are negated,
    /// box faces included).
    pub fn all_constraints(&self) -> Vec<HalfSpace> {
        let dim = self.bounds.dim();
        let mut out: Vec<HalfSpace> =
            Vec::with_capacity(self.inside.len() + self.outside.len() + 2 * dim);
        out.extend(self.inside.iter().cloned());
        out.extend(self.outside.iter().map(|h| h.complement()));
        for i in 0..dim {
            let mut lo_coeffs = vec![0.0; dim];
            lo_coeffs[i] = 1.0;
            out.push(HalfSpace::new(lo_coeffs, self.bounds.lo[i])); // x_i > lo_i
            let mut hi_coeffs = vec![0.0; dim];
            hi_coeffs[i] = -1.0;
            out.push(HalfSpace::new(hi_coeffs, -self.bounds.hi[i])); // x_i < hi_i
        }
        out
    }

    /// Decides whether the open cell is full-dimensional and, if so, returns
    /// the materialised [`Region`].
    ///
    /// The decision is made by maximising a common slack `ε` over all
    /// (unit-normalised) constraints; the cell is non-empty iff the optimum
    /// exceeds [`FEASIBILITY_SLACK`].
    pub fn solve(&self) -> Option<Region> {
        let dim = self.bounds.dim();
        debug_assert!(
            self.bounds.lo.iter().all(|&l| l >= -1e-12),
            "cells are expected to live in the non-negative orthant"
        );
        let constraints = self.all_constraints();
        // LP variables: x_1 … x_dim, ε.
        let nvars = dim + 1;
        let mut a: Vec<Vec<f64>> = Vec::with_capacity(constraints.len() + 1);
        let mut b: Vec<f64> = Vec::with_capacity(constraints.len() + 1);
        for h in &constraints {
            if h.is_degenerate() {
                if h.degenerate_is_full() {
                    continue; // trivially satisfied
                }
                return None; // trivially empty
            }
            let hn = h.normalized();
            // a · x > b  with slack:  a · x ≥ b + ε   ⇔   −a · x + ε ≤ −b.
            let mut row = Vec::with_capacity(nvars);
            row.extend(hn.coeffs.iter().map(|c| -c));
            row.push(1.0);
            a.push(row);
            b.push(-hn.rhs);
        }
        // Cap ε so the LP is bounded even for cells with huge extent.
        let mut cap = vec![0.0; nvars];
        cap[nvars - 1] = 1.0;
        a.push(cap);
        b.push(0.5);

        let mut c = vec![0.0; nvars];
        c[nvars - 1] = 1.0;
        match maximize(&c, &a, &b) {
            LpOutcome::Optimal { objective, point } if objective > FEASIBILITY_SLACK => {
                let witness = point[..dim].to_vec();
                Some(Region {
                    constraints,
                    bounds: self.bounds.clone(),
                    witness,
                    slack: objective,
                })
            }
            _ => None,
        }
    }
}

/// A materialised, full-dimensional convex region of the reduced query space.
#[derive(Debug, Clone)]
pub struct Region {
    /// All constraints in `a · x > b` form (record half-spaces, complements,
    /// box faces).
    pub constraints: Vec<HalfSpace>,
    /// The leaf box the region is restricted to (used for sampling).
    pub bounds: BoundingBox,
    /// A point strictly inside the region.
    pub witness: Vec<f64>,
    /// The inradius-like slack achieved by the witness (distance to the
    /// closest constraint in unit-normal terms).
    pub slack: f64,
}

impl Region {
    /// Ambient dimensionality (the reduced query space, `d − 1`).
    pub fn dim(&self) -> usize {
        self.bounds.dim()
    }

    /// Whether a reduced query vector lies strictly inside the region.
    pub fn contains(&self, x: &[f64]) -> bool {
        self.constraints.iter().all(|h| h.slack(x) > 0.0)
    }

    /// Monte-Carlo estimate of the region's volume by rejection sampling
    /// within its bounding box.  `samples` is the number of box samples drawn.
    pub fn estimate_volume<R: rand::Rng>(&self, rng: &mut R, samples: usize) -> f64 {
        if samples == 0 {
            return 0.0;
        }
        let dim = self.dim();
        let mut hits = 0usize;
        let mut x = vec![0.0; dim];
        for _ in 0..samples {
            for (i, xi) in x.iter_mut().enumerate() {
                *xi = self.bounds.lo[i] + rng.gen::<f64>() * self.bounds.extent(i);
            }
            if self.contains(&x) {
                hits += 1;
            }
        }
        self.bounds.volume() * hits as f64 / samples as f64
    }
}

/// Builds a one-dimensional [`Region`] for the open interval `(lo, hi)` of
/// the reduced query space of `d = 2` — the cell shape produced by FCA and by
/// the 2-d event sweep of AA.
pub fn interval_region(lo: f64, hi: f64) -> Region {
    Region {
        constraints: vec![
            HalfSpace::new(vec![1.0], lo),
            HalfSpace::new(vec![-1.0], -hi),
        ],
        bounds: BoundingBox::new(vec![lo], vec![hi]),
        witness: vec![0.5 * (lo + hi)],
        slack: 0.5 * (hi - lo),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;

    fn hs(coeffs: &[f64], rhs: f64) -> HalfSpace {
        HalfSpace::new(coeffs.to_vec(), rhs)
    }

    #[test]
    fn full_box_cell_is_feasible() {
        let spec = CellSpec::new(vec![], vec![], BoundingBox::unit(2));
        let region = spec.solve().expect("unit box must be non-empty");
        assert!(region.contains(&region.witness.clone()));
        assert!(region.slack > 0.1);
    }

    #[test]
    fn halfspace_splits_box() {
        // Inside x + y > 1 within the unit box: non-empty; witness satisfies it.
        let spec = CellSpec::new(vec![hs(&[1.0, 1.0], 1.0)], vec![], BoundingBox::unit(2));
        let r = spec.solve().unwrap();
        assert!(r.witness[0] + r.witness[1] > 1.0);
        // Outside x + y > 1 AND inside x + y > 1 simultaneously: empty.
        let spec2 = CellSpec::new(
            vec![hs(&[1.0, 1.0], 1.0)],
            vec![hs(&[1.0, 1.0], 1.0)],
            BoundingBox::unit(2),
        );
        assert!(spec2.solve().is_none());
    }

    #[test]
    fn thin_cell_is_rejected() {
        // x > 0.5 and x < 0.5 + 1e-9: lower-dimensional / negligible extent.
        let spec = CellSpec::new(
            vec![hs(&[1.0, 0.0], 0.5)],
            vec![hs(&[1.0, 0.0], 0.5 + 1e-9)],
            BoundingBox::unit(2),
        );
        assert!(spec.solve().is_none());
    }

    #[test]
    fn paper_figure3_striped_cell() {
        // d = 3 style example in a 2-d reduced space: the cell inside h2 but
        // outside h1 within the unit box.
        let h1 = hs(&[1.0, 0.2], 0.6);
        let h2 = hs(&[0.2, 1.0], 0.5);
        let spec = CellSpec::new(vec![h2.clone()], vec![h1.clone()], BoundingBox::unit(2));
        let r = spec.solve().unwrap();
        assert!(h2.contains(&r.witness));
        assert!(!h1.contains(&r.witness));
    }

    #[test]
    fn degenerate_constraints_handled() {
        // A degenerate "whole space" constraint is ignored; a degenerate
        // "empty" constraint kills the cell.
        let spec_ok = CellSpec::new(vec![hs(&[0.0, 0.0], -1.0)], vec![], BoundingBox::unit(2));
        assert!(spec_ok.solve().is_some());
        let spec_bad = CellSpec::new(vec![hs(&[0.0, 0.0], 1.0)], vec![], BoundingBox::unit(2));
        assert!(spec_bad.solve().is_none());
    }

    #[test]
    fn volume_estimate_half_box() {
        let spec = CellSpec::new(vec![hs(&[1.0, 0.0], 0.5)], vec![], BoundingBox::unit(2));
        let r = spec.solve().unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let v = r.estimate_volume(&mut rng, 20_000);
        assert!((v - 0.5).abs() < 0.02, "estimated {v}");
    }

    #[test]
    fn all_constraints_include_box_faces() {
        let spec = CellSpec::new(vec![], vec![], BoundingBox::unit(3));
        assert_eq!(spec.all_constraints().len(), 6);
    }

    #[test]
    fn interval_region_contains_exactly_its_interior() {
        let r = interval_region(0.2, 0.6);
        assert!(r.contains(&[0.4]));
        assert!(!r.contains(&[0.1]));
        assert!(!r.contains(&[0.7]));
        assert_eq!(r.witness, vec![0.4]);
        assert!((r.slack - 0.2).abs() < 1e-12);
        assert_eq!(r.dim(), 1);
    }
}
