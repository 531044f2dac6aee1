//! A small dense two-phase simplex solver.
//!
//! The paper decides whether a cell of the half-space arrangement has
//! non-zero extent by computing the half-space intersection with Qhull.  We
//! only ever need two facts about a cell: *is its interior non-empty* and, if
//! so, *a witness point inside it*.  Both are answered exactly by a linear
//! program that maximises the common slack of all constraints, which is what
//! this module provides.
//!
//! The solver handles the standard form
//!
//! ```text
//! maximise  c · y      subject to  A y ≤ b,   y ≥ 0
//! ```
//!
//! with arbitrary-sign `b` (phase 1 introduces artificial variables).  The
//! entering column follows Bland's rule; the leaving row comes from a Harris
//! two-pass ratio test, which picks the largest pivot among the rows that
//! block within [`EPS`], so coincident and near-parallel constraints do not
//! make the solver pivot on round-off.  Problem sizes in MaxRank are tiny
//! (at most a few dozen constraints over at most ten variables), so a dense
//! tableau is both the simplest and the fastest representation.

use crate::EPS;

/// Outcome of [`maximize`].
#[derive(Debug, Clone, PartialEq)]
pub enum LpOutcome {
    /// An optimal solution was found.
    Optimal {
        /// The optimal objective value `c · y`.
        objective: f64,
        /// The maximiser `y`.
        point: Vec<f64>,
    },
    /// The constraint system `A y ≤ b, y ≥ 0` has no solution.
    Infeasible,
    /// The objective is unbounded above on the feasible region.
    Unbounded,
}

impl LpOutcome {
    /// Convenience accessor: the optimal point, if any.
    pub fn point(&self) -> Option<&[f64]> {
        match self {
            LpOutcome::Optimal { point, .. } => Some(point),
            _ => None,
        }
    }

    /// Convenience accessor: the optimal objective, if any.
    pub fn objective(&self) -> Option<f64> {
        match self {
            LpOutcome::Optimal { objective, .. } => Some(*objective),
            _ => None,
        }
    }
}

/// Status of a [`maximize_with`] solve; the optimal point lives in the
/// [`LpScratch`] it was solved with (no per-call allocation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LpStatus {
    /// An optimal solution was found with this objective value.
    Optimal(f64),
    /// The constraint system has no solution.
    Infeasible,
    /// The objective is unbounded above on the feasible region.
    Unbounded,
}

/// Reusable simplex workspace: tableau, basis and solution buffers survive
/// across solves, so a caller issuing thousands of tiny feasibility LPs (the
/// within-leaf cell enumeration) performs zero allocations per call after the
/// first.
#[derive(Debug, Default, Clone)]
pub struct LpScratch {
    data: Vec<f64>,
    basis: Vec<usize>,
    point: Vec<f64>,
}

impl LpScratch {
    /// Creates an empty workspace (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// The maximiser of the most recent [`maximize_with`] call that returned
    /// [`LpStatus::Optimal`].  Contents are unspecified after a non-optimal
    /// solve.
    pub fn point(&self) -> &[f64] {
        &self.point
    }
}

const PIVOT_TOL: f64 = 1e-10;
const FEAS_TOL: f64 = 1e-7;
/// Hard cap on simplex pivots; problems in this workspace are tiny, so hitting
/// the cap indicates numerical trouble and is reported as infeasible (safe for
/// MaxRank: a cell is then conservatively treated as empty).
const MAX_ITERS: usize = 10_000;

/// Dense simplex tableau over borrowed scratch buffers.
///
/// Layout: `rows = m` constraint rows plus one objective row; `cols = n`
/// structural variables, `m` slack variables, optional artificials, plus the
/// right-hand side as the last column.
struct Tableau<'a> {
    rows: usize,
    cols: usize,
    data: &'a mut [f64],
    /// Basic variable (column index) of each constraint row.
    basis: &'a mut [usize],
}

impl Tableau<'_> {
    #[inline]
    fn at(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    #[inline]
    fn at_mut(&mut self, r: usize, c: usize) -> &mut f64 {
        &mut self.data[r * self.cols + c]
    }

    fn pivot(&mut self, pr: usize, pc: usize) {
        let cols = self.cols;
        let pivot = self.at(pr, pc);
        debug_assert!(pivot.abs() > PIVOT_TOL);
        for c in 0..cols {
            *self.at_mut(pr, c) /= pivot;
        }
        for r in 0..self.rows {
            if r == pr {
                continue;
            }
            let factor = self.at(r, pc);
            if factor.abs() <= PIVOT_TOL {
                continue;
            }
            for c in 0..cols {
                let v = self.at(pr, c);
                *self.at_mut(r, c) -= factor * v;
            }
        }
        self.basis[pr] = pc;
    }

    /// Runs the simplex loop on the current objective row (last row), which is
    /// expressed in terms of reduced costs: the entering column is any column
    /// with a positive reduced cost.  Returns `false` if unbounded.
    fn optimize(&mut self, usable_cols: usize) -> bool {
        let m = self.rows - 1;
        let obj_row = self.rows - 1;
        let rhs_col = self.cols - 1;
        for _ in 0..MAX_ITERS {
            // Bland's rule: smallest-index column with positive reduced cost.
            let mut entering = None;
            for c in 0..usable_cols {
                if self.at(obj_row, c) > PIVOT_TOL {
                    entering = Some(c);
                    break;
                }
            }
            let Some(pc) = entering else {
                return true; // optimal
            };
            // Harris two-pass ratio test: the longest step every row allows
            // when each may end up EPS infeasible, then the largest pivot
            // among the rows that block within that step.  Tiny pivots on
            // degenerate rows would otherwise wreck the tableau.
            let mut step = f64::INFINITY;
            for r in 0..m {
                let a = self.at(r, pc);
                if a > PIVOT_TOL {
                    step = step.min((self.at(r, rhs_col).max(0.0) + EPS) / a);
                }
            }
            let mut leaving: Option<(usize, f64)> = None;
            for r in 0..m {
                let a = self.at(r, pc);
                if a > PIVOT_TOL
                    && self.at(r, rhs_col).max(0.0) / a <= step
                    && leaving.is_none_or(|(_, best)| a > best)
                {
                    leaving = Some((r, a));
                }
            }
            let Some((pr, _)) = leaving else {
                return false; // unbounded
            };
            self.pivot(pr, pc);
        }
        // Pivot cap reached: treat as "could not certify feasibility".
        false
    }
}

/// Maximises `c · y` subject to `A y ≤ b`, `y ≥ 0`.
///
/// * `c` has length `n`, each row of `a` has length `n`, and `b` has length
///   `m = a.len()`.
/// * `b` entries may be negative; feasibility is established with a phase-1
///   problem.
///
/// # Panics
/// Panics if the dimensions of `c`, `a` and `b` are inconsistent.
pub fn maximize(c: &[f64], a: &[Vec<f64>], b: &[f64]) -> LpOutcome {
    let n = c.len();
    for row in a {
        assert_eq!(row.len(), n, "every row must have the objective's length");
    }
    let a_flat: Vec<f64> = a.iter().flat_map(|row| row.iter().copied()).collect();
    let mut scratch = LpScratch::new();
    match maximize_with(&mut scratch, c, &a_flat, b) {
        LpStatus::Optimal(objective) => LpOutcome::Optimal {
            objective,
            point: scratch.point.clone(),
        },
        LpStatus::Infeasible => LpOutcome::Infeasible,
        LpStatus::Unbounded => LpOutcome::Unbounded,
    }
}

/// [`maximize`] over a flat row-major constraint matrix (`m` rows of `n = c
/// .len()` entries each) and a reusable [`LpScratch`], the allocation-free
/// entry point the within-leaf cell enumeration drives.  On
/// [`LpStatus::Optimal`] the maximiser is available as [`LpScratch::point`].
///
/// # Panics
/// Panics if `a_flat.len() != c.len() * b.len()`.
pub fn maximize_with(scratch: &mut LpScratch, c: &[f64], a_flat: &[f64], b: &[f64]) -> LpStatus {
    let n = c.len();
    let m = b.len();
    assert_eq!(
        a_flat.len(),
        n * m,
        "flat constraint matrix must be m rows of n entries"
    );

    // Count rows that need an artificial variable (negative rhs after adding
    // the slack).
    let n_art = b.iter().filter(|&&bi| bi < 0.0).count();
    // Columns: n structural + m slack + n_art artificial + 1 rhs.
    let cols = n + m + n_art + 1;
    let rows = m + 1;
    scratch.data.clear();
    scratch.data.resize(rows * cols, 0.0);
    scratch.basis.clear();
    scratch.basis.resize(m, 0);
    let mut t = Tableau {
        rows,
        cols,
        data: &mut scratch.data,
        basis: &mut scratch.basis,
    };

    // Fill constraint rows.  Row i:  a_i · y + s_i = b_i.  If b_i < 0 the row
    // is negated and an artificial variable is added so the rhs is ≥ 0.
    let mut art_idx = 0;
    for i in 0..m {
        let negate = b[i] < 0.0;
        let sign = if negate { -1.0 } else { 1.0 };
        for (j, &aij) in a_flat[i * n..(i + 1) * n].iter().enumerate() {
            *t.at_mut(i, j) = sign * aij;
        }
        *t.at_mut(i, n + i) = sign; // slack
        *t.at_mut(i, cols - 1) = sign * b[i];
        if negate {
            let col = n + m + art_idx;
            *t.at_mut(i, col) = 1.0;
            t.basis[i] = col;
            art_idx += 1;
        } else {
            t.basis[i] = n + i;
        }
    }

    // Phase 1: maximise -Σ artificials (reduced costs must be expressed w.r.t.
    // the starting basis, so add every artificial row into the objective row).
    if n_art > 0 {
        let obj_row = rows - 1;
        // objective: -sum of artificial columns  => row = sum of the rows whose
        // basis is artificial (since each such row has +1 in its artificial
        // column), with structural/slack entries accumulated.
        for i in 0..m {
            if t.basis[i] >= n + m {
                for cidx in 0..cols {
                    let v = t.at(i, cidx);
                    *t.at_mut(obj_row, cidx) += v;
                }
            }
        }
        // Zero out the artificial columns' own reduced costs (they are basic).
        for k in 0..n_art {
            *t.at_mut(obj_row, n + m + k) = 0.0;
        }
        let ok = t.optimize(n + m + n_art);
        let obj = t.at(rows - 1, cols - 1);
        if !ok || obj > FEAS_TOL {
            return LpStatus::Infeasible;
        }
        // Drive any remaining artificial variables out of the basis.
        for r in 0..m {
            if t.basis[r] >= n + m {
                let mut pivoted = false;
                for cidx in 0..n + m {
                    if t.at(r, cidx).abs() > PIVOT_TOL {
                        t.pivot(r, cidx);
                        pivoted = true;
                        break;
                    }
                }
                if !pivoted {
                    // Redundant row: leave the artificial basic at value ~0.
                }
            }
        }
        // Clear the objective row before phase 2.
        let obj_row = rows - 1;
        for cidx in 0..cols {
            *t.at_mut(obj_row, cidx) = 0.0;
        }
    }

    // Phase 2 objective row: reduced costs of `maximise c·y`.
    {
        let obj_row = rows - 1;
        for (j, &cj) in c.iter().enumerate() {
            *t.at_mut(obj_row, j) = cj;
        }
        // Express in terms of the current basis: subtract c_B * row for every
        // basic structural variable.
        for r in 0..m {
            let bv = t.basis[r];
            if bv < n && c[bv] != 0.0 {
                let coeff = c[bv];
                for cidx in 0..cols {
                    let v = t.at(r, cidx);
                    *t.at_mut(obj_row, cidx) -= coeff * v;
                }
            }
        }
    }

    // Forbid artificial columns from re-entering.
    let usable = n + m;
    if !t.optimize(usable) {
        return LpStatus::Unbounded;
    }

    // Extract the solution into the scratch's point buffer (a disjoint field,
    // so it can be written while the tableau still borrows data/basis).
    scratch.point.clear();
    scratch.point.resize(n, 0.0);
    for r in 0..m {
        let bv = t.basis[r];
        if bv < n {
            scratch.point[bv] = t.at(r, cols - 1);
        }
    }
    // The tableau's objective cell holds -(c·y) + constant bookkeeping; compute
    // the objective directly from the point for clarity and robustness.
    let objective = c.iter().zip(&scratch.point).map(|(ci, yi)| ci * yi).sum();
    LpStatus::Optimal(objective)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} vs {b}");
    }

    #[test]
    fn simple_2d_lp() {
        // max x + y  s.t. x <= 2, y <= 3, x + y <= 4 => 4.
        let out = maximize(
            &[1.0, 1.0],
            &[vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]],
            &[2.0, 3.0, 4.0],
        );
        assert_close(out.objective().unwrap(), 4.0);
    }

    #[test]
    fn lp_with_negative_rhs_feasible() {
        // max y  s.t. -x <= -1 (x >= 1), x <= 3, y <= 2, x + y <= 4.
        let out = maximize(
            &[0.0, 1.0],
            &[
                vec![-1.0, 0.0],
                vec![1.0, 0.0],
                vec![0.0, 1.0],
                vec![1.0, 1.0],
            ],
            &[-1.0, 3.0, 2.0, 4.0],
        );
        assert_close(out.objective().unwrap(), 2.0);
        let p = out.point().unwrap();
        assert!(p[0] >= 1.0 - 1e-7 && p[0] <= 3.0 + 1e-7);
    }

    #[test]
    fn infeasible_lp() {
        // x >= 2 and x <= 1 cannot both hold.
        let out = maximize(&[1.0], &[vec![-1.0], vec![1.0]], &[-2.0, 1.0]);
        assert_eq!(out, LpOutcome::Infeasible);
    }

    #[test]
    fn unbounded_lp() {
        // max x with only x >= 0 (no upper bound).
        let out = maximize(&[1.0], &[], &[]);
        assert_eq!(out, LpOutcome::Unbounded);
    }

    #[test]
    fn unbounded_with_constraints() {
        // max x + y  s.t. x - y <= 1: still unbounded along y.
        let out = maximize(&[1.0, 1.0], &[vec![1.0, -1.0]], &[1.0]);
        assert_eq!(out, LpOutcome::Unbounded);
    }

    #[test]
    fn degenerate_equality_like() {
        // x <= 1 and x >= 1 force x = 1; max x = 1.
        let out = maximize(&[1.0], &[vec![1.0], vec![-1.0]], &[1.0, -1.0]);
        assert_close(out.objective().unwrap(), 1.0);
    }

    #[test]
    fn objective_zero_vector() {
        // Pure feasibility query.
        let out = maximize(
            &[0.0, 0.0],
            &[vec![1.0, 1.0], vec![-1.0, -1.0]],
            &[1.0, -0.25],
        );
        match out {
            LpOutcome::Optimal { objective, point } => {
                assert_close(objective, 0.0);
                let s = point[0] + point[1];
                assert!((0.25 - 1e-7..=1.0 + 1e-7).contains(&s));
            }
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn near_parallel_rows_yield_a_feasible_optimum() {
        // A cell LP (max ε s.t. a·x + ε ≤ b per row) with a near-parallel
        // pair and duplicated rows.  With Bland's rule on the leaving row
        // too, the solver reported ε = 1.27e-3 at a point 4e-5 outside row 4.
        // The cell holds a point 5.4e-4 clear of every row.
        use std::f64::consts::FRAC_1_SQRT_2;
        let rows: [([f64; 2], f64); 15] = [
            (
                [-0.1192414853884242, -0.9928652819805728],
                -0.244272137973364,
            ),
            ([-FRAC_1_SQRT_2, FRAC_1_SQRT_2], 0.6481812160876685),
            ([0.7071067811865475, 0.7071067811865475], 0.7071067811865475),
            ([0.7071067811865475, 0.7071067811865475], 0.4714045207910316),
            (
                [-0.9982103691691223, 0.059800157886451405],
                -0.2749511659351908,
            ),
            (
                [-0.97979107016738, 0.20002364565285846],
                -0.2378294526081723,
            ),
            (
                [0.8206762964510652, -0.5713933990197676],
                0.11371701566549611,
            ),
            (
                [0.8206763021649991, -0.5713933908130046],
                0.11371701899882944,
            ),
            ([1.0, -0.0], 0.3125),
            (
                [-0.7071067811865475, 0.7071067811865475],
                0.6481812160876685,
            ),
            (
                [-0.3999782757941519, -0.9165246199053996],
                -0.31298365067141143,
            ),
            ([-1.0, 0.0], -0.28125),
            ([1.0, 0.0], 0.3125),
            ([0.0, -1.0], -0.1875),
            ([0.0, 1.0], 0.21875),
        ];
        let mut a: Vec<Vec<f64>> = rows.iter().map(|(c, _)| vec![c[0], c[1], 1.0]).collect();
        let mut b: Vec<f64> = rows.iter().map(|(_, r)| *r).collect();
        a.push(vec![0.0, 0.0, 1.0]);
        b.push(0.5);
        let out = maximize(&[0.0, 0.0, 1.0], &a, &b);
        let LpOutcome::Optimal { objective, point } = out else {
            panic!("the cell is non-empty, got {out:?}");
        };
        assert!(objective >= 5.4e-4, "objective {objective}");
        for (row, rhs) in a.iter().zip(&b) {
            let lhs: f64 = row.iter().zip(&point).map(|(x, y)| x * y).sum();
            assert!(lhs <= rhs + 1e-9, "row {row:?}: {lhs} > {rhs}");
        }
    }

    #[test]
    fn redundant_constraints_ok() {
        // Duplicate rows should not confuse phase 1 / phase 2.
        let rows = vec![vec![1.0, 0.0]; 6];
        let out = maximize(&[1.0, 0.0], &rows, &[2.0; 6]);
        assert_close(out.objective().unwrap(), 2.0);
    }

    #[test]
    fn klee_minty_small() {
        // 3-dimensional Klee–Minty cube; the optimum is 5^3 = 125 at
        // (0, 0, 125).  Exercises many pivots with Bland's rule.
        let c = vec![4.0, 2.0, 1.0];
        let a = vec![
            vec![1.0, 0.0, 0.0],
            vec![4.0, 1.0, 0.0],
            vec![8.0, 4.0, 1.0],
        ];
        let b = vec![5.0, 25.0, 125.0];
        let out = maximize(&c, &a, &b);
        assert_close(out.objective().unwrap(), 125.0);
    }

    #[test]
    fn feasibility_with_slack_objective() {
        // The exact shape used by the cell-emptiness test: maximise eps with
        // constraints  -x + eps <= -0.2  (x >= 0.2 + eps)
        //               x + eps <= 0.8   (x <= 0.8 - eps)
        // => eps_max = 0.3 at x = 0.5.
        let out = maximize(
            &[0.0, 1.0],
            &[vec![-1.0, 1.0], vec![1.0, 1.0]],
            &[-0.2, 0.8],
        );
        assert_close(out.objective().unwrap(), 0.3);
        assert_close(out.point().unwrap()[0], 0.5);
    }

    #[test]
    fn scratch_reuse_across_solves() {
        // One scratch, three solves of different shapes: results must match
        // the allocating entry point, and the point buffer must be refreshed
        // between calls.
        let mut scratch = LpScratch::new();
        let s1 = maximize_with(
            &mut scratch,
            &[1.0, 1.0],
            &[1.0, 0.0, 0.0, 1.0, 1.0, 1.0],
            &[2.0, 3.0, 4.0],
        );
        assert_eq!(s1, LpStatus::Optimal(4.0));
        assert_eq!(scratch.point().len(), 2);
        let s2 = maximize_with(&mut scratch, &[1.0], &[-1.0, 1.0], &[-2.0, 1.0]);
        assert_eq!(s2, LpStatus::Infeasible);
        let s3 = maximize_with(&mut scratch, &[1.0], &[1.0], &[7.0]);
        match s3 {
            LpStatus::Optimal(v) => {
                assert_close(v, 7.0);
                assert_close(scratch.point()[0], 7.0);
            }
            other => panic!("expected optimal, got {other:?}"),
        }
        // Unbounded is reported through the same status type.
        assert_eq!(
            maximize_with(&mut scratch, &[1.0], &[], &[]),
            LpStatus::Unbounded
        );
    }

    #[test]
    fn infeasible_thin_cell() {
        // x >= 0.5 + eps and x <= 0.5 - eps with eps >= 0.01 is infeasible;
        // but with eps free the optimum is eps = 0 (degenerate cell).
        let out = maximize(
            &[0.0, 1.0],
            &[vec![-1.0, 1.0], vec![1.0, 1.0]],
            &[-0.5, 0.5],
        );
        assert_close(out.objective().unwrap(), 0.0);
    }
}
