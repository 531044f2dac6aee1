//! Within-leaf processing (paper, Section 5.2) and whole-arrangement cell
//! enumeration.
//!
//! A quad-tree leaf `l` is covered by the half-spaces of its full-containment
//! set `F_l` and crossed by those of its partial-overlap set `P_l`.  Every
//! cell of the arrangement restricted to `l` corresponds to a bit-string over
//! `P_l` (bit `i` = the cell lies inside the `i`-th half-space); the number of
//! set bits is the cell's *p-order*, and the cell's order is `|F_l|` plus the
//! p-order.  Cells are materialised in increasing Hamming weight; each
//! candidate bit-string is checked for non-emptiness with the feasibility LP
//! (the paper uses Qhull half-space intersection for the same purpose).
//!
//! # The fast path (see `docs/ARCHITECTURE.md`, "The within-leaf fast path")
//!
//! The cheapest LP is the one never run.  Around the bare enumeration sit
//! four coordinated optimisations, none of which changes the cell set:
//!
//! * **witness-first feasibility** — every LP solved inside the leaf (pair
//!   conditions, candidate cells, a deterministic centre probe) yields an
//!   interior point.  Each point whose distance to every constraint of the
//!   leaf exceeds the feasibility slack is cached under its full sign
//!   pattern; a candidate bit-string matching a cached pattern is proven
//!   non-empty by `O(m·d)` dot products instead of an LP
//!   ([`QueryStats::witness_hits`]);
//! * **implication-propagating combination search** — the pairwise Figure-4
//!   conditions are compiled into per-position forbidden-bit word masks and
//!   checked *inside* the combination recursion: the instant a prefix fixes a
//!   bit that violates a condition against any earlier bit, the entire
//!   subtree of completions is cut ([`QueryStats::subtrees_pruned`]), rather
//!   than generating complete bit-strings and filtering them;
//! * **word-packed bit-strings over an immutable constraint slab** — the
//!   leaf's half-spaces are normalised once into a flat row-major matrix;
//!   candidates are `u64` word bitsets and never materialise
//!   `Vec<HalfSpace>`s;
//! * **a reusable LP arena** — candidate LPs are assembled directly from the
//!   slab into [`mrq_geometry::LpScratch`] buffers, so steady-state candidate
//!   testing performs no allocation.
//!
//! Enumeration stops at the first Hamming weight that yields a non-empty
//! cell (plus `τ` further weights for iMaxRank), and never exceeds the
//! caller-provided cap derived from the best order found so far.
//!
//! # The planar path (d = 3)
//!
//! With a 2-d reduced space the paper's half-space intersection is convex
//! polygon clipping, so [`CellEnumerator`] sends every leaf to
//! [`process_leaf_planar`] instead of [`process_leaf`]: the leaf box clipped
//! by the simplex is split by the leaf's lines depth-first
//! ([`mrq_geometry::Polygon::split`]), each face carrying its sign word, and
//! only the faces that exist are decided.  A face whose vertex centroid
//! clears every constraint by more than [`FEASIBILITY_SLACK`] is kept with
//! that point as its witness; any other face (a sliver along a line, a
//! corner touch) falls back to the candidate LP.  The kept cells, their
//! order and their H-representations are those of [`process_leaf`] with both
//! knobs off; only the witnesses differ.  The knobs of [`CellEnumOptions`]
//! steer the LP path only, which still serves dr ≥ 3 and
//! [`crate::oracle::exhaustive`] (at d = 3 the oracle is therefore an
//! independent LP cross-check of the planar path).

use crate::result::QueryStats;
use mrq_geometry::{
    maximize_with, reduced_simplex_constraint, BoundingBox, HalfSpace, LpScratch, LpStatus,
    Polygon, Region, Split, FEASIBILITY_SLACK,
};
use mrq_quadtree::{Frontier, HalfSpaceId, HalfSpaceQuadTree, LeafRef};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A non-empty cell found inside one leaf.
#[derive(Debug, Clone)]
pub struct FoundCell {
    /// Hamming weight of the bit-string: how many of the leaf's
    /// partial-overlap half-spaces contain the cell.
    pub p_order: usize,
    /// Ids of the partial-overlap half-spaces containing the cell.
    pub inside: Vec<HalfSpaceId>,
    /// The materialised region.
    pub region: Region,
}

/// A cell of the (mixed) arrangement, as produced by [`enumerate_cells`].
#[derive(Debug, Clone)]
pub struct ArrangementCell {
    /// Cell order: `|F_l|` + p-order (the number of arrangement half-spaces
    /// containing the cell).
    pub order: usize,
    /// The leaf's full-containment set `F_l`.
    pub full: Vec<HalfSpaceId>,
    /// The partial-overlap half-spaces containing the cell.
    pub inside_partial: Vec<HalfSpaceId>,
    /// The materialised region.
    pub region: Region,
}

impl ArrangementCell {
    /// All half-spaces containing the cell (`H_c` in the paper).
    pub fn containing_ids(&self) -> impl Iterator<Item = HalfSpaceId> + '_ {
        self.full.iter().chain(&self.inside_partial).copied()
    }
}

/// Knobs of the within-leaf / whole-arrangement enumeration.
///
/// `pair_pruning` and `witness_cache` steer the LP path only ([`process_leaf`]:
/// dr ≥ 3, and the exhaustive oracle); the planar path that serves d = 3
/// ignores them.
#[derive(Debug, Clone, Copy)]
pub struct CellEnumOptions {
    /// Use the pairwise containment conditions of Section 5.2 (compiled into
    /// the implication table that prunes the combination recursion).  LP
    /// path only.
    pub pair_pruning: bool,
    /// Use the per-leaf witness cache to prove candidate bit-strings
    /// non-empty without an LP.  The cell set is identical either way; this
    /// knob exists for ablation and differential testing.  LP path only.
    pub witness_cache: bool,
    /// Threads sharing the leaf frontier (1 = sequential).  The cell
    /// set is identical for any value.
    pub threads: usize,
}

impl Default for CellEnumOptions {
    fn default() -> Self {
        Self {
            pair_pruning: true,
            witness_cache: true,
            threads: 1,
        }
    }
}

/// Per-pair forbidden bit combinations (Figure 4 of the paper).
#[derive(Debug, Clone, Copy, Default)]
struct PairConditions {
    forbid11: bool,
    forbid00: bool,
    /// Bit of the *first* half-space 1, bit of the second 0 is impossible.
    forbid10: bool,
    forbid01: bool,
}

/// Number of `u64` words a packed bit-string over `m` positions needs.
#[inline]
fn words_for(m: usize) -> usize {
    m.div_ceil(64).max(1)
}

/// Immutable per-leaf constraint slab: the leaf's partial-overlap half-spaces
/// normalised once into a flat row-major matrix (`stride = dr + 1` floats per
/// row: unit-norm coefficients followed by the rhs), plus the normalised
/// simplex constraint.  Witness sign checks and LP row assembly both stream
/// over these rows cache-linearly.
struct LeafSlab {
    dr: usize,
    m: usize,
    stride: usize,
    /// `m` rows, "inside" orientation (`a · x > b` with `|a| = 1`).
    rows: Vec<f64>,
    /// The normalised permissible-simplex constraint (one row).
    simplex: Vec<f64>,
}

impl LeafSlab {
    fn build(dr: usize, partial: &[(HalfSpaceId, HalfSpace)], simplex: &HalfSpace) -> LeafSlab {
        let stride = dr + 1;
        let mut rows = Vec::with_capacity(partial.len() * stride);
        for (_, h) in partial {
            let hn = h.normalized();
            debug_assert_eq!(hn.coeffs.len(), dr);
            rows.extend_from_slice(&hn.coeffs);
            rows.push(hn.rhs);
        }
        let sn = simplex.normalized();
        let mut srow = Vec::with_capacity(stride);
        srow.extend_from_slice(&sn.coeffs);
        srow.push(sn.rhs);
        LeafSlab {
            dr,
            m: partial.len(),
            stride,
            rows,
            simplex: srow,
        }
    }

    /// Normalised row `i` as `(coefficients, rhs)`.
    #[inline]
    fn row(&self, i: usize) -> (&[f64], f64) {
        let base = i * self.stride;
        (&self.rows[base..base + self.dr], self.rows[base + self.dr])
    }

    /// Oriented (inside-positive) slack of `x` against row `i`.
    #[inline]
    fn slack(&self, i: usize, x: &[f64]) -> f64 {
        let (coeffs, rhs) = self.row(i);
        coeffs.iter().zip(x).map(|(c, v)| c * v).sum::<f64>() - rhs
    }

    /// Oriented slack of `x` against the simplex constraint.
    #[inline]
    fn simplex_slack(&self, x: &[f64]) -> f64 {
        self.simplex[..self.dr]
            .iter()
            .zip(x)
            .map(|(c, v)| c * v)
            .sum::<f64>()
            - self.simplex[self.dr]
    }
}

/// Per-leaf cache of interior points keyed by their full sign pattern over
/// the slab rows.  Only points whose distance (in unit-normal terms) to
/// *every* constraint of the leaf — slab rows, simplex, box faces — exceeds
/// [`FEASIBILITY_SLACK`] are kept, so a pattern hit proves the candidate cell
/// full-dimensional exactly when the LP would.
///
/// Besides whole-pattern lookups, the pool answers **pairwise** feasibility
/// questions: `row_cover[r]` is a bitset over witnesses marking which lie
/// inside slab row `r`, so "is any cached point inside `i` and outside `j`"
/// is two word-`AND`s — this is what lets `compute_pair_conditions` skip
/// most of its 4·C(m, 2) LPs once a few witnesses exist.
struct WitnessPool {
    index: HashMap<Vec<u64>, usize>,
    /// `(interior point, minimum constraint distance)` per kept witness.
    entries: Vec<(Vec<f64>, f64)>,
    /// Per slab row, a bitset over witness indices (inside = bit set).
    row_cover: Vec<Vec<u64>>,
}

impl WitnessPool {
    fn new(m: usize) -> Self {
        Self {
            index: HashMap::new(),
            entries: Vec::new(),
            row_cover: vec![Vec::new(); m],
        }
    }

    /// Classifies `point` against the whole slab and keeps it when every
    /// constraint is cleared by more than the feasibility slack.
    fn try_add(&mut self, point: Vec<f64>, slab: &LeafSlab, bounds: &BoundingBox) {
        let mut min_slack = slab.simplex_slack(&point);
        for ((x, lo), hi) in point.iter().zip(&bounds.lo).zip(&bounds.hi) {
            min_slack = min_slack.min(x - lo).min(hi - x);
        }
        if min_slack <= FEASIBILITY_SLACK {
            return; // outside (or too close to) the leaf box / simplex
        }
        let mut pattern = vec![0u64; words_for(slab.m)];
        for i in 0..slab.m {
            let s = slab.slack(i, &point);
            if s > 0.0 {
                pattern[i / 64] |= 1u64 << (i % 64);
            }
            min_slack = min_slack.min(s.abs());
            if min_slack <= FEASIBILITY_SLACK {
                return; // ambiguous pattern: the point sits on a boundary
            }
        }
        self.insert(pattern, point, min_slack);
    }

    /// Inserts a witness whose pattern and slack are already certified (the
    /// LP of the candidate itself).  First witness per pattern wins, keeping
    /// the pool deterministic.
    fn insert(&mut self, pattern: Vec<u64>, point: Vec<f64>, slack: f64) {
        if self.index.contains_key(&pattern) {
            return;
        }
        let w = self.entries.len();
        let (word, bit) = (w / 64, 1u64 << (w % 64));
        for (r, cover) in self.row_cover.iter_mut().enumerate() {
            if cover.len() <= word {
                cover.resize(word + 1, 0);
            }
            if pattern[r / 64] >> (r % 64) & 1 == 1 {
                cover[word] |= bit;
            }
        }
        self.index.insert(pattern, w);
        self.entries.push((point, slack));
    }

    /// The cached interior point proving `pattern` non-empty, if any.
    fn lookup(&self, pattern: &[u64]) -> Option<(&[f64], f64)> {
        self.index
            .get(pattern)
            .map(|&i| (self.entries[i].0.as_slice(), self.entries[i].1))
    }

    /// Whether any cached witness realises the two-row sign combination
    /// (`inside_i` / `inside_j` orientations of rows `i` and `j`) — if so,
    /// that pair configuration is feasible without an LP.
    fn any_pair_witness(&self, i: usize, j: usize, inside_i: bool, inside_j: bool) -> bool {
        let n = self.entries.len();
        if n == 0 {
            return false;
        }
        let words = n.div_ceil(64);
        let (ci, cj) = (&self.row_cover[i], &self.row_cover[j]);
        for w in 0..words {
            let valid = if w == words - 1 && !n.is_multiple_of(64) {
                (1u64 << (n % 64)) - 1
            } else {
                !0u64
            };
            let a = if inside_i { ci[w] } else { !ci[w] };
            let b = if inside_j { cj[w] } else { !cj[w] };
            if a & b & valid != 0 {
                return true;
            }
        }
        false
    }
}

/// Reusable buffers for the per-candidate feasibility LPs.  Rows are
/// assembled straight from the [`LeafSlab`] in exactly the constraint order
/// [`mrq_geometry::CellSpec::solve`] uses (chosen rows, simplex, complements
/// of the unchosen rows, box faces, ε-cap), so accept/reject decisions and
/// witness points are identical to the specification path.
struct LpArena {
    scratch: LpScratch,
    a: Vec<f64>,
    b: Vec<f64>,
    /// Objective: maximise the common slack ε (the last LP variable).
    c: Vec<f64>,
}

impl LpArena {
    fn new(dr: usize) -> Self {
        let nvars = dr + 1;
        let mut c = vec![0.0; nvars];
        c[nvars - 1] = 1.0;
        Self {
            scratch: LpScratch::new(),
            a: Vec::new(),
            b: Vec::new(),
            c,
        }
    }

    fn clear(&mut self) {
        self.a.clear();
        self.b.clear();
    }

    /// Pushes the LP row of an "inside" constraint `a · x > b` (unit-norm):
    /// `−a · x + ε ≤ −b`.
    #[inline]
    fn push_inside(&mut self, coeffs: &[f64], rhs: f64) {
        self.a.extend(coeffs.iter().map(|c| -c));
        self.a.push(1.0);
        self.b.push(-rhs);
    }

    /// Pushes the LP row of an "outside" constraint (the complement of the
    /// unit-norm `a · x > b`): `a · x + ε ≤ b`.
    #[inline]
    fn push_outside(&mut self, coeffs: &[f64], rhs: f64) {
        self.a.extend_from_slice(coeffs);
        self.a.push(1.0);
        self.b.push(rhs);
    }

    /// Pushes the leaf-box face rows (`x_i > lo_i`, `x_i < hi_i` per
    /// dimension, already unit-norm) and the ε ≤ 0.5 cap.
    fn push_box_and_cap(&mut self, bounds: &BoundingBox) {
        let dr = bounds.dim();
        let nvars = dr + 1;
        for i in 0..dr {
            // lo face: e_i · x > lo_i  ⇒  −e_i · x + ε ≤ −lo_i.
            let base = self.a.len();
            self.a.resize(base + nvars, 0.0);
            self.a[base + i] = -1.0;
            self.a[base + nvars - 1] = 1.0;
            self.b.push(-bounds.lo[i]);
            // hi face: −e_i · x > −hi_i  ⇒  e_i · x + ε ≤ hi_i.
            let base = self.a.len();
            self.a.resize(base + nvars, 0.0);
            self.a[base + i] = 1.0;
            self.a[base + nvars - 1] = 1.0;
            self.b.push(bounds.hi[i]);
        }
        // Cap ε so the LP is bounded even for cells with huge extent.
        let base = self.a.len();
        self.a.resize(base + nvars, 0.0);
        self.a[base + nvars - 1] = 1.0;
        self.b.push(0.5);
    }

    /// Runs the assembled LP; `Some((witness, slack))` iff the cell is
    /// full-dimensional.
    fn solve(&mut self, dr: usize) -> Option<(Vec<f64>, f64)> {
        match maximize_with(&mut self.scratch, &self.c, &self.a, &self.b) {
            LpStatus::Optimal(objective) if objective > FEASIBILITY_SLACK => {
                Some((self.scratch.point()[..dr].to_vec(), objective))
            }
            _ => None,
        }
    }

    /// Feasibility of the candidate bit-string `ones` over the slab.
    fn solve_candidate(
        &mut self,
        slab: &LeafSlab,
        ones: &[u64],
        bounds: &BoundingBox,
    ) -> Option<(Vec<f64>, f64)> {
        self.clear();
        for i in 0..slab.m {
            if ones[i / 64] >> (i % 64) & 1 == 1 {
                let (coeffs, rhs) = slab.row(i);
                self.push_inside(coeffs, rhs);
            }
        }
        self.push_inside(&slab.simplex[..slab.dr], slab.simplex[slab.dr]);
        for i in 0..slab.m {
            if ones[i / 64] >> (i % 64) & 1 == 0 {
                let (coeffs, rhs) = slab.row(i);
                self.push_outside(coeffs, rhs);
            }
        }
        self.push_box_and_cap(bounds);
        self.solve(slab.dr)
            .filter(|(witness, _)| self.clears_every_row(witness))
    }

    /// Whether `x` clears every assembled row by more than the feasibility
    /// slack.  On coincident or near-parallel rows the simplex can report an
    /// optimum whose point violates its own constraints; such a certificate
    /// is refused, like any other LP that fails to certify feasibility.
    fn clears_every_row(&self, x: &[f64]) -> bool {
        let nvars = x.len() + 1;
        self.a.chunks_exact(nvars).zip(&self.b).all(|(row, b)| {
            let ax: f64 = row.iter().zip(x).map(|(a, v)| a * v).sum();
            b - ax > FEASIBILITY_SLACK
        })
    }

    /// Feasibility of a two-constraint configuration (`inside_i` / `inside_j`
    /// select the orientation of rows `i` and `j`), used to derive the
    /// pairwise conditions without cloning any `HalfSpace`.
    fn solve_pair(
        &mut self,
        slab: &LeafSlab,
        i: usize,
        j: usize,
        inside_i: bool,
        inside_j: bool,
        bounds: &BoundingBox,
    ) -> Option<(Vec<f64>, f64)> {
        self.clear();
        // Same row order CellSpec::solve would see: the inside rows first,
        // then the simplex, then the complements.
        for (idx, inside) in [(i, inside_i), (j, inside_j)] {
            if inside {
                let (coeffs, rhs) = slab.row(idx);
                self.push_inside(coeffs, rhs);
            }
        }
        self.push_inside(&slab.simplex[..slab.dr], slab.simplex[slab.dr]);
        for (idx, inside) in [(i, inside_i), (j, inside_j)] {
            if !inside {
                let (coeffs, rhs) = slab.row(idx);
                self.push_outside(coeffs, rhs);
            }
        }
        self.push_box_and_cap(bounds);
        self.solve(slab.dr)
    }
}

/// The pairwise conditions compiled into per-position forbidden-bit masks:
/// when the combination walker fixes position `p` to a value, one AND against
/// the already-fixed ones/zeros words decides whether any earlier pair
/// condition is violated — the 2-SAT-style implication table of the fast
/// path.
struct ImplicationTable {
    words: usize,
    /// Earlier positions `q` whose bit 1 forbids `p = 1` (`forbid11`).
    m11: Vec<u64>,
    /// Earlier positions `q` whose bit 0 forbids `p = 1` (`forbid01`).
    m01: Vec<u64>,
    /// Earlier positions `q` whose bit 1 forbids `p = 0` (`forbid10`).
    m10: Vec<u64>,
    /// Earlier positions `q` whose bit 0 forbids `p = 0` (`forbid00`).
    m00: Vec<u64>,
}

impl ImplicationTable {
    /// `conds` is the upper-triangular pair matrix, flattened as `i * m + j`
    /// for `i < j`.
    fn build(conds: &[PairConditions], m: usize) -> ImplicationTable {
        let words = words_for(m);
        let mut t = ImplicationTable {
            words,
            m11: vec![0; m * words],
            m01: vec![0; m * words],
            m10: vec![0; m * words],
            m00: vec![0; m * words],
        };
        for i in 0..m {
            for j in i + 1..m {
                let c = conds[i * m + j];
                let (word, bit) = (j * words + i / 64, 1u64 << (i % 64));
                if c.forbid11 {
                    t.m11[word] |= bit;
                }
                if c.forbid01 {
                    t.m01[word] |= bit;
                }
                if c.forbid10 {
                    t.m10[word] |= bit;
                }
                if c.forbid00 {
                    t.m00[word] |= bit;
                }
            }
        }
        t
    }

    /// Whether fixing position `p` to `value` violates a pair condition
    /// against any earlier fixed position.
    #[inline]
    fn violates(&self, p: usize, value: bool, ones: &[u64], zeros: &[u64]) -> bool {
        let w = self.words;
        let (vs_ones, vs_zeros) = if value {
            (&self.m11[p * w..(p + 1) * w], &self.m01[p * w..(p + 1) * w])
        } else {
            (&self.m10[p * w..(p + 1) * w], &self.m00[p * w..(p + 1) * w])
        };
        vs_ones.iter().zip(ones).any(|(m, o)| m & o != 0)
            || vs_zeros.iter().zip(zeros).any(|(m, z)| m & z != 0)
    }
}

/// `C(n, k)` saturating at `usize::MAX` (used only for the pruned-candidate
/// statistics).
fn binomial(n: usize, k: usize) -> usize {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut acc: u128 = 1;
    for i in 0..k {
        acc = acc.saturating_mul((n - i) as u128) / (i + 1) as u128;
        if acc > usize::MAX as u128 {
            return usize::MAX;
        }
    }
    acc as usize
}

/// Depth-first walk over all weight-`k` bit-strings of `m` positions as
/// word-packed bitsets, cutting whole subtrees at the first violated pair
/// condition.  Emits surviving bit-strings in the same lexicographic
/// chosen-index order as [`for_each_combination`], and attributes every
/// dismissed complete bit-string to exactly one pruned subtree, so the
/// pruned count equals what generate-then-filter would have rejected.
struct CombinationWalker<'a> {
    m: usize,
    table: Option<&'a ImplicationTable>,
    ones: Vec<u64>,
    zeros: Vec<u64>,
    /// Subtrees cut by a violated condition.
    subtrees_pruned: usize,
    /// Complete bit-strings those subtrees would have contained.
    bitstrings_pruned: usize,
}

impl<'a> CombinationWalker<'a> {
    fn new(m: usize, table: Option<&'a ImplicationTable>) -> Self {
        let words = words_for(m);
        Self {
            m,
            table,
            ones: vec![0; words],
            zeros: vec![0; words],
            subtrees_pruned: 0,
            bitstrings_pruned: 0,
        }
    }

    fn walk<F: FnMut(&[u64])>(&mut self, k: usize, f: &mut F) {
        if k > self.m {
            return;
        }
        self.rec(0, k, f);
    }

    fn prune(&mut self, positions_left: usize, ones_left: usize) {
        self.subtrees_pruned += 1;
        self.bitstrings_pruned = self
            .bitstrings_pruned
            .saturating_add(binomial(positions_left, ones_left));
    }

    fn rec<F: FnMut(&[u64])>(&mut self, pos: usize, ones_left: usize, f: &mut F) {
        if pos == self.m {
            debug_assert_eq!(ones_left, 0);
            f(&self.ones);
            return;
        }
        let positions_left = self.m - pos;
        let (word, bit) = (pos / 64, 1u64 << (pos % 64));
        // 1-branch first: lexicographic chosen-index order.
        if ones_left > 0 {
            if self
                .table
                .is_some_and(|t| t.violates(pos, true, &self.ones, &self.zeros))
            {
                self.prune(positions_left - 1, ones_left - 1);
            } else {
                self.ones[word] |= bit;
                self.rec(pos + 1, ones_left - 1, f);
                self.ones[word] &= !bit;
            }
        }
        if ones_left < positions_left {
            if self
                .table
                .is_some_and(|t| t.violates(pos, false, &self.ones, &self.zeros))
            {
                self.prune(positions_left - 1, ones_left);
            } else {
                self.zeros[word] |= bit;
                self.rec(pos + 1, ones_left, f);
                self.zeros[word] &= !bit;
            }
        }
    }
}

/// Builds the [`Region`] of a proven-non-empty candidate: the same
/// H-representation `CellSpec::all_constraints` would produce (chosen
/// half-spaces, the simplex, complements of the unchosen, box faces) around
/// the certified interior witness.
fn materialize_region(
    partial: &[(HalfSpaceId, HalfSpace)],
    simplex: &HalfSpace,
    bounds: &BoundingBox,
    ones: &[u64],
    witness: Vec<f64>,
    slack: f64,
) -> Region {
    let dr = bounds.dim();
    let mut constraints = Vec::with_capacity(partial.len() + 1 + 2 * dr);
    for (i, (_, h)) in partial.iter().enumerate() {
        if ones[i / 64] >> (i % 64) & 1 == 1 {
            constraints.push(h.clone());
        }
    }
    constraints.push(simplex.clone());
    for (i, (_, h)) in partial.iter().enumerate() {
        if ones[i / 64] >> (i % 64) & 1 == 0 {
            constraints.push(h.complement());
        }
    }
    for i in 0..dr {
        let mut lo_coeffs = vec![0.0; dr];
        lo_coeffs[i] = 1.0;
        constraints.push(HalfSpace::new(lo_coeffs, bounds.lo[i]));
        let mut hi_coeffs = vec![0.0; dr];
        hi_coeffs[i] = -1.0;
        constraints.push(HalfSpace::new(hi_coeffs, -bounds.hi[i]));
    }
    Region {
        constraints,
        bounds: bounds.clone(),
        witness,
        slack,
    }
}

/// Chosen half-space ids of a packed candidate.
fn chosen_ids(partial: &[(HalfSpaceId, HalfSpace)], ones: &[u64]) -> (usize, Vec<HalfSpaceId>) {
    let mut ids = Vec::new();
    for (i, (id, _)) in partial.iter().enumerate() {
        if ones[i / 64] >> (i % 64) & 1 == 1 {
            ids.push(*id);
        }
    }
    (ids.len(), ids)
}

/// Processes one leaf: enumerates bit-strings over `partial` in increasing
/// Hamming weight and returns the non-empty cells.
///
/// * `max_weight` — never consider bit-strings with more set bits than this
///   (derived from the best order found so far by the caller);
/// * `collect_extra` — after the first weight `w0` with a non-empty cell,
///   keep enumerating up to `w0 + collect_extra` (τ of iMaxRank; 0 for plain
///   MaxRank);
/// * `options` — pair pruning / witness cache knobs ([`CellEnumOptions`];
///   the `threads` field is ignored here — leaves are indivisible units of
///   the parallel frontier).
pub fn process_leaf(
    bounds: &BoundingBox,
    partial: &[(HalfSpaceId, HalfSpace)],
    simplex: &HalfSpace,
    max_weight: usize,
    collect_extra: usize,
    options: &CellEnumOptions,
    stats: &mut QueryStats,
) -> Vec<FoundCell> {
    let m = partial.len();
    let dr = bounds.dim();
    let max_weight = max_weight.min(m);
    let slab = LeafSlab::build(dr, partial, simplex);
    let mut arena = LpArena::new(dr);
    let mut pool = options.witness_cache.then(|| WitnessPool::new(m));
    if let Some(pool) = &mut pool {
        // Deterministic free probes: the leaf centre (often outside the
        // simplex for coarse leaves) and a point pushed from the lower corner
        // part-way toward the centre, scaled so it stays strictly inside the
        // permissible simplex.  Whichever cells these land in are proven
        // non-empty before any LP runs.
        pool.try_add(bounds.center(), &slab, bounds);
        let lo_sum: f64 = bounds.lo.iter().sum();
        let half_extent_sum: f64 = (0..dr).map(|i| 0.5 * bounds.extent(i)).sum();
        if half_extent_sum > 0.0 {
            let t = 0.5 * (1.0 - lo_sum) / half_extent_sum;
            // At t ≥ 1 the scaled probe IS the centre already classified
            // above; only a genuinely distinct point is worth the O(m·d)
            // classification.
            if t > 0.0 && t < 1.0 {
                let probe: Vec<f64> = (0..dr)
                    .map(|i| bounds.lo[i] + t * 0.5 * bounds.extent(i))
                    .collect();
                pool.try_add(probe, &slab, bounds);
            }
        }
    }

    let mut found = Vec::new();
    let mut first_nonempty: Option<usize> = None;
    let mut implications: Option<ImplicationTable> = None;

    let mut weight = 0usize;
    while weight <= max_weight {
        if let Some(w0) = first_nonempty {
            if weight > w0 + collect_extra {
                break;
            }
        }
        // Lazily derive the pairwise conditions once weights ≥ 2 are reached,
        // where they start paying for themselves.
        if options.pair_pruning && weight >= 2 && implications.is_none() && m >= 2 {
            implications = Some(compute_pair_conditions(
                &slab,
                partial,
                bounds,
                &mut arena,
                pool.as_mut(),
                stats,
            ));
        }
        let mut any_at_this_weight = false;
        let mut walker = CombinationWalker::new(m, implications.as_ref());
        walker.walk(weight, &mut |ones| {
            stats.cells_tested += 1;
            // Witness-first: a cached interior point with this exact sign
            // pattern proves the cell non-empty with zero LP work.
            if let Some(pool) = pool.as_ref() {
                if let Some((point, slack)) = pool.lookup(ones) {
                    stats.witness_hits += 1;
                    any_at_this_weight = true;
                    let (p_order, inside) = chosen_ids(partial, ones);
                    let region =
                        materialize_region(partial, simplex, bounds, ones, point.to_vec(), slack);
                    found.push(FoundCell {
                        p_order,
                        inside,
                        region,
                    });
                    return;
                }
            }
            stats.lp_calls += 1;
            if let Some((witness, slack)) = arena.solve_candidate(&slab, ones, bounds) {
                any_at_this_weight = true;
                if let Some(pool) = pool.as_mut() {
                    // The LP certifies every constraint distance ≥ slack.
                    pool.insert(ones.to_vec(), witness.clone(), slack);
                }
                let (p_order, inside) = chosen_ids(partial, ones);
                let region = materialize_region(partial, simplex, bounds, ones, witness, slack);
                found.push(FoundCell {
                    p_order,
                    inside,
                    region,
                });
            }
        });
        stats.subtrees_pruned += walker.subtrees_pruned;
        stats.bitstrings_pruned += walker.bitstrings_pruned;
        if any_at_this_weight && first_nonempty.is_none() {
            first_nonempty = Some(weight);
        }
        weight += 1;
    }
    found
}

/// Derives the pairwise conditions, witness-first: a cached point realising
/// the two-row sign combination proves it feasible for free; only unproven
/// combinations fall back to the tiny two-constraint LP (straight off the
/// slab — no `HalfSpace` clones), whose witness then joins the pool.  The
/// probes plus the first few pair witnesses typically prove the bulk of the
/// 4·C(m, 2) combinations, so the quadratic pair derivation sheds most of
/// its LPs.
fn compute_pair_conditions(
    slab: &LeafSlab,
    partial: &[(HalfSpaceId, HalfSpace)],
    bounds: &BoundingBox,
    arena: &mut LpArena,
    mut pool: Option<&mut WitnessPool>,
    stats: &mut QueryStats,
) -> ImplicationTable {
    let m = slab.m;
    debug_assert_eq!(partial.len(), m);
    let mut conds = vec![PairConditions::default(); m * m];
    for i in 0..m {
        for j in i + 1..m {
            let feasible = |inside_i: bool,
                            inside_j: bool,
                            arena: &mut LpArena,
                            pool: &mut Option<&mut WitnessPool>,
                            stats: &mut QueryStats| {
                if let Some(pool) = pool.as_deref_mut() {
                    if pool.any_pair_witness(i, j, inside_i, inside_j) {
                        stats.witness_hits += 1;
                        return true;
                    }
                }
                stats.lp_calls += 1;
                match arena.solve_pair(slab, i, j, inside_i, inside_j, bounds) {
                    Some((witness, _)) => {
                        if let Some(pool) = pool.as_deref_mut() {
                            pool.try_add(witness, slab, bounds);
                        }
                        true
                    }
                    None => false,
                }
            };
            conds[i * m + j] = PairConditions {
                forbid11: !feasible(true, true, arena, &mut pool, stats),
                forbid00: !feasible(false, false, arena, &mut pool, stats),
                forbid10: !feasible(true, false, arena, &mut pool, stats),
                forbid01: !feasible(false, true, arena, &mut pool, stats),
            };
        }
    }
    ImplicationTable::build(&conds, m)
}

/// Processes one leaf of a planar (dr = 2) arrangement: the same cells, in
/// the same order and with the same H-representations as [`process_leaf`]
/// with both knobs off, but built by splitting the leaf polygon line by line
/// instead of testing every candidate bit-string with an LP.
///
/// The leaf box clipped by the simplex is split by the slab rows depth-first,
/// the outside (lower-popcount) child first; a face is dropped once its
/// popcount exceeds the cap, which starts at `max_weight` and tightens to
/// `w + collect_extra` once a face of weight `w` is kept.  A complete face
/// is kept without an LP when its vertex centroid clears every constraint of
/// the candidate by more than [`FEASIBILITY_SLACK`]; that point and its
/// clearance become the region's witness and slack.  Any other face is
/// decided by the candidate LP, so the kept set is the LP path's.
///
/// `stats.cells_tested` counts the faces decided and `stats.lp_calls` the
/// fallback LPs.
pub fn process_leaf_planar(
    bounds: &BoundingBox,
    partial: &[(HalfSpaceId, HalfSpace)],
    simplex: &HalfSpace,
    max_weight: usize,
    collect_extra: usize,
    stats: &mut QueryStats,
) -> Vec<FoundCell> {
    assert_eq!(bounds.dim(), 2, "the planar path needs a 2-d reduced space");
    let m = partial.len();
    let slab = LeafSlab::build(2, partial, simplex);
    let box_polygon =
        Polygon::rectangle([bounds.lo[0], bounds.lo[1]], [bounds.hi[0], bounds.hi[1]]);
    let s = &slab.simplex;
    let leaf = match box_polygon.split([s[0], s[1]], s[2]) {
        Split::Outside => return Vec::new(),
        Split::Inside => box_polygon,
        Split::Both(_, inside) => inside,
    };
    let mut walk = PlanarWalk {
        slab: &slab,
        bounds,
        arena: LpArena::new(2),
        cap: max_weight.min(m),
        collect_extra,
        ones: vec![0; words_for(m)],
        kept: Vec::new(),
        stats,
    };
    walk.descend(&leaf, 0, 0);
    let PlanarWalk { cap, mut kept, .. } = walk;
    kept.retain(|k| k.weight <= cap);
    kept.sort_by(|a, b| a.weight.cmp(&b.weight).then(lex_order(&a.ones, &b.ones)));
    kept.into_iter()
        .map(|k| {
            let (p_order, inside) = chosen_ids(partial, &k.ones);
            let region = materialize_region(partial, simplex, bounds, &k.ones, k.witness, k.slack);
            FoundCell {
                p_order,
                inside,
                region,
            }
        })
        .collect()
}

/// The order [`CombinationWalker`] emits bit-strings of equal weight in:
/// lexicographic in the chosen indices, so at the first differing position
/// the string with the bit set comes first.
fn lex_order(a: &[u64], b: &[u64]) -> std::cmp::Ordering {
    for (x, y) in a.iter().zip(b) {
        let diff = x ^ y;
        if diff != 0 {
            return if x & diff & diff.wrapping_neg() != 0 {
                std::cmp::Ordering::Less
            } else {
                std::cmp::Ordering::Greater
            };
        }
    }
    std::cmp::Ordering::Equal
}

/// A face kept by [`process_leaf_planar`], before its region is built.
struct PlanarCell {
    weight: usize,
    ones: Vec<u64>,
    witness: Vec<f64>,
    slack: f64,
}

/// The depth-first face walk of [`process_leaf_planar`].
struct PlanarWalk<'a> {
    slab: &'a LeafSlab,
    bounds: &'a BoundingBox,
    arena: LpArena,
    /// Faces heavier than this are dropped.
    cap: usize,
    collect_extra: usize,
    /// Sign word of the face being refined (bit `i` = inside row `i`).
    ones: Vec<u64>,
    kept: Vec<PlanarCell>,
    stats: &'a mut QueryStats,
}

impl PlanarWalk<'_> {
    fn descend(&mut self, face: &Polygon, row: usize, weight: usize) {
        if weight > self.cap {
            return;
        }
        if row == self.slab.m {
            self.decide(face, weight);
            return;
        }
        let (coeffs, rhs) = self.slab.row(row);
        let (word, bit) = (row / 64, 1u64 << (row % 64));
        match face.split([coeffs[0], coeffs[1]], rhs) {
            Split::Outside => self.descend(face, row + 1, weight),
            Split::Inside => {
                self.ones[word] |= bit;
                self.descend(face, row + 1, weight + 1);
                self.ones[word] &= !bit;
            }
            Split::Both(outside, inside) => {
                self.descend(&outside, row + 1, weight);
                self.ones[word] |= bit;
                self.descend(&inside, row + 1, weight + 1);
                self.ones[word] &= !bit;
            }
        }
    }

    /// Decides a complete face: its centroid proves it non-empty when it
    /// clears every constraint of the candidate, otherwise the LP decides.
    fn decide(&mut self, face: &Polygon, weight: usize) {
        self.stats.cells_tested += 1;
        let centroid = face.vertex_centroid();
        let mut clearance = self.slab.simplex_slack(&centroid);
        for ((x, lo), hi) in centroid.iter().zip(&self.bounds.lo).zip(&self.bounds.hi) {
            clearance = clearance.min(x - lo).min(hi - x);
        }
        for i in 0..self.slab.m {
            let s = self.slab.slack(i, &centroid);
            let inside = self.ones[i / 64] >> (i % 64) & 1 == 1;
            clearance = clearance.min(if inside { s } else { -s });
        }
        let proof = if clearance > FEASIBILITY_SLACK {
            Some((centroid.to_vec(), clearance))
        } else {
            self.stats.lp_calls += 1;
            self.arena
                .solve_candidate(self.slab, &self.ones, self.bounds)
        };
        if let Some((witness, slack)) = proof {
            self.cap = self.cap.min(weight + self.collect_extra);
            self.kept.push(PlanarCell {
                weight,
                ones: self.ones.clone(),
                witness,
                slack,
            });
        }
    }
}

/// Enumerates the cells of the arrangement held by the quad-tree, visiting
/// leaves in increasing `|F_l|` order and pruning leaves (and Hamming
/// weights) that cannot produce a relevant cell.
///
/// * With `hard_limit = Some(l)` every cell with order ≤ `l` that is within
///   `tau` of its leaf's minimum is returned (cells further from the leaf
///   minimum can never lie within `tau` of the *global* minimum, so they are
///   irrelevant to MaxRank/iMaxRank).
/// * With `hard_limit = None` the bound adapts: the enumeration returns every
///   cell with order ≤ (minimum order found) + `tau`.
/// * `options.threads > 1` shares the leaf frontier between that many scoped
///   threads; the cells returned are identical for any thread count.
///
/// Returns the cells and the effective bound that was applied.
///
/// This is a convenience wrapper over [`CellEnumerator`] without caching; it
/// enumerates a clone of `qt`, because enumeration splits the leaves it
/// reaches.  The iterative AA keeps a [`CellEnumerator`] and its tree alive
/// across iterations so that leaves untouched by newly inserted half-spaces
/// are neither split again nor re-enumerated.
pub fn enumerate_cells(
    qt: &HalfSpaceQuadTree,
    hard_limit: Option<usize>,
    tau: usize,
    options: &CellEnumOptions,
    stats: &mut QueryStats,
) -> (Vec<ArrangementCell>, usize) {
    CellEnumerator::new().enumerate(&mut qt.clone(), hard_limit, tau, options, stats)
}

#[derive(Debug, Clone)]
struct CachedLeaf {
    /// The Hamming-weight cap the cached enumeration was run with.
    max_weight: usize,
    cells: Vec<FoundCell>,
}

/// A leaf popped from the shared frontier, copied out of the tree so it can
/// be processed without holding the frontier's lock.
struct PoppedLeaf {
    /// Pop order: outputs merge in it.
    seq: usize,
    node: usize,
    full_len: usize,
    partial: Vec<(HalfSpaceId, HalfSpace)>,
    bounds: BoundingBox,
}

/// Arrangement-cell enumerator with a per-leaf memo.
///
/// The cache key is `(leaf node, |F_l|, |P_l|)`: half-spaces are only ever
/// *added* to the quad-tree, so identical set sizes imply identical sets, and
/// a cached enumeration that was run with a Hamming-weight cap at least as
/// large as the one currently required can be reused after filtering.
#[derive(Debug, Default)]
pub struct CellEnumerator {
    cache: std::collections::HashMap<(usize, usize, usize), CachedLeaf>,
}

impl CellEnumerator {
    /// Creates an enumerator with an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// See [`enumerate_cells`].  Splits the over-threshold leaves that the
    /// walk reaches within the order bound, and no others.
    pub fn enumerate(
        &mut self,
        qt: &mut HalfSpaceQuadTree,
        hard_limit: Option<usize>,
        tau: usize,
        options: &CellEnumOptions,
        stats: &mut QueryStats,
    ) -> (Vec<ArrangementCell>, usize) {
        let simplex = reduced_simplex_constraint(qt.reduced_dims() + 1);
        // A fixed bound lets the walk skip whole subtrees; the stable sort
        // keeps walk order among leaves of equal |F_l|.
        let mut leaves: Vec<LeafRef<'_>> = qt.leaf_walk(hard_limit).collect();
        leaves.sort_by_key(|l| l.full_len);
        let mut best = usize::MAX;
        // Emitted cells as (leaf node, |F_l|, cell): `F_l` is rebuilt only
        // for the cells that survive the final bound.
        let mut out: Vec<(usize, usize, FoundCell)> = Vec::new();
        // First pass: serve every leaf whose enumeration is already cached
        // with a sufficient Hamming-weight cap, in |F_l| order, so `best` is
        // as tight as the cache allows before any computation starts.  No
        // leaf is split here.
        let mut frontier = Frontier::default();
        for &leaf in &leaves {
            let f = leaf.full_len;
            let cap = match hard_limit {
                Some(l) => l,
                None => best.saturating_add(tau),
            };
            if f > cap {
                break; // leaves are sorted by |F_l|; none of the rest can qualify
            }
            let max_weight = (cap - f).min(leaf.partial.len());
            let key = (leaf.node, f, leaf.partial.len());
            match self.cache.get(&key) {
                Some(cached) if cached.max_weight >= max_weight => {
                    stats.leaves_processed += 1;
                    for c in &cached.cells {
                        if c.p_order > max_weight {
                            continue;
                        }
                        best = best.min(f + c.p_order);
                        out.push((leaf.node, f, c.clone()));
                    }
                }
                _ => frontier.push(qt, leaf.node),
            }
        }
        let threads = if frontier.is_empty() {
            1
        } else {
            options.threads.max(1)
        };
        // Second pass: pop the remaining leaves in (|F_l|, walk order),
        // splitting each over-threshold leaf popped within the bound.  The
        // frontier and the tree share one lock; a worker pops and copies a
        // leaf under it and processes the copy outside it.  `best` is a
        // shared atomic that only ever shrinks, so a worker reading a stale
        // value pops with a looser cap (extra cells are filtered by the
        // final retain), never a tighter one — the result is identical to
        // the sequential pass.
        let shared_best = AtomicUsize::new(best);
        let shared = Mutex::new((frontier, qt, 0usize));
        let shard_outputs = scatter(threads, |_| {
            let mut shard_stats = QueryStats::default();
            let mut computed: Vec<(PoppedLeaf, usize, Vec<FoundCell>)> = Vec::new();
            loop {
                let cap = match hard_limit {
                    Some(l) => l,
                    None => shared_best.load(Ordering::Relaxed).saturating_add(tau),
                };
                let leaf = {
                    let mut guard = shared.lock().expect("a frontier worker panicked");
                    let (frontier, qt, pops) = &mut *guard;
                    let Some(node) = frontier.pop(qt, cap) else {
                        break;
                    };
                    let leaf = qt.leaf(node);
                    *pops += 1;
                    PoppedLeaf {
                        seq: *pops,
                        node,
                        full_len: leaf.full_len,
                        partial: leaf
                            .partial
                            .iter()
                            .map(|&id| (id, qt.halfspace(id)))
                            .collect(),
                        bounds: leaf.bounds(),
                    }
                };
                let f = leaf.full_len;
                let max_weight = (cap - f).min(leaf.partial.len());
                shard_stats.leaves_processed += 1;
                let cells = if leaf.bounds.dim() == 2 {
                    process_leaf_planar(
                        &leaf.bounds,
                        &leaf.partial,
                        &simplex,
                        max_weight,
                        tau,
                        &mut shard_stats,
                    )
                } else {
                    process_leaf(
                        &leaf.bounds,
                        &leaf.partial,
                        &simplex,
                        max_weight,
                        tau,
                        options,
                        &mut shard_stats,
                    )
                };
                if let Some(min) = cells.iter().map(|c| f + c.p_order).min() {
                    shared_best.fetch_min(min, Ordering::Relaxed);
                }
                computed.push((leaf, max_weight, cells));
            }
            (computed, shard_stats)
        });
        let (frontier, qt, _) = shared.into_inner().expect("a frontier worker panicked");
        stats.nodes_split += frontier.nodes_split();
        stats.box_tests += frontier.box_tests();
        best = shared_best.load(Ordering::Relaxed);
        // Merge shard outputs in pop order so cache contents and the output
        // cell order are independent of scheduling.
        let mut merged: Vec<(PoppedLeaf, usize, Vec<FoundCell>)> = shard_outputs
            .into_iter()
            .flat_map(|(computed, shard_stats)| {
                stats.leaves_processed += shard_stats.leaves_processed;
                stats.cells_tested += shard_stats.cells_tested;
                stats.bitstrings_pruned += shard_stats.bitstrings_pruned;
                stats.lp_calls += shard_stats.lp_calls;
                stats.witness_hits += shard_stats.witness_hits;
                stats.subtrees_pruned += shard_stats.subtrees_pruned;
                computed
            })
            .collect();
        merged.sort_by_key(|(leaf, _, _)| leaf.seq);
        for (leaf, max_weight, cells) in merged {
            let f = leaf.full_len;
            self.cache.insert(
                (leaf.node, f, leaf.partial.len()),
                CachedLeaf {
                    max_weight,
                    cells: cells.clone(),
                },
            );
            for c in cells {
                best = best.min(f + c.p_order);
                out.push((leaf.node, f, c));
            }
        }
        let effective = match hard_limit {
            Some(l) => l,
            None => best.saturating_add(tau),
        };
        let cells = out
            .into_iter()
            .filter(|(_, f, c)| f + c.p_order <= effective)
            .map(|(node, f, c)| ArrangementCell {
                order: f + c.p_order,
                full: qt.full_containment(node),
                inside_partial: c.inside,
                region: c.region,
            })
            .collect();
        (cells, effective)
    }
}

/// Calls `f` with every sorted `k`-subset of `0..n`.
///
/// Kept as the specification the packed [`CombinationWalker`] is checked
/// against (same subsets, same lexicographic order); production code uses the
/// walker.
#[cfg_attr(not(test), allow(dead_code))]
fn for_each_combination<F: FnMut(&[usize])>(n: usize, k: usize, mut f: F) {
    if k > n {
        return;
    }
    if k == 0 {
        f(&[]);
        return;
    }
    let mut idx: Vec<usize> = (0..k).collect();
    loop {
        f(&idx);
        // Advance to the next combination.
        let mut i = k;
        loop {
            if i == 0 {
                return;
            }
            i -= 1;
            if idx[i] != i + n - k {
                break;
            }
            if i == 0 {
                return;
            }
        }
        idx[i] += 1;
        for j in i + 1..k {
            idx[j] = idx[j - 1] + 1;
        }
    }
}

/// Runs `worker(shard)` on `threads` scoped threads and returns the per-shard
/// outputs in shard order.  `threads = 1` runs inline with no thread spawned.
fn scatter<R, F>(threads: usize, worker: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    assert!(threads >= 1, "at least one shard is required");
    if threads == 1 {
        return vec![worker(0)];
    }
    std::thread::scope(|scope| {
        let worker = &worker;
        let handles: Vec<_> = (0..threads)
            .map(|shard| scope.spawn(move || worker(shard)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard worker panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hs(coeffs: &[f64], rhs: f64) -> HalfSpace {
        HalfSpace::new(coeffs.to_vec(), rhs)
    }

    fn simplex2() -> HalfSpace {
        reduced_simplex_constraint(3)
    }

    fn opts() -> CellEnumOptions {
        CellEnumOptions::default()
    }

    fn lp_only() -> CellEnumOptions {
        CellEnumOptions {
            witness_cache: false,
            ..CellEnumOptions::default()
        }
    }

    #[test]
    fn combinations_enumerate_all_subsets() {
        let mut seen = Vec::new();
        for_each_combination(5, 2, |c| seen.push(c.to_vec()));
        assert_eq!(seen.len(), 10);
        assert!(seen.contains(&vec![0, 1]) && seen.contains(&vec![3, 4]));
        let mut zero = 0;
        for_each_combination(4, 0, |c| {
            assert!(c.is_empty());
            zero += 1;
        });
        assert_eq!(zero, 1);
        let mut none = 0;
        for_each_combination(2, 3, |_| none += 1);
        assert_eq!(none, 0);
        let mut all = 0;
        for_each_combination(3, 3, |c| {
            assert_eq!(c, &[0, 1, 2]);
            all += 1;
        });
        assert_eq!(all, 1);
    }

    fn unpack(ones: &[u64], m: usize) -> Vec<usize> {
        (0..m)
            .filter(|&i| ones[i / 64] >> (i % 64) & 1 == 1)
            .collect()
    }

    /// Deterministic pseudo-random pair-condition matrix; `density` in 0..=4
    /// controls how many of the four flags fire.
    fn random_conds(m: usize, seed: u64, density: u64) -> Vec<PairConditions> {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut conds = vec![PairConditions::default(); m * m];
        for i in 0..m {
            for j in i + 1..m {
                conds[i * m + j] = PairConditions {
                    forbid11: next() % 7 < density,
                    forbid00: next() % 7 < density,
                    forbid10: next() % 7 < density,
                    forbid01: next() % 7 < density,
                };
            }
        }
        conds
    }

    /// Reference filter over a complete bit-string (what the pre-walker code
    /// applied to every generated combination).
    fn violates_complete(chosen: &[usize], m: usize, conds: &[PairConditions]) -> bool {
        let mut bits = vec![false; m];
        for &i in chosen {
            bits[i] = true;
        }
        for i in 0..m {
            for j in i + 1..m {
                let c = &conds[i * m + j];
                match (bits[i], bits[j]) {
                    (true, true) if c.forbid11 => return true,
                    (false, false) if c.forbid00 => return true,
                    (true, false) if c.forbid10 => return true,
                    (false, true) if c.forbid01 => return true,
                    _ => {}
                }
            }
        }
        false
    }

    #[test]
    fn packed_walker_equals_for_each_combination_exhaustively() {
        // Property: over every (m ≤ 12, k), with and without conditions, the
        // packed walker emits exactly the combinations that generate-then-
        // filter keeps, in the same order, and attributes exactly the
        // rejected ones to pruned subtrees.
        for m in 0..=12usize {
            for k in 0..=m {
                for density in [0u64, 1, 3] {
                    let conds = random_conds(m, 0x5eed ^ (m as u64) << 8 ^ k as u64, density);
                    let table = ImplicationTable::build(&conds, m);
                    let mut expected = Vec::new();
                    let mut rejected = 0usize;
                    for_each_combination(m, k, |c| {
                        if density > 0 && violates_complete(c, m, &conds) {
                            rejected += 1;
                        } else {
                            expected.push(c.to_vec());
                        }
                    });
                    let mut got = Vec::new();
                    let mut walker = CombinationWalker::new(m, (density > 0).then_some(&table));
                    walker.walk(k, &mut |ones| got.push(unpack(ones, m)));
                    assert_eq!(got, expected, "m={m} k={k} density={density}");
                    assert_eq!(
                        walker.bitstrings_pruned, rejected,
                        "pruned-count mismatch m={m} k={k} density={density}"
                    );
                    if rejected > 0 {
                        assert!(walker.subtrees_pruned > 0);
                        assert!(walker.subtrees_pruned <= rejected);
                    }
                }
            }
        }
    }

    #[test]
    fn binomial_small_values() {
        assert_eq!(binomial(0, 0), 1);
        assert_eq!(binomial(5, 2), 10);
        assert_eq!(binomial(12, 6), 924);
        assert_eq!(binomial(3, 5), 0);
        assert_eq!(binomial(200, 100), usize::MAX);
    }

    #[test]
    fn figure3_within_leaf_example() {
        // Analogue of paper Figure 3(b), leaf l1: the half-spaces of the
        // partial-overlap set jointly cover the leaf (so the all-zero
        // bit-string is infeasible), the minimum p-order is 1, and it is
        // achieved only by the cell lying inside h2.
        let bounds = BoundingBox::new(vec![0.0, 0.0], vec![0.5, 0.5]);
        let h1 = hs(&[1.0, 1.0], 0.35); // x + y > 0.35
        let h2 = hs(&[-1.0, -1.0], -0.4); // x + y < 0.4
        let h6 = hs(&[1.0, 0.0], 0.05); // x > 0.05
        let h7 = hs(&[0.0, 1.0], 0.05); // y > 0.05
        let partial = vec![(0u32, h1), (1u32, h2.clone()), (2u32, h6), (3u32, h7)];
        let mut stats = QueryStats::default();
        let cells = process_leaf(
            &bounds,
            &partial,
            &simplex2(),
            usize::MAX,
            0,
            &opts(),
            &mut stats,
        );
        assert!(!cells.is_empty());
        let min_order = cells.iter().map(|c| c.p_order).min().unwrap();
        assert_eq!(min_order, 1);
        for c in cells.iter().filter(|c| c.p_order == 1) {
            assert_eq!(
                c.inside,
                vec![1],
                "the p-order-1 cell must be inside h2 only"
            );
            assert!(h2.contains(&c.region.witness));
        }
    }

    #[test]
    fn empty_bitstring_cell_found_when_leaf_uncovered() {
        // A single half-space clipping a corner: the weight-0 cell exists.
        let bounds = BoundingBox::unit(2);
        let partial = vec![(0u32, hs(&[1.0, 1.0], 1.5))];
        let mut stats = QueryStats::default();
        let cells = process_leaf(
            &bounds,
            &partial,
            &simplex2(),
            usize::MAX,
            0,
            &opts(),
            &mut stats,
        );
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].p_order, 0);
        assert!(cells[0].inside.is_empty());
    }

    #[test]
    fn collect_extra_returns_higher_weights() {
        // Two nested half-spaces: weight-0 cell exists; with collect_extra = 2
        // the weight-1 and weight-2 cells are returned too.
        let bounds = BoundingBox::unit(2);
        let partial = vec![(0u32, hs(&[1.0, 1.0], 0.6)), (1u32, hs(&[1.0, 1.0], 1.2))];
        let mut stats = QueryStats::default();
        let plain = process_leaf(
            &bounds,
            &partial,
            &simplex2(),
            usize::MAX,
            0,
            &opts(),
            &mut stats,
        );
        assert!(plain.iter().all(|c| c.p_order == 0));
        let extended = process_leaf(
            &bounds,
            &partial,
            &simplex2(),
            usize::MAX,
            2,
            &opts(),
            &mut stats,
        );
        let weights: Vec<usize> = extended.iter().map(|c| c.p_order).collect();
        assert!(weights.contains(&0) && weights.contains(&1));
        // Note: the weight-2 combination {inside h0, inside h1} is feasible
        // only where x+y > 1.2 intersects the simplex x+y < 1 — it is empty.
        assert!(!weights.contains(&2));
    }

    #[test]
    fn max_weight_caps_enumeration() {
        // The only non-empty cells require weight 1, but the cap of 0 forbids
        // finding them.
        let bounds = BoundingBox::unit(2);
        // Two complementary half-spaces covering the leaf: weight-0 cell empty.
        let partial = vec![(0u32, hs(&[1.0, 0.0], 0.4)), (1u32, hs(&[-1.0, 0.0], -0.6))];
        let mut stats = QueryStats::default();
        let capped = process_leaf(&bounds, &partial, &simplex2(), 0, 0, &opts(), &mut stats);
        assert!(capped.is_empty());
        let uncapped = process_leaf(&bounds, &partial, &simplex2(), 2, 0, &opts(), &mut stats);
        assert!(!uncapped.is_empty());
        assert!(uncapped.iter().all(|c| c.p_order == 1));
    }

    /// Sorted `(p_order, inside)` keys of a cell list.
    fn cell_keys(cells: &[FoundCell]) -> Vec<(usize, Vec<HalfSpaceId>)> {
        let mut keys: Vec<_> = cells
            .iter()
            .map(|c| (c.p_order, c.inside.clone()))
            .collect();
        keys.sort();
        keys
    }

    fn rich_partial() -> Vec<(HalfSpaceId, HalfSpace)> {
        vec![
            (0u32, hs(&[1.0, 0.2], 0.5)),
            (1u32, hs(&[-1.0, 0.3], -0.4)),
            (2u32, hs(&[0.3, 1.0], 0.7)),
            (3u32, hs(&[1.0, 1.0], 1.1)),
            (4u32, hs(&[-0.5, 1.0], 0.1)),
        ]
    }

    #[test]
    fn pair_pruning_matches_unpruned_results() {
        // The pruned and unpruned enumerations must find exactly the same
        // cells (same weights and same inside-sets).
        let bounds = BoundingBox::unit(2);
        let partial = rich_partial();
        let mut s1 = QueryStats::default();
        let mut s2 = QueryStats::default();
        let with = process_leaf(
            &bounds,
            &partial,
            &simplex2(),
            usize::MAX,
            3,
            &opts(),
            &mut s1,
        );
        let without = process_leaf(
            &bounds,
            &partial,
            &simplex2(),
            usize::MAX,
            3,
            &CellEnumOptions {
                pair_pruning: false,
                ..opts()
            },
            &mut s2,
        );
        assert_eq!(cell_keys(&with), cell_keys(&without));
        // Pruning must have dismissed at least one bit-string in this richly
        // overlapping configuration.
        assert!(s1.bitstrings_pruned > 0);
        assert!(s1.subtrees_pruned > 0);
        assert_eq!(s2.subtrees_pruned, 0);
    }

    #[test]
    fn witness_cache_matches_lp_only_cell_for_cell() {
        // The witness fast path must not change the cell set, and must save
        // LP calls on a richly overlapping leaf.
        let bounds = BoundingBox::unit(2);
        let partial = rich_partial();
        for pair_pruning in [true, false] {
            let mut s_wit = QueryStats::default();
            let mut s_lp = QueryStats::default();
            let with_witness = process_leaf(
                &bounds,
                &partial,
                &simplex2(),
                usize::MAX,
                3,
                &CellEnumOptions {
                    pair_pruning,
                    witness_cache: true,
                    threads: 1,
                },
                &mut s_wit,
            );
            let lp_only = process_leaf(
                &bounds,
                &partial,
                &simplex2(),
                usize::MAX,
                3,
                &CellEnumOptions {
                    pair_pruning,
                    witness_cache: false,
                    threads: 1,
                },
                &mut s_lp,
            );
            assert_eq!(
                cell_keys(&with_witness),
                cell_keys(&lp_only),
                "pair_pruning={pair_pruning}"
            );
            assert_eq!(s_wit.cells_tested, s_lp.cells_tested);
            assert_eq!(s_lp.witness_hits, 0);
            assert!(
                s_wit.lp_calls <= s_lp.lp_calls,
                "witness cache must never add LP calls: {} vs {}",
                s_wit.lp_calls,
                s_lp.lp_calls
            );
            assert_eq!(s_lp.lp_calls, s_wit.lp_calls + s_wit.witness_hits);
            if pair_pruning {
                // The pair-condition LPs seed the pool, so some candidate
                // must be answered without an LP on this rich leaf.
                assert!(
                    s_wit.witness_hits > 0,
                    "expected witness hits with pair pruning on"
                );
            }
            // Every witness of every cell must be strictly interior.
            for c in &with_witness {
                assert!(c.region.contains(&c.region.witness.clone()));
            }
        }
    }

    /// Minimum number of `hss` containing a point of a dense grid over the
    /// permissible simplex of the `dr`-dimensional reduced space.
    fn grid_min_count(hss: &[HalfSpace], dr: usize, steps: usize) -> usize {
        let mut best = usize::MAX;
        let mut idx = vec![1usize; dr];
        loop {
            let q: Vec<f64> = idx.iter().map(|&i| i as f64 / steps as f64).collect();
            if q.iter().sum::<f64>() < 1.0 {
                best = best.min(hss.iter().filter(|h| h.contains(&q)).count());
            }
            let mut pos = 0;
            loop {
                idx[pos] += 1;
                if idx[pos] < steps {
                    break;
                }
                idx[pos] = 1;
                pos += 1;
                if pos == dr {
                    return best;
                }
            }
        }
    }

    /// Builds a quad-tree over `hss`, enumerates its cells and checks the
    /// minimum order against a dense grid scan of the permissible simplex.
    fn check_min_order_against_grid(hss: &[HalfSpace], steps: usize) -> QueryStats {
        let dr = hss[0].dim();
        let mut qt = HalfSpaceQuadTree::new(dr);
        for h in hss {
            qt.insert(h.clone());
        }
        let mut stats = QueryStats::default();
        let (cells, _) = enumerate_cells(&qt, None, 0, &opts(), &mut stats);
        assert!(!cells.is_empty());
        let min_order = cells.iter().map(|c| c.order).min().unwrap();
        assert_eq!(min_order, grid_min_count(hss, dr, steps), "dr = {dr}");
        // Every reported min-order cell's witness must indeed see `min_order`
        // half-spaces.
        for c in cells.iter().filter(|c| c.order == min_order) {
            let w = &c.region.witness;
            let count = hss.iter().filter(|h| h.contains(w)).count();
            assert_eq!(count, min_order, "dr = {dr}");
        }
        assert!(stats.leaves_processed > 0);
        assert!(stats.cells_tested > 0);
        stats
    }

    #[test]
    fn enumerate_cells_against_direct_point_counts() {
        // The minimum cell order reported by enumerate_cells matches a dense
        // grid scan of the permissible simplex, on the planar path (dr = 2)
        // and on the LP path (dr = 3).
        let planar = check_min_order_against_grid(
            &[
                hs(&[1.0, 0.1], 0.45),
                hs(&[-0.2, 1.0], 0.35),
                hs(&[-1.0, -1.0], -0.9),
                hs(&[0.7, -1.0], -0.1),
                hs(&[1.0, 1.0], 0.75),
            ],
            200,
        );
        // The planar path decides faces, not candidates: no witness cache,
        // and an LP only for a face its centroid cannot prove.
        assert_eq!(planar.witness_hits, 0);
        assert!(planar.lp_calls <= planar.cells_tested);
        let lp = check_min_order_against_grid(
            &[
                hs(&[1.0, 0.1, 0.2], 0.3),
                hs(&[-0.2, 1.0, 0.1], 0.25),
                hs(&[-1.0, -1.0, -1.0], -0.8),
                hs(&[0.7, -1.0, 0.3], -0.1),
                hs(&[1.0, 1.0, 0.5], 0.6),
            ],
            40,
        );
        assert!(lp.lp_calls > 0);
        assert!(lp.lp_calls + lp.witness_hits >= lp.cells_tested);
    }

    #[test]
    fn parallel_enumeration_matches_sequential() {
        // A richly overlapping arrangement split across several quad-tree
        // leaves: sharding the frontier must not change the cell set, for
        // both the fixed-cap and the adaptive-cap paths.
        let mut qt = HalfSpaceQuadTree::new(2);
        let mut v = 0.31f64;
        for _ in 0..24 {
            v = (v * 997.0).fract();
            let a = v * 2.0 - 1.0;
            v = (v * 997.0).fract();
            let b = v * 2.0 - 1.0;
            v = (v * 997.0).fract();
            qt.insert(hs(&[a, b], v * 0.8 - 0.2));
        }
        for hard_limit in [None, Some(3)] {
            let mut seq_stats = QueryStats::default();
            let (seq, seq_limit) = enumerate_cells(&qt, hard_limit, 1, &opts(), &mut seq_stats);
            let mut par_stats = QueryStats::default();
            let par_opts = CellEnumOptions {
                threads: 4,
                ..opts()
            };
            let (par, par_limit) = enumerate_cells(&qt, hard_limit, 1, &par_opts, &mut par_stats);
            assert_eq!(seq_limit, par_limit, "hard_limit {hard_limit:?}");
            let key = |c: &ArrangementCell| {
                let mut full = c.full.clone();
                full.sort_unstable();
                (c.order, full, c.inside_partial.clone())
            };
            let mut a: Vec<_> = seq.iter().map(key).collect();
            let mut b: Vec<_> = par.iter().map(key).collect();
            a.sort();
            b.sort();
            assert_eq!(a, b, "hard_limit {hard_limit:?}");
            assert!(par_stats.leaves_processed >= seq_stats.leaves_processed);
        }
    }

    /// A quad-tree over `n` pseudo-random half-spaces of the `dr`-dimensional
    /// reduced space.
    fn random_tree(dr: usize, n: usize, mut v: f64) -> HalfSpaceQuadTree {
        let mut qt = HalfSpaceQuadTree::new(dr);
        for _ in 0..n {
            let coeffs: Vec<f64> = (0..dr)
                .map(|_| {
                    v = (v * 997.0).fract();
                    v * 2.0 - 1.0
                })
                .collect();
            v = (v * 997.0).fract();
            qt.insert(hs(&coeffs, v * 0.8 - 0.2));
        }
        qt
    }

    /// Enumerates `qt` with the witness cache on and off, asserts the cell
    /// sets agree, and returns both runs' statistics.
    fn witness_vs_lp_only(qt: &HalfSpaceQuadTree) -> (QueryStats, QueryStats) {
        let mut s_wit = QueryStats::default();
        let mut s_lp = QueryStats::default();
        let (wit, wl) = enumerate_cells(qt, None, 1, &opts(), &mut s_wit);
        let (lp, ll) = enumerate_cells(qt, None, 1, &lp_only(), &mut s_lp);
        assert_eq!(wl, ll);
        let key = |c: &ArrangementCell| {
            let mut full = c.full.clone();
            full.sort_unstable();
            (c.order, full, c.inside_partial.clone())
        };
        let mut a: Vec<_> = wit.iter().map(key).collect();
        let mut b: Vec<_> = lp.iter().map(key).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        (s_wit, s_lp)
    }

    #[test]
    fn lp_only_enumeration_matches_witness_enumeration_across_leaves() {
        // The whole-arrangement enumeration agrees cell-for-cell between the
        // witness fast path and the LP-only path.  At dr = 2 both take the
        // planar path; at dr = 3 the fast path issues strictly fewer LPs.
        witness_vs_lp_only(&random_tree(2, 20, 0.47));
        let (s_wit, s_lp) = witness_vs_lp_only(&random_tree(3, 14, 0.47));
        assert!(
            s_wit.lp_calls < s_lp.lp_calls,
            "witness cache must reduce LP calls ({} vs {})",
            s_wit.lp_calls,
            s_lp.lp_calls
        );
        assert!(s_wit.witness_hits > 0);
    }

    #[test]
    fn enumerate_cells_hard_limit_returns_all_below() {
        let mut qt = HalfSpaceQuadTree::new(2);
        // Three nested half-spaces produce cells of orders 0..=3 along the
        // diagonal (intersected with the simplex).
        qt.insert(hs(&[1.0, 1.0], 0.3));
        qt.insert(hs(&[1.0, 1.0], 0.5));
        qt.insert(hs(&[1.0, 1.0], 0.7));
        // With a hard limit of 2 and tau = 2, every cell within 2 of each
        // leaf's minimum and with order ≤ 2 must be reported.
        let mut stats = QueryStats::default();
        let (cells, limit) = enumerate_cells(&qt, Some(2), 2, &opts(), &mut stats);
        assert_eq!(limit, 2);
        let orders: std::collections::BTreeSet<usize> = cells.iter().map(|c| c.order).collect();
        assert!(orders.contains(&0) && orders.contains(&1) && orders.contains(&2));
        assert!(!orders.contains(&3));
        // With tau = 0 only the minimum-order cells survive.
        let mut stats = QueryStats::default();
        let (cells, _) = enumerate_cells(&qt, None, 0, &opts(), &mut stats);
        assert!(cells.iter().all(|c| c.order == 0));
    }

    #[test]
    fn scatter_collects_in_shard_order() {
        let outputs = scatter(4, |shard| shard * 10);
        assert_eq!(outputs, vec![0, 10, 20, 30]);
        // The single-shard path runs inline.
        assert_eq!(scatter(1, |shard| shard), vec![0]);
    }

    /// Xorshift64 stream for the planar-equivalence cases.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }
        fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
            xs[self.below(xs.len() as u64) as usize]
        }
    }

    /// A leaf box: a quad-tree cell of depth 0–5, or a box whose lower
    /// corner sits on, just below or just above the simplex edge.
    fn planar_case_box(rng: &mut Rng) -> BoundingBox {
        if rng.below(4) == 0 {
            let x = rng.unit();
            let gap = rng.pick(&[0.0, 1e-12, 2e-9, 1e-8, 1e-6, -1e-9]);
            let lo = vec![x, 1.0 - x - gap];
            let size = rng.pick(&[0.5, 0.125, 1.0 / 32.0]);
            BoundingBox::new(lo.clone(), lo.iter().map(|l| l + size).collect())
        } else {
            let cells = 1u64 << rng.below(6);
            let size = 1.0 / cells as f64;
            let ix = rng.below(cells) as f64;
            let iy = rng.below(cells - ix as u64) as f64;
            BoundingBox::new(
                vec![ix * size, iy * size],
                vec![(ix + 1.0) * size, (iy + 1.0) * size],
            )
        }
    }

    /// Up to `max_lines` lines of the kinds that break planar geometry code:
    /// random lines through the leaf, exact and opposite-oriented copies,
    /// lines through box corners, simplex crossings and earlier lines'
    /// intersections, box and simplex edges, small-integer coefficients and
    /// near-parallel pairs.  Coefficients are scaled at random so the slab
    /// normalisation is exercised too.
    fn planar_case_lines(
        rng: &mut Rng,
        bounds: &BoundingBox,
        max_lines: u64,
    ) -> Vec<(HalfSpaceId, HalfSpace)> {
        let (lo, hi) = (&bounds.lo, &bounds.hi);
        let m = rng.below(max_lines + 1) as usize;
        let mut lines: Vec<HalfSpace> = Vec::with_capacity(m);
        let through = |p: [f64; 2], theta: f64| {
            let a = [theta.cos(), theta.sin()];
            hs(&a, a[0] * p[0] + a[1] * p[1])
        };
        while lines.len() < m {
            let theta = rng.unit() * std::f64::consts::TAU;
            let inner = [
                lo[0] + rng.unit() * (hi[0] - lo[0]),
                lo[1] + rng.unit() * (hi[1] - lo[1]),
            ];
            let earlier = (!lines.is_empty()).then(|| {
                let i = rng.below(lines.len() as u64) as usize;
                lines[i].clone()
            });
            let h = match (rng.below(10), earlier) {
                (1, Some(e)) => e,
                (2, Some(e)) => e.complement(),
                (3, _) => {
                    let corner = [rng.pick(&[lo[0], hi[0]]), rng.pick(&[lo[1], hi[1]])];
                    through(corner, theta)
                }
                (4, _) => {
                    // Where the simplex edge x + y = 1 meets the box's lines.
                    let on_edge = rng.pick(&[[lo[0], 1.0 - lo[0]], [1.0 - lo[1], lo[1]]]);
                    through(on_edge, theta)
                }
                (5, Some(e)) => {
                    let f = &lines[rng.below(lines.len() as u64) as usize];
                    let det = e.coeffs[0] * f.coeffs[1] - e.coeffs[1] * f.coeffs[0];
                    if det.abs() < 1e-6 {
                        through(inner, theta)
                    } else {
                        let x = (e.rhs * f.coeffs[1] - e.coeffs[1] * f.rhs) / det;
                        let y = (e.coeffs[0] * f.rhs - e.rhs * f.coeffs[0]) / det;
                        through([x, y], theta)
                    }
                }
                (6, _) => {
                    let edges = [
                        hs(&[1.0, 0.0], lo[0]),
                        hs(&[-1.0, 0.0], -hi[0]),
                        hs(&[0.0, 1.0], lo[1]),
                        hs(&[0.0, -1.0], -hi[1]),
                        hs(&[1.0, 1.0], 1.0),
                        hs(&[-1.0, -1.0], -1.0),
                    ];
                    let h = rng.pick(&[0, 1, 2, 3, 4, 5]);
                    let h = edges[h].clone();
                    if rng.below(2) == 0 {
                        h.complement()
                    } else {
                        h
                    }
                }
                (7, _) => {
                    let (a, b) = loop {
                        let a = rng.below(7) as f64 - 3.0;
                        let b = rng.below(7) as f64 - 3.0;
                        if a != 0.0 || b != 0.0 {
                            break (a, b);
                        }
                    };
                    hs(&[a, b], (rng.below(19) as f64 - 6.0) / 6.0)
                }
                (8, Some(e)) => {
                    let turn: f64 = rng.pick(&[1e-6, 1e-8, 1e-10, 1e-12, 0.0]);
                    let shift = rng.pick(&[0.0, 1e-9, -1e-8, 1e-7, 3e-7]);
                    let (c, s) = (turn.cos(), turn.sin());
                    let (a0, a1) = (e.coeffs[0], e.coeffs[1]);
                    hs(&[c * a0 - s * a1, s * a0 + c * a1], e.rhs + shift)
                }
                _ => through(inner, theta),
            };
            let scale = rng.pick(&[1.0, 1.0, 2.0, 0.3, 7.5]);
            lines.push(hs(
                &[h.coeffs[0] * scale, h.coeffs[1] * scale],
                h.rhs * scale,
            ));
        }
        // Ids out of position order, so emission order cannot lean on them.
        lines
            .into_iter()
            .enumerate()
            .map(|(i, h)| ((i as u32 * 37 + 11) % 101, h))
            .collect()
    }

    /// Asserts that the planar path finds exactly the LP path's cells (both
    /// knobs off): same `(p_order, inside)` list in the same order, same
    /// constraints, and a witness inside its region by the recorded slack.
    fn assert_planar_matches_lp(
        bounds: &BoundingBox,
        partial: &[(HalfSpaceId, HalfSpace)],
        label: &str,
    ) {
        let knobs_off = CellEnumOptions {
            pair_pruning: false,
            witness_cache: false,
            threads: 1,
        };
        let m = partial.len();
        for max_weight in [0, 1, m] {
            for collect_extra in [0, 2] {
                let ctx = format!("{label} max_weight={max_weight} collect_extra={collect_extra}");
                let mut lp_stats = QueryStats::default();
                let lp = process_leaf(
                    bounds,
                    partial,
                    &simplex2(),
                    max_weight,
                    collect_extra,
                    &knobs_off,
                    &mut lp_stats,
                );
                let mut planar_stats = QueryStats::default();
                let planar = process_leaf_planar(
                    bounds,
                    partial,
                    &simplex2(),
                    max_weight,
                    collect_extra,
                    &mut planar_stats,
                );
                let keys = |cells: &[FoundCell]| -> Vec<(usize, Vec<HalfSpaceId>)> {
                    cells
                        .iter()
                        .map(|c| (c.p_order, c.inside.clone()))
                        .collect()
                };
                assert_eq!(keys(&planar), keys(&lp), "{ctx}");
                for (p, l) in planar.iter().zip(&lp) {
                    assert_eq!(p.region.constraints, l.region.constraints, "{ctx}");
                    assert!(p.region.slack > FEASIBILITY_SLACK, "{ctx}");
                    // A centroid witness clears every constraint by exactly
                    // its slack or more; an LP witness by more than the
                    // feasibility slack, and by its slack up to the LP's
                    // accuracy.
                    for h in &p.region.constraints {
                        let s = h.normalized().slack(&p.region.witness);
                        assert!(
                            s > FEASIBILITY_SLACK && s >= p.region.slack - 1e-9,
                            "witness clears a constraint by {s}, slack {} [{ctx}]",
                            p.region.slack
                        );
                    }
                }
                assert!(planar_stats.lp_calls <= planar_stats.cells_tested, "{ctx}");
                assert_eq!(planar_stats.witness_hits, 0, "{ctx}");
                assert_eq!(planar_stats.subtrees_pruned, 0, "{ctx}");
                assert_eq!(planar_stats.bitstrings_pruned, 0, "{ctx}");
            }
        }
    }

    fn planar_sweep(cases: u64, max_lines: u64) {
        for seed in 0..cases {
            let mut rng = Rng(0x9e37_79b9_7f4a_7c15 ^ (seed + 1).wrapping_mul(0x2545_f491));
            let bounds = planar_case_box(&mut rng);
            let partial = planar_case_lines(&mut rng, &bounds, max_lines);
            assert_planar_matches_lp(&bounds, &partial, &format!("seed {seed}"));
        }
    }

    #[test]
    fn planar_leaf_equals_lp_leaf_on_hard_lines() {
        planar_sweep(150, 12);
    }

    #[test]
    #[ignore = "extended sweep: several minutes in release"]
    fn planar_leaf_equals_lp_leaf_on_hard_lines_extended() {
        planar_sweep(5_000, 16);
    }

    #[test]
    fn planar_leaf_on_the_paper_examples() {
        // The hand-built leaves above, through the planar path.
        assert_planar_matches_lp(&BoundingBox::unit(2), &rich_partial(), "rich");
        let figure3 = BoundingBox::new(vec![0.0, 0.0], vec![0.5, 0.5]);
        let partial = vec![
            (0u32, hs(&[1.0, 1.0], 0.35)),
            (1u32, hs(&[-1.0, -1.0], -0.4)),
            (2u32, hs(&[1.0, 0.0], 0.05)),
            (3u32, hs(&[0.0, 1.0], 0.05)),
        ];
        assert_planar_matches_lp(&figure3, &partial, "figure 3");
    }

    #[test]
    fn planar_lex_order_matches_the_combination_walker() {
        let m = 9;
        for k in 0..=m {
            let mut walked: Vec<Vec<u64>> = Vec::new();
            CombinationWalker::new(m, None).walk(k, &mut |ones| walked.push(ones.to_vec()));
            let mut sorted = walked.clone();
            sorted.reverse();
            sorted.sort_by(|a, b| lex_order(a, b));
            assert_eq!(sorted, walked, "k={k}");
        }
    }
}
