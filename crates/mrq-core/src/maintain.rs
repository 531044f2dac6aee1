//! Delta triage for standing (continuously maintained) MaxRank results.
//!
//! A subscription keeps the last full [`MaxRankResult`] of a focal record
//! resident.  When the dataset changes, most deltas cannot change that
//! result: in the reduced query space, an inserted or deleted record `r`
//! matters only where its half-space `S(r) > S(p)` overlaps the stored rank
//! regions, and that overlap is decidable with a handful of dot products
//! against the regions' retained bounding boxes — no index traversal, no
//! cell enumeration, no LPs.  This module classifies one delta record
//! against one resident result and, for the uniform-shift case, repairs the
//! result arithmetically.
//!
//! The taxonomy is deliberately conservative: every class short of
//! [`DeltaTriage::ReEnumerate`] carries a soundness argument (below), and
//! anything without one falls through to re-enumeration.  Correctness is
//! therefore never at stake — only how much work is skipped.
//!
//! # Why the cheap verdicts are exact
//!
//! * **Uniform shift** — a record that outranks the focal record for *every*
//!   permissible query vector (a dominator, or a numerically degenerate
//!   always-above record) adds one to the order of every cell of the
//!   arrangement and never appears as an arrangement half-space itself: the
//!   algorithms fold it into the `base` count and exclude it from
//!   `outranking` lists ([`crate::ResultRegion::outranking`]).  Inserting or
//!   deleting one shifts `k*` and every region order by ±1 and changes
//!   nothing else — the cell decomposition, witnesses, H-representations and
//!   outranking sets of a fresh evaluation are bit-for-bit identical.
//! * **Unaffected insert** — if the inserted record's half-space is disjoint
//!   from every result region's bounding box (the quad-tree leaf the cell
//!   was enumerated in), no result cell gains an outranking record, so
//!   orders there are unchanged; everywhere else an insert can only *raise*
//!   orders, so no outside cell can enter the `[k*, k* + τ]` window.  The
//!   half-space also never reaches those leaves in a fresh evaluation, so
//!   the enumerated cells and their constraint lists are unchanged too.
//!   Records shadowed by the insert (its dominees) live inside its
//!   half-space and therefore cannot touch the result regions either.
//! * **Unaffected delete / never-above records** — a record the focal record
//!   dominates (or whose half-space is empty inside the query domain) never
//!   participates in the arrangement at all; adding or removing it is
//!   invisible.
//!
//! The asymmetric case is a *delete* whose half-space crosses the query
//! domain away from the result regions: orders outside the stored window
//! may *drop* into it, which no retained certificate can refute — such
//! deletes re-enumerate.

use crate::result::MaxRankResult;
use mrq_data::{classify, Dataset, DomRelation, Update};
use mrq_geometry::{halfspace_for_record, BoxRelation};

/// Relationship of one delta record to a resident result, before the
/// insert/delete direction is applied.  Produced by [`classify_delta`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaClass {
    /// The record outranks the focal record for every permissible query
    /// vector: it shifts every order and `k*` uniformly by one.
    OutranksEverywhere,
    /// The record never outranks the focal record: it is invisible to the
    /// result whether present or absent.
    NeverOutranks,
    /// The record's half-space is disjoint from every result region's
    /// bounding box but crosses the query domain elsewhere.
    MissesResult,
    /// The record's half-space may overlap a result region.
    CrossesResult,
}

/// Verdict of triaging one delta against a resident result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaTriage {
    /// The resident result is still exact; only its version stamp moves.
    Unaffected,
    /// The resident result stays structurally identical but every region
    /// order and `k*` shift by the carried amount (`+1` insert, `-1`
    /// delete).  Repair with [`shift_result`].
    RankShift(i32),
    /// No cheap certificate applies: re-run the evaluation.
    ReEnumerate,
}

/// Classifies one delta record `row` against the resident `result` for the
/// focal record `focal`, using only dominance tests and box/half-space dot
/// products.
///
/// # Panics
/// Panics if `row` and `focal` have different dimensionality.
pub fn classify_delta(result: &MaxRankResult, focal: &[f64], row: &[f64]) -> DeltaClass {
    assert_eq!(
        row.len(),
        focal.len(),
        "delta record and focal record dimensions differ"
    );
    match classify(row, focal) {
        DomRelation::Dominates => DeltaClass::OutranksEverywhere,
        DomRelation::DominatedBy | DomRelation::Equal => DeltaClass::NeverOutranks,
        DomRelation::Incomparable => {
            let h = halfspace_for_record(row, focal);
            if h.is_degenerate() {
                // Degenerate half-spaces are how the evaluators see records
                // within EPS of a dominator/dominee; mirror their verdicts.
                return if h.degenerate_is_full() {
                    DeltaClass::CrossesResult
                } else {
                    DeltaClass::NeverOutranks
                };
            }
            let disjoint = result
                .regions
                .iter()
                .all(|r| r.region.bounds.relation_to(&h) == BoxRelation::Disjoint);
            if disjoint {
                DeltaClass::MissesResult
            } else {
                DeltaClass::CrossesResult
            }
        }
    }
}

/// Triage for an **inserted** record.
pub fn triage_insert(result: &MaxRankResult, focal: &[f64], row: &[f64]) -> DeltaTriage {
    match classify_delta(result, focal, row) {
        DeltaClass::OutranksEverywhere => DeltaTriage::RankShift(1),
        DeltaClass::NeverOutranks | DeltaClass::MissesResult => DeltaTriage::Unaffected,
        DeltaClass::CrossesResult => DeltaTriage::ReEnumerate,
    }
}

/// Triage for a **deleted** record (pass the record's last coordinates —
/// tombstoned slots keep them readable).
pub fn triage_delete(result: &MaxRankResult, focal: &[f64], row: &[f64]) -> DeltaTriage {
    match classify_delta(result, focal, row) {
        DeltaClass::OutranksEverywhere => DeltaTriage::RankShift(-1),
        DeltaClass::NeverOutranks => DeltaTriage::Unaffected,
        // A delete can promote cells *outside* the stored regions into the
        // result window; missing the stored regions is not enough.
        DeltaClass::MissesResult | DeltaClass::CrossesResult => DeltaTriage::ReEnumerate,
    }
}

/// Verdict of triaging a whole update batch against a resident result.
#[derive(Debug, Clone)]
pub enum BatchTriage {
    /// No delta of the batch changes the result: it is exact at the new
    /// version as it stands.
    Unaffected,
    /// Every delta is unaffected or a uniform shift, and the shifts do not
    /// cancel out: the carried result is the resident one, shifted.
    Shifted(MaxRankResult),
    /// Some delta has no cheap certificate: re-run the evaluation.
    ReEnumerate,
}

/// How the deltas of one batch resolved, counted up to and including the
/// first that needs re-enumeration (which decides the batch).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TriageTally {
    /// Deltas examined.
    pub triaged: u64,
    /// Deltas certified unaffected.
    pub unaffected: u64,
    /// Deltas resolved by a uniform rank shift.
    pub shifted: u64,
}

/// Triages an applied update batch against a result resident from the
/// batch's parent version.  `focal` is the focal record's row and `data`
/// the dataset after the batch (tombstoned slots keep the deleted rows
/// readable).  Deltas are classified in batch order; the first that needs
/// re-enumeration decides the batch.  This is the one maintenance rule of
/// the service: its standing queries and its result cache both carry a
/// result across an update through it.
///
/// # Panics
/// Panics if a row's dimensionality differs from `focal`'s, or if a delete
/// names an id `data` never had.
pub fn triage_batch(
    result: &MaxRankResult,
    focal: &[f64],
    batch: &[Update],
    data: &Dataset,
) -> (BatchTriage, TriageTally) {
    let mut tally = TriageTally::default();
    let mut shift = 0i32;
    for update in batch {
        tally.triaged += 1;
        let verdict = match update {
            Update::Insert(row) => triage_insert(result, focal, row),
            Update::Delete(id) => triage_delete(result, focal, data.record(*id)),
        };
        match verdict {
            DeltaTriage::Unaffected => tally.unaffected += 1,
            DeltaTriage::RankShift(by) => {
                tally.shifted += 1;
                shift += by;
            }
            DeltaTriage::ReEnumerate => return (BatchTriage::ReEnumerate, tally),
        }
    }
    // Shifts that cancel out leave every order where it was.
    let verdict = if shift == 0 {
        BatchTriage::Unaffected
    } else {
        BatchTriage::Shifted(shift_result(result, shift))
    };
    (verdict, tally)
}

/// Applies a uniform rank shift to a resident result: `k*` and every region
/// order move by `shift`, everything else (regions, witnesses, outranking
/// sets, statistics) is carried over unchanged.
///
/// # Panics
/// Panics if the shift would take `k*` or any region order below 1 — a
/// negative shift is only ever produced for a record that outranked the
/// focal record everywhere, which contributes at least one to every order.
pub fn shift_result(result: &MaxRankResult, shift: i32) -> MaxRankResult {
    let apply = |order: usize| -> usize {
        let shifted = order as i64 + shift as i64;
        assert!(shifted >= 1, "rank shift would produce an order below 1");
        shifted as usize
    };
    let mut shifted = result.clone();
    shifted.k_star = apply(shifted.k_star);
    for region in &mut shifted.regions {
        region.order = apply(region.order);
    }
    shifted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{MaxRankConfig, MaxRankQuery};
    use mrq_data::Dataset;
    use mrq_index::RStarTree;

    /// Figure 1(a) of the paper: focal record 5 = (0.5, 0.5), k* = 3.
    fn figure1() -> (Dataset, RStarTree) {
        let rows = vec![
            vec![0.8, 0.9],
            vec![0.2, 0.7],
            vec![0.9, 0.4],
            vec![0.7, 0.2],
            vec![0.4, 0.3],
            vec![0.5, 0.5],
        ];
        let data = Dataset::from_rows(2, &rows);
        let tree = RStarTree::bulk_load(&data);
        (data, tree)
    }

    fn eval(data: &Dataset, tree: &RStarTree, focal: u32) -> MaxRankResult {
        MaxRankQuery::new(data, tree).evaluate(focal, &MaxRankConfig::new())
    }

    #[test]
    fn dominator_insert_shifts() {
        let (data, tree) = figure1();
        let result = eval(&data, &tree, 5);
        let p = data.record(5);
        assert_eq!(
            triage_insert(&result, p, &[0.95, 0.95]),
            DeltaTriage::RankShift(1)
        );
        // Weak dominance with one strict attribute still covers the open
        // simplex.
        assert_eq!(
            triage_insert(&result, p, &[0.5, 0.6]),
            DeltaTriage::RankShift(1)
        );
    }

    #[test]
    fn dominee_insert_is_unaffected() {
        let (data, tree) = figure1();
        let result = eval(&data, &tree, 5);
        let p = data.record(5);
        assert_eq!(
            triage_insert(&result, p, &[0.05, 0.05]),
            DeltaTriage::Unaffected
        );
        // An exact duplicate of the focal record never *strictly* outranks.
        assert_eq!(
            triage_insert(&result, p, &[0.5, 0.5]),
            DeltaTriage::Unaffected
        );
    }

    #[test]
    fn dominator_delete_shifts_down() {
        let (data, tree) = figure1();
        let result = eval(&data, &tree, 5);
        let p = data.record(5);
        // Record 0 = (0.8, 0.9) dominates the focal record.
        assert_eq!(
            triage_delete(&result, p, data.record(0)),
            DeltaTriage::RankShift(-1)
        );
    }

    #[test]
    fn incomparable_delete_reenumerates() {
        let (data, tree) = figure1();
        let result = eval(&data, &tree, 5);
        let p = data.record(5);
        // Record 2 = (0.9, 0.4) is incomparable: deleting it may promote
        // cells outside the stored regions.
        assert_eq!(
            triage_delete(&result, p, data.record(2)),
            DeltaTriage::ReEnumerate
        );
    }

    #[test]
    fn shift_matches_fresh_evaluation() {
        let (mut data, tree) = figure1();
        let before = eval(&data, &tree, 5);
        let shifted = shift_result(&before, 1);

        let mut tree = tree;
        let applied = data
            .apply(&mrq_data::Update::Insert(vec![0.95, 0.95]))
            .unwrap();
        let id = applied.inserted.expect("insert assigns an id");
        tree.insert(id, data.record(id));
        let fresh = eval(&data, &tree, 5);

        assert_eq!(shifted.k_star, fresh.k_star);
        assert_eq!(shifted.regions.len(), fresh.regions.len());
        for (a, b) in shifted.regions.iter().zip(&fresh.regions) {
            assert_eq!(a.order, b.order);
            let mut oa = a.outranking.clone();
            let mut ob = b.outranking.clone();
            oa.sort_unstable();
            ob.sort_unstable();
            assert_eq!(oa, ob);
        }
    }

    #[test]
    fn batch_triage_sums_shifts_and_stops_at_the_first_reenumeration() {
        let (data, tree) = figure1();
        let result = eval(&data, &tree, 5);
        let p = data.record(5);
        let dominating = Update::Insert(vec![0.95, 0.95]);
        let dominated = Update::Insert(vec![0.05, 0.05]);
        let (verdict, tally) =
            triage_batch(&result, p, &[dominating.clone(), dominated.clone()], &data);
        match verdict {
            BatchTriage::Shifted(shifted) => {
                assert_eq!(shifted.k_star, result.k_star + 1);
                assert_eq!(shifted.regions.len(), result.regions.len());
            }
            other => panic!("expected a shift, got {other:?}"),
        }
        assert_eq!(
            tally,
            TriageTally {
                triaged: 2,
                unaffected: 1,
                shifted: 1
            }
        );
        // A dominator in and a dominator out cancel out.
        let (verdict, tally) = triage_batch(&result, p, &[dominating, Update::Delete(0)], &data);
        assert!(matches!(verdict, BatchTriage::Unaffected));
        assert_eq!(tally.shifted, 2);
        // Record 2 is incomparable: its delete decides the batch, and the
        // deltas behind it are not examined.
        let (verdict, tally) =
            triage_batch(&result, p, &[Update::Delete(2), dominated.clone()], &data);
        assert!(matches!(verdict, BatchTriage::ReEnumerate));
        assert_eq!(tally.triaged, 1);
        let (verdict, _) = triage_batch(&result, p, &[dominated], &data);
        assert!(matches!(verdict, BatchTriage::Unaffected));
    }

    #[test]
    #[should_panic(expected = "below 1")]
    fn shift_below_one_panics() {
        let (data, tree) = figure1();
        let result = eval(&data, &tree, 5);
        // k* = 3; shifting down by 3 would produce order 0 somewhere.
        let _ = shift_result(&result, -(result.k_star as i32));
    }
}
