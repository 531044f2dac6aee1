//! Helpers shared by the BA / AA implementations: record → half-space
//! mapping, result assembly, and the trivial no-incomparable-records case.

use crate::result::{MaxRankResult, QueryStats, ResultRegion};
use crate::withinleaf::ArrangementCell;
use mrq_data::RecordId;
use mrq_geometry::{
    halfspace_row_for_record, l2_norm, reduced_simplex_constraint, BoundingBox, CellSpec, Region,
    EPS,
};
use mrq_quadtree::HalfSpaceId;

/// Outcome of mapping a record against the focal record into the reduced
/// query space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Mapped<'a> {
    /// A proper half-space, as its coefficient row (borrowed from the
    /// [`RecordMapper`]) and `rhs`: the record outranks the focal record
    /// exactly when the query vector lies inside it.
    Usable(&'a [f64], f64),
    /// Degenerate: the record outranks the focal record for *every*
    /// permissible query vector (numerically indistinguishable from a
    /// dominator).
    AlwaysAbove,
    /// Degenerate: the record never outranks the focal record.
    NeverAbove,
}

/// Maps records against one focal record into the reduced query space
/// through one reused coefficient row, so mapping allocates nothing per
/// record.  The arithmetic is [`mrq_geometry::halfspace_for_record`]'s and
/// the degeneracy rule is [`mrq_geometry::HalfSpace::is_degenerate`]'s.
#[derive(Debug)]
pub(crate) struct RecordMapper<'p> {
    p: &'p [f64],
    row: Vec<f64>,
}

impl<'p> RecordMapper<'p> {
    pub(crate) fn new(p: &'p [f64]) -> Self {
        Self {
            p,
            row: Vec::with_capacity(p.len().saturating_sub(1)),
        }
    }

    /// Maps `r`; a proper half-space's row lives until the next call.
    pub(crate) fn map(&mut self, r: &[f64]) -> Mapped<'_> {
        let rhs = halfspace_row_for_record(r, self.p, &mut self.row);
        if l2_norm(&self.row) < EPS {
            if rhs < -EPS {
                Mapped::AlwaysAbove
            } else {
                Mapped::NeverAbove
            }
        } else {
            Mapped::Usable(&self.row, rhs)
        }
    }
}

/// Keeps the correspondence between quad-tree half-space ids and the records
/// that induced them.
#[derive(Debug, Default, Clone)]
pub(crate) struct HalfSpaceRegistry {
    records: Vec<RecordId>,
}

impl HalfSpaceRegistry {
    pub(crate) fn push(&mut self, id: HalfSpaceId, record: RecordId) {
        debug_assert_eq!(
            id as usize,
            self.records.len(),
            "ids must be assigned in order"
        );
        self.records.push(record);
    }

    pub(crate) fn record(&self, id: HalfSpaceId) -> RecordId {
        self.records[id as usize]
    }

    pub(crate) fn len(&self) -> usize {
        self.records.len()
    }
}

/// The whole permissible region of the reduced query space (used when the
/// focal record has no incomparable records at all: its order is the same for
/// every permissible query vector).
pub(crate) fn whole_simplex_region(dr: usize) -> Region {
    CellSpec::new(
        vec![reduced_simplex_constraint(dr + 1)],
        vec![],
        BoundingBox::unit(dr),
    )
    .solve()
    .expect("the permissible simplex is always full-dimensional")
}

/// Assembles a [`MaxRankResult`] from the cells of the (complete or mixed)
/// arrangement.  `base` is the number of records that outrank the focal
/// record everywhere (dominators plus degenerate always-above records).
pub(crate) fn build_result(
    dims: usize,
    base: usize,
    tau: usize,
    cells: Vec<ArrangementCell>,
    registry: &HalfSpaceRegistry,
    stats: QueryStats,
) -> MaxRankResult {
    let min_order = cells.iter().map(|c| c.order).min().unwrap_or(0);
    let k_star = base + min_order + 1;
    let mut regions: Vec<ResultRegion> = cells
        .into_iter()
        .filter(|c| c.order <= min_order + tau)
        .map(|c| {
            let outranking: Vec<RecordId> =
                c.containing_ids().map(|id| registry.record(id)).collect();
            ResultRegion {
                order: base + c.order + 1,
                region: c.region,
                outranking,
            }
        })
        .collect();
    // Deterministic output: sort regions by order, then by witness.
    regions.sort_by(|a, b| {
        a.order.cmp(&b.order).then_with(|| {
            a.region
                .witness
                .partial_cmp(&b.region.witness)
                .unwrap_or(std::cmp::Ordering::Equal)
        })
    });
    MaxRankResult {
        dims,
        k_star,
        tau,
        regions,
        stats,
    }
}

/// Builds the trivial result for a focal record with no incomparable records:
/// a single region covering the entire permissible simplex.
pub(crate) fn trivial_result(
    dims: usize,
    base: usize,
    tau: usize,
    stats: QueryStats,
) -> MaxRankResult {
    let region = whole_simplex_region(dims - 1);
    MaxRankResult {
        dims,
        k_star: base + 1,
        tau,
        regions: vec![ResultRegion {
            region,
            order: base + 1,
            outranking: Vec::new(),
        }],
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_record_cases() {
        let p = [0.5, 0.5, 0.5];
        let mut mapper = RecordMapper::new(&p);
        assert!(matches!(
            mapper.map(&[0.9, 0.2, 0.5]),
            Mapped::Usable(row, _) if row.len() == 2
        ));
        // A record offset from p by the same amount in every coordinate is
        // degenerate: (0.6,0.6,0.6) always outranks (0.5,0.5,0.5).
        assert_eq!(mapper.map(&[0.6, 0.6, 0.6]), Mapped::AlwaysAbove);
        assert_eq!(mapper.map(&[0.4, 0.4, 0.4]), Mapped::NeverAbove);
    }

    /// The reused row holds, bit for bit, the coefficients and `rhs` of
    /// `halfspace_for_record`, and the mapper calls a record degenerate, and
    /// which way, exactly when that half-space is: over integer-valued,
    /// continuous, duplicate and equal-offset records (always above, never
    /// above, and offsets at ±EPS) in 2 to 9 dimensions, with one mapper per
    /// focal record reused across all of them.
    #[test]
    fn row_mapping_equals_halfspace_for_record_bit_for_bit() {
        use mrq_geometry::halfspace_for_record;
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut seen = [0usize; 3];
        for d in 2..=9usize {
            for _ in 0..20 {
                let p: Vec<f64> = (0..d).map(|_| (next() % 1001) as f64 / 1000.0).collect();
                let mut mapper = RecordMapper::new(&p);
                for _ in 0..50 {
                    let r: Vec<f64> = match next() % 5 {
                        0 => (0..d).map(|_| (next() % 4) as f64).collect(),
                        1 => p.clone(),
                        2 => {
                            let offset =
                                [0.1, -0.1, 2e-9, -2e-9, 1e-10, 0.0][(next() % 6) as usize];
                            p.iter().map(|x| x + offset).collect()
                        }
                        _ => (0..d).map(|_| (next() % 1_000_001) as f64 / 1e6).collect(),
                    };
                    let expected = halfspace_for_record(&r, &p);
                    let got = mapper.map(&r);
                    let want = if expected.is_degenerate() {
                        if expected.degenerate_is_full() {
                            Mapped::AlwaysAbove
                        } else {
                            Mapped::NeverAbove
                        }
                    } else {
                        Mapped::Usable(&expected.coeffs, expected.rhs)
                    };
                    seen[match want {
                        Mapped::Usable(..) => 0,
                        Mapped::AlwaysAbove => 1,
                        Mapped::NeverAbove => 2,
                    }] += 1;
                    // The variants must match, and a row bit for bit: `==`
                    // on f64 would equate 0.0 and -0.0.
                    let bits = |m: Mapped<'_>| match m {
                        Mapped::Usable(row, rhs) => Some((
                            row.iter().map(|c| c.to_bits()).collect::<Vec<_>>(),
                            rhs.to_bits(),
                        )),
                        _ => None,
                    };
                    assert_eq!(got, want, "r {r:?} p {p:?}");
                    assert_eq!(bits(got), bits(want), "r {r:?} p {p:?}");
                }
            }
        }
        assert!(seen.iter().all(|&n| n > 50), "{seen:?}");
    }

    #[test]
    fn trivial_result_shape() {
        let res = trivial_result(3, 7, 0, QueryStats::default());
        assert_eq!(res.k_star, 8);
        assert_eq!(res.regions.len(), 1);
        assert_eq!(res.regions[0].order, 8);
        // The region covers the middle of the simplex.
        assert!(res.regions[0].region.contains(&[0.3, 0.3]));
    }

    #[test]
    fn registry_roundtrip() {
        let mut reg = HalfSpaceRegistry::default();
        reg.push(0, 42);
        reg.push(1, 7);
        assert_eq!(reg.record(0), 42);
        assert_eq!(reg.record(1), 7);
        assert_eq!(reg.len(), 2);
    }
}
