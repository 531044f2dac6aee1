//! AA specialised for two-dimensional data (paper, Section 6.3), implemented
//! as an **incremental event sweep**.
//!
//! With `d = 2` the reduced query space is the one-dimensional interval
//! `(0, 1)` of `q_1` values; half-spaces become half-lines and the mixed
//! arrangement is an ordered list of breakpoint *events*.  Crossing an event
//! from left to right is an adjacent swap in the score order of the focal
//! record and the inducing record, so the focal record's order changes by
//! exactly ±1 per event — the sweep maintains it in O(1) per event instead of
//! re-deriving each interval's full containing set (the previous
//! implementation was quadratic in the number of half-lines and took ~78 s
//! per query on anti-correlated data at n = 20 000).
//!
//! Per iteration the sweep
//!
//! 1. merges newly inserted events into the sorted event list (the list is
//!    sorted once; later batches are merged, never re-sorted from scratch);
//! 2. walks the events once, maintaining two counters — the interval's order
//!    and how many *augmented* (not yet expanded) half-lines contain it — so
//!    accurate intervals (`augmented == 0`) are recognised without any set
//!    materialisation;
//! 3. decides which augmented half-lines to expand with prefix/suffix minima
//!    of the interval orders: a half-line is expanded only if the minimum
//!    order anywhere on its winning range is within the current threshold.
//!    Events whose swap cannot change the rank at the focal below the
//!    threshold are pruned (counted in `QueryStats::events_pruned`) — the
//!    1-d analogue of the dominance/skyband pruning that keeps AA from
//!    surfacing irrelevant records.
//!
//! The skyline-driven implicit subsumption is identical to the general AA:
//! expanding a half-line surfaces exactly the records it was implicitly
//! subsuming, via [`mrq_index::IncrementalSkyline`].

use crate::ba::AlgoConfig;
use crate::common::trivial_result;
use crate::result::{MaxRankResult, QueryStats, ResultRegion};
use mrq_data::{Dataset, RecordId};
use mrq_geometry::{halfline_for_record, interval_region, HalfLine2d, EPS};
use mrq_index::{IncrementalSkyline, RStarTree};
use std::collections::VecDeque;

/// A half-line of the 1-d reduced query space: the set of `q_1` values where
/// one incomparable record outranks the focal record.
#[derive(Debug, Clone)]
struct HalfLine {
    /// Breakpoint.
    t: f64,
    /// `true` if the record wins for `q_1 > t`, `false` for `q_1 < t`.
    wins_right: bool,
    /// The inducing record.
    record: RecordId,
    /// Whether the half-line has been expanded (is singular).
    singular: bool,
}

impl HalfLine {
    fn contains(&self, q1: f64) -> bool {
        if self.wins_right {
            q1 > self.t
        } else {
            q1 < self.t
        }
    }
}

/// One maximal interval of the 1-d mixed arrangement.
#[derive(Debug, Clone, Copy)]
struct Interval {
    lo: f64,
    hi: f64,
    /// Number of half-lines containing the interval.
    order: usize,
    /// Number of *augmented* half-lines containing the interval; the interval
    /// is accurate iff this is zero.
    augmented: usize,
}

/// The incremental event sweep: half-lines plus their sorted event order.
#[derive(Debug, Default)]
struct Sweep {
    lines: Vec<HalfLine>,
    /// Line indices sorted by breakpoint (ties broken by index, which keeps
    /// merges stable and the walk deterministic).
    sorted: Vec<u32>,
    /// Newly inserted line indices, merged into `sorted` lazily.
    pending: Vec<u32>,
}

impl Sweep {
    fn push(&mut self, line: HalfLine) {
        self.pending.push(self.lines.len() as u32);
        self.lines.push(line);
    }

    fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// Merges pending events into the sorted order: O(k log k + m) for `k`
    /// new events over `m` existing ones, instead of re-sorting everything.
    fn merge_pending(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let lines = &self.lines;
        let key = |&i: &u32| (lines[i as usize].t, i);
        self.pending
            .sort_by(|a, b| key(a).partial_cmp(&key(b)).expect("finite breakpoints"));
        let mut merged = Vec::with_capacity(self.sorted.len() + self.pending.len());
        let (mut a, mut b) = (0usize, 0usize);
        while a < self.sorted.len() && b < self.pending.len() {
            if key(&self.sorted[a]) <= key(&self.pending[b]) {
                merged.push(self.sorted[a]);
                a += 1;
            } else {
                merged.push(self.pending[b]);
                b += 1;
            }
        }
        merged.extend_from_slice(&self.sorted[a..]);
        merged.extend_from_slice(&self.pending[b..]);
        self.sorted = merged;
        self.pending.clear();
    }

    /// Walks the sorted events once and returns the maximal intervals plus,
    /// for every event, the index of the first interval to its right
    /// (`intervals.len()` if none).  O(m).
    fn intervals(&self) -> (Vec<Interval>, Vec<u32>) {
        debug_assert!(self.pending.is_empty(), "merge_pending before sweeping");
        let m = self.sorted.len();
        let mut intervals: Vec<Interval> = Vec::with_capacity(m + 1);
        let mut first_right = vec![0u32; m];
        // Just right of q1 = 0 every left-winning half-line contains the
        // sweep point; right-winning ones do not (their t > EPS > 0).
        let mut order = 0usize;
        let mut augmented = 0usize;
        for line in &self.lines {
            if !line.wins_right {
                order += 1;
                if !line.singular {
                    augmented += 1;
                }
            }
        }
        let mut lo = 0.0f64;
        for (e, &idx) in self.sorted.iter().enumerate() {
            let line = &self.lines[idx as usize];
            let hi = line.t;
            if hi - lo >= 10.0 * EPS {
                intervals.push(Interval {
                    lo,
                    hi,
                    order,
                    augmented,
                });
            }
            // Crossing the event: an adjacent swap of the focal record and
            // the inducing record in the score order — ±1 on the counters.
            if line.wins_right {
                order += 1;
                if !line.singular {
                    augmented += 1;
                }
            } else {
                order -= 1;
                if !line.singular {
                    augmented -= 1;
                }
            }
            first_right[e] = intervals.len() as u32;
            lo = hi;
        }
        if 1.0 - lo >= 10.0 * EPS {
            intervals.push(Interval {
                lo,
                hi: 1.0,
                order,
                augmented,
            });
        }
        (intervals, first_right)
    }
}

/// Runs the 2-d AA for a focal record identified by id.
pub fn run(
    data: &Dataset,
    tree: &RStarTree,
    focal_id: RecordId,
    tau: usize,
    config: &AlgoConfig,
) -> MaxRankResult {
    let p = data.record(focal_id).to_vec();
    run_point(data, tree, &p, Some(focal_id), tau, config)
}

/// Runs the 2-d AA for an arbitrary focal point.
pub fn run_point(
    data: &Dataset,
    tree: &RStarTree,
    p: &[f64],
    focal_id: Option<RecordId>,
    tau: usize,
    _config: &AlgoConfig,
) -> MaxRankResult {
    assert_eq!(
        data.dims(),
        2,
        "the specialised AA handles two-dimensional data"
    );
    assert_eq!(p.len(), 2);
    let mut stats = QueryStats::default();

    let dominators = tree.count_dominators(p, focal_id) as usize;
    stats.dominators = dominators;

    let mut skyline = IncrementalSkyline::new(tree, p, focal_id);
    let mut sweep = Sweep::default();
    let mut always_above = 0usize;

    // Seed with the initial skyline (all augmented).
    let initial: Vec<RecordId> = skyline.skyline().iter().map(|(id, _)| *id).collect();
    insert_records(
        data,
        p,
        &mut skyline,
        &mut sweep,
        &mut always_above,
        initial,
    );

    if sweep.is_empty() {
        stats.iterations = 1;
        return trivial_result(2, dominators + always_above, tau, stats);
    }

    let mut o_star: Option<usize> = None;
    let final_intervals: Vec<Interval>;
    loop {
        stats.iterations += 1;
        sweep.merge_pending();
        let (intervals, first_right) = sweep.intervals();
        stats.cells_tested += intervals.len();
        if intervals.is_empty() {
            final_intervals = intervals;
            break;
        }
        let min_order = intervals
            .iter()
            .map(|iv| iv.order)
            .min()
            .expect("non-empty");
        // Accurate intervals (no augmented half-line contains them) tighten
        // the upper bound o* on the best attainable order.
        for iv in &intervals {
            if iv.augmented == 0 {
                o_star = Some(o_star.map_or(iv.order, |o| o.min(iv.order)));
            }
        }
        let threshold = o_star
            .unwrap_or(usize::MAX)
            .min(min_order)
            .saturating_add(tau);
        // Prefix/suffix minima of the interval orders let every augmented
        // half-line decide in O(1) whether any interval on its winning range
        // is still relevant.
        let mut prefix_min = Vec::with_capacity(intervals.len());
        let mut running = usize::MAX;
        for iv in &intervals {
            running = running.min(iv.order);
            prefix_min.push(running);
        }
        let mut suffix_min = vec![usize::MAX; intervals.len()];
        running = usize::MAX;
        for (i, iv) in intervals.iter().enumerate().rev() {
            running = running.min(iv.order);
            suffix_min[i] = running;
        }
        let mut expand: Vec<u32> = Vec::new();
        for (e, &idx) in sweep.sorted.iter().enumerate() {
            let line = &sweep.lines[idx as usize];
            if line.singular {
                continue;
            }
            let fr = first_right[e] as usize;
            let range_min = if line.wins_right {
                suffix_min.get(fr).copied().unwrap_or(usize::MAX)
            } else if fr > 0 {
                prefix_min[fr - 1]
            } else {
                usize::MAX
            };
            if range_min <= threshold {
                expand.push(idx);
            } else {
                // The swap at this event cannot bring any candidate interval
                // below the threshold: skyband-style pruning, the record's
                // dominees never need to surface on its account.
                stats.events_pruned += 1;
            }
        }
        if expand.is_empty() {
            // Unlike the quad-tree based AA, the sorted event list is always
            // swept exhaustively, so reaching this point means every relevant
            // interval is accurate.
            final_intervals = intervals;
            break;
        }
        for idx in expand {
            let line = &mut sweep.lines[idx as usize];
            line.singular = true;
            let rid = line.record;
            let newly: Vec<RecordId> = skyline.expand(rid).iter().map(|(id, _)| *id).collect();
            insert_records(data, p, &mut skyline, &mut sweep, &mut always_above, newly);
        }
    }

    let base = dominators + always_above;
    stats.halfspaces_inserted = sweep.lines.len();
    if final_intervals.is_empty() {
        return trivial_result(2, base, tau, stats);
    }
    let min_order = final_intervals
        .iter()
        .map(|iv| iv.order)
        .min()
        .expect("non-empty");
    let regions: Vec<ResultRegion> = final_intervals
        .into_iter()
        .filter(|iv| iv.order <= min_order + tau && iv.augmented == 0)
        .map(|iv| {
            let mid = 0.5 * (iv.lo + iv.hi);
            ResultRegion {
                region: interval_region(iv.lo, iv.hi),
                order: base + iv.order + 1,
                outranking: sweep
                    .lines
                    .iter()
                    .filter(|l| l.contains(mid))
                    .map(|l| l.record)
                    .collect(),
            }
        })
        .collect();
    MaxRankResult {
        dims: 2,
        k_star: base + min_order + 1,
        tau,
        regions,
        stats,
    }
}

/// Maps newly surfaced skyline records into half-line events (expanding
/// degenerate always-above records transitively, mirroring the general AA).
fn insert_records(
    data: &Dataset,
    p: &[f64],
    skyline: &mut IncrementalSkyline<'_>,
    sweep: &mut Sweep,
    always_above: &mut usize,
    records: Vec<RecordId>,
) {
    let mut queue: VecDeque<RecordId> = records.into();
    while let Some(rid) = queue.pop_front() {
        match halfline_for_record(data.record(rid), p) {
            HalfLine2d::WinsRight(t) => sweep.push(HalfLine {
                t,
                wins_right: true,
                record: rid,
                singular: false,
            }),
            HalfLine2d::WinsLeft(t) => sweep.push(HalfLine {
                t,
                wins_right: false,
                record: rid,
                singular: false,
            }),
            HalfLine2d::AlwaysAbove => {
                // Counts like a dominator; its dominees must still surface.
                *always_above += 1;
                queue.extend(skyline.expand(rid).iter().map(|(id, _)| *id));
            }
            HalfLine2d::NeverAbove => {
                // Never outranks the focal record; its dominees are contained
                // in an empty half-line and are irrelevant too.
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{fca, Algorithm, MaxRankConfig, MaxRankQuery};
    use mrq_data::{synthetic, Distribution};
    use rand::{rngs::StdRng, SeedableRng};

    fn figure1() -> (Dataset, RStarTree) {
        let data = Dataset::from_rows(
            2,
            &[
                vec![0.8, 0.9],
                vec![0.2, 0.7],
                vec![0.9, 0.4],
                vec![0.7, 0.2],
                vec![0.4, 0.3],
                vec![0.5, 0.5],
            ],
        );
        let tree = RStarTree::bulk_load(&data);
        (data, tree)
    }

    #[test]
    fn paper_example_matches_fca() {
        // Section 6.3 walks through exactly this data: AA(d=2) terminates in
        // two iterations with the same answer FCA gives (k* = 3, two
        // intervals) while never accessing r4 unless needed.
        let (data, tree) = figure1();
        let aa = run(&data, &tree, 5, 0, &AlgoConfig::default());
        let fca = fca::run(&data, &tree, 5, 0);
        assert_eq!(aa.k_star, 3);
        assert_eq!(aa.k_star, fca.k_star);
        assert_eq!(aa.region_count(), fca.region_count());
        let mut intervals: Vec<(f64, f64)> = aa
            .regions
            .iter()
            .map(|r| (r.region.bounds.lo[0], r.region.bounds.hi[0]))
            .collect();
        intervals.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        assert!((intervals[0].1 - 0.2).abs() < 1e-9);
        assert!((intervals[1].0 - 0.4).abs() < 1e-9 && (intervals[1].1 - 0.6).abs() < 1e-9);
    }

    #[test]
    fn merge_pending_keeps_events_sorted() {
        let mut sweep = Sweep::default();
        for (i, t) in [0.7, 0.2, 0.9, 0.4].iter().enumerate() {
            sweep.push(HalfLine {
                t: *t,
                wins_right: i % 2 == 0,
                record: i as u32,
                singular: false,
            });
        }
        sweep.merge_pending();
        // A second batch merges into the existing order without a full sort.
        for (i, t) in [0.5, 0.1].iter().enumerate() {
            sweep.push(HalfLine {
                t: *t,
                wins_right: true,
                record: 10 + i as u32,
                singular: false,
            });
        }
        sweep.merge_pending();
        let ts: Vec<f64> = sweep
            .sorted
            .iter()
            .map(|&i| sweep.lines[i as usize].t)
            .collect();
        assert_eq!(ts, vec![0.1, 0.2, 0.4, 0.5, 0.7, 0.9]);
        assert_eq!(sweep.sorted.len(), sweep.lines.len());
    }

    #[test]
    fn sweep_counters_match_direct_containment() {
        // The O(1)-per-event counters must agree with brute-force containment
        // tests at every interval midpoint.
        let mut sweep = Sweep::default();
        let spec = [
            (0.3, true, false),
            (0.6, false, false),
            (0.2, false, true),
            (0.8, true, true),
            (0.5, true, false),
        ];
        for (i, (t, wins_right, singular)) in spec.iter().enumerate() {
            sweep.push(HalfLine {
                t: *t,
                wins_right: *wins_right,
                record: i as u32,
                singular: *singular,
            });
        }
        sweep.merge_pending();
        let (intervals, first_right) = sweep.intervals();
        assert_eq!(intervals.len(), sweep.lines.len() + 1);
        for iv in &intervals {
            let mid = 0.5 * (iv.lo + iv.hi);
            let order = sweep.lines.iter().filter(|l| l.contains(mid)).count();
            let aug = sweep
                .lines
                .iter()
                .filter(|l| !l.singular && l.contains(mid))
                .count();
            assert_eq!(iv.order, order, "interval {iv:?}");
            assert_eq!(iv.augmented, aug, "interval {iv:?}");
        }
        // Every event's first-right interval starts at its breakpoint.
        for (e, &idx) in sweep.sorted.iter().enumerate() {
            let t = sweep.lines[idx as usize].t;
            let fr = first_right[e] as usize;
            assert!((intervals[fr].lo - t).abs() < 1e-12);
        }
    }

    #[test]
    fn pruning_leaves_answers_intact_and_fires() {
        // On anti-correlated data most events cannot affect the best rank;
        // the prefix/suffix-minima pruning must skip them while the answer
        // stays identical to FCA (checked in tests/differential.rs at scale).
        let mut rng = StdRng::seed_from_u64(42);
        let data = synthetic::generate(Distribution::AntiCorrelated, 1500, 2, &mut rng);
        let tree = RStarTree::bulk_load(&data);
        let aa = run(&data, &tree, 7, 0, &AlgoConfig::default());
        let fca = fca::run(&data, &tree, 7, 0);
        assert_eq!(aa.k_star, fca.k_star);
        assert!(
            aa.stats.events_pruned > 0,
            "expected the sweep to prune expansion events"
        );
    }

    #[test]
    fn accesses_fewer_records_than_fca() {
        // Figure 11's point: AA(d=2) processes far fewer records than FCA.
        // AA's advantage is largest for focal records that can rank well (few
        // dominance layers need expanding), so pick a record close to the
        // skyline rather than an arbitrary one.
        let mut rng = StdRng::seed_from_u64(10);
        let data = synthetic::generate(Distribution::Independent, 5000, 2, &mut rng);
        let tree = RStarTree::bulk_load(&data);
        let focal = data
            .iter()
            .max_by(|(_, a), (_, b)| {
                let sa = a[0].min(a[1]);
                let sb = b[0].min(b[1]);
                sa.partial_cmp(&sb).unwrap()
            })
            .map(|(id, _)| id)
            .unwrap();
        let engine = MaxRankQuery::new(&data, &tree);
        let aa = engine.evaluate(focal, &MaxRankConfig::new());
        let fca = engine.evaluate(focal, &MaxRankConfig::new().with_algorithm(Algorithm::Fca));
        assert_eq!(aa.k_star, fca.k_star);
        assert!(
            aa.stats.halfspaces_inserted < fca.stats.halfspaces_inserted / 5,
            "AA lines {} vs FCA intersections {}",
            aa.stats.halfspaces_inserted,
            fca.stats.halfspaces_inserted
        );
        assert!(aa.stats.io_reads <= fca.stats.io_reads);
    }

    #[test]
    fn trivial_cases() {
        let (data, tree) = figure1();
        let top = run_point(&data, &tree, &[0.99, 0.99], None, 0, &AlgoConfig::default());
        assert_eq!(top.k_star, 1);
        let bottom = run_point(&data, &tree, &[0.01, 0.01], None, 0, &AlgoConfig::default());
        assert_eq!(bottom.k_star, 7);
    }
}
