//! Smoke test for the experiment harness: run one experiment end-to-end at a
//! tiny cardinality so the bench crate is exercised by the tier-1 suite
//! (`cargo test`), not only by the `experiments` binary.

use mrq_bench::experiments;
use mrq_bench::runner::{focal_ids, measure, synthetic_workload};
use mrq_bench::scale::Scale;
use mrq_core::Algorithm;
use mrq_data::Distribution;

/// A sub-second preset: one cardinality, one focal record, d = 2 only.
fn tiny() -> Scale {
    Scale {
        name: "tiny",
        cardinalities: vec![60],
        base_n: 60,
        base_d: 2,
        dims: vec![2],
        appendix_dims: vec![2, 3],
        ba_max_n: 60,
        ba_max_d: 2,
        taus: vec![0, 1],
        queries: 1,
        real_scale: 0.0002,
        seed: 2015,
    }
}

#[test]
fn measure_reports_sane_metrics() {
    let (data, tree) = synthetic_workload(Distribution::Independent, 80, 2, 9);
    let ids = focal_ids(&data, 2, 9);
    assert_eq!(ids.len(), 2);
    let m = measure(&data, &tree, &ids, Algorithm::AdvancedApproach2D, 0);
    assert_eq!(m.queries, 2);
    assert!(
        m.k_star >= 1.0,
        "mean k* must be at least 1, got {}",
        m.k_star
    );
    assert!(
        m.regions >= 1.0,
        "every query has at least one result region"
    );
    assert!(m.cpu_s >= 0.0 && m.cpu_s.is_finite());
}

#[test]
fn experiment_runs_at_tiny_scale() {
    let scale = tiny();
    // Figure 8(a)(b) exercises workload generation, focal selection, AA and
    // BA, and the table renderer in one call.
    let (table, rows) = experiments::fig8_ab(&scale);
    assert!(table.contains("Figure 8(a)(b)"));
    assert_eq!(rows.len(), scale.cardinalities.len());
    for row in &rows {
        let cpu = row.get("AA cpu_s").expect("AA cpu column present");
        assert!(cpu.is_finite() && cpu >= 0.0);
        assert!(row.get("BA cpu_s").is_some(), "BA attempted at tiny n");
    }
}

#[test]
fn anti_correlated_full_size_d2_is_fast() {
    // Regression guard for the event-sweep rewrite (PR 3): AA2D on ANTI at
    // the full n = 20 000 used to take ~78 s per query (quadratic
    // per-interval re-derivation); the incremental sweep runs it in ~150 ms
    // release / a few seconds debug.  The bound is deliberately generous —
    // it exists to catch a return of the quadratic path (minutes), not to
    // flake on slow CI machines.
    use mrq_core::{MaxRankConfig, MaxRankQuery};
    let (data, tree) = synthetic_workload(Distribution::AntiCorrelated, 20_000, 2, 2015);
    let ids = focal_ids(&data, 1, 2015);
    let engine = MaxRankQuery::new(&data, &tree);
    let start = std::time::Instant::now();
    let aa = engine.evaluate(
        ids[0],
        &MaxRankConfig::new().with_algorithm(Algorithm::AdvancedApproach2D),
    );
    let elapsed = start.elapsed();
    assert!(
        elapsed < std::time::Duration::from_secs(60),
        "AA2D/ANTI n=20000 took {elapsed:?} — the sweep regressed"
    );
    // And it must still be exact: FCA is the ground truth for d = 2.
    let fca = engine.evaluate(ids[0], &MaxRankConfig::new().with_algorithm(Algorithm::Fca));
    assert_eq!(aa.k_star, fca.k_star);
    assert_eq!(aa.region_count(), fca.region_count());
    assert!(aa.stats.events_pruned > 0, "sweep pruning should fire");
}

#[test]
fn every_experiment_is_listed_and_named() {
    let names: Vec<&str> = experiments::ALL.iter().map(|(n, _)| *n).collect();
    for expected in [
        "fig8-ab", "fig8-cd", "fig8-ef", "fig9", "table3", "table4", "fig10", "fig11", "fig12",
        "dims", "ablation",
    ] {
        assert!(names.contains(&expected), "{expected} missing from ALL");
    }
}

#[test]
fn d6_tractable_focal_query_is_fast() {
    // Regression guard for the witness-guided within-leaf fast path (PR 5):
    // before it, a d = 6, n = 1000 IND query was intractable (the blind
    // Hamming-weight enumeration proves every candidate with a from-scratch
    // LP); with witness-first feasibility, implication-propagated combination
    // search and the per-leaf LP arena it completes well under a second in
    // release mode.  The bound is deliberately generous — it exists to catch
    // a return of the blind path (minutes), not to flake on slow CI machines
    // or debug builds.
    use mrq_bench::runner::tractable_focal_ids;
    use mrq_core::{MaxRankConfig, MaxRankQuery};
    let (data, tree) = synthetic_workload(Distribution::Independent, 1_000, 6, 2015);
    let ids = tractable_focal_ids(&data, 1);
    let engine = MaxRankQuery::new(&data, &tree);
    let start = std::time::Instant::now();
    let res = engine.evaluate(
        ids[0],
        &MaxRankConfig::new().with_algorithm(Algorithm::AdvancedApproach),
    );
    let elapsed = start.elapsed();
    assert!(
        elapsed < std::time::Duration::from_secs(60),
        "AA d=6 n=1000 took {elapsed:?} — the within-leaf fast path regressed"
    );
    assert!(res.k_star >= 1);
    // The fast path must actually be engaged.
    assert!(res.stats.lp_calls > 0);
    assert!(
        res.stats.witness_hits > 0,
        "witness cache should fire on a d=6 query"
    );
    // And it must still be exact: the witness of every region achieves the
    // region's order on the raw data.
    for region in &res.regions {
        let q = region.representative_query();
        assert_eq!(data.order_of(data.record(ids[0]), &q), region.order);
    }
}
