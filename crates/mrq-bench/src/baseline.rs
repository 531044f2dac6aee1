//! Bench-regression gate: compare a fresh `experiments --json` run against a
//! checked-in baseline (e.g. `BENCH_pr5.json`) and fail when any
//! experiment's median per-query CPU latency regresses beyond a factor.
//!
//! The headline number per experiment is the median over every per-query CPU
//! latency column (`… cpu_s` cells, NaN-filtered) — the same figure
//! `experiments --json` records — so the gate compares exactly what the
//! artifact stores.  Sub-100-µs medians are dominated by scheduler noise and
//! are skipped rather than gated.

use crate::Row;
use mrq_service::protocol::json::{self, Json};

/// Baseline medians below this are treated as noise and never gated
/// (100 µs; a quick-scale FCA query sits around here).
pub const NOISE_FLOOR_S: f64 = 1e-4;

/// Median of a non-empty slice.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// The per-experiment headline: the median over every finite `… cpu_s` cell.
pub fn median_cpu(rows: &[Row]) -> Option<f64> {
    let mut cells: Vec<f64> = rows
        .iter()
        .flat_map(|r| r.values.iter())
        .filter(|(name, v)| name.contains("cpu_s") && v.is_finite())
        .map(|(_, v)| *v)
        .collect();
    if cells.is_empty() {
        None
    } else {
        Some(median(&mut cells))
    }
}

/// One comparison line of the gate's report.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Experiment name.
    pub name: String,
    /// Baseline median CPU seconds.
    pub baseline_s: f64,
    /// Current median CPU seconds.
    pub current_s: f64,
    /// `current / baseline`.
    pub ratio: f64,
    /// Whether the ratio exceeds the allowed factor (and the baseline is
    /// above the noise floor).
    pub regressed: bool,
}

/// Parses a `maxrank-bench-v1` JSON artifact into `(name, median_cpu_s)`
/// pairs (`None` for experiments without CPU columns).
pub fn parse_medians(artifact: &str) -> Result<Vec<(String, Option<f64>)>, String> {
    let value = json::parse(artifact)?;
    let experiments = value
        .get("experiments")
        .and_then(Json::as_array)
        .ok_or("baseline lacks an 'experiments' array")?;
    experiments
        .iter()
        .map(|e| {
            let name = e
                .get("name")
                .and_then(Json::as_str)
                .ok_or("experiment lacks a 'name'")?
                .to_string();
            let median = e.get("median_cpu_s").and_then(Json::as_f64);
            Ok((name, median))
        })
        .collect()
}

/// Compares the current medians against a baseline artifact.
///
/// Returns every comparable experiment's [`Comparison`]; the gate fails
/// (`Err`) when any is `regressed`.  Experiments present on one side only are
/// ignored — the gate protects the shared set.
pub fn check_regression(
    baseline_artifact: &str,
    current: &[(String, Option<f64>)],
    max_factor: f64,
) -> Result<Vec<Comparison>, String> {
    assert!(
        max_factor >= 1.0,
        "a regression factor below 1 is a speedup"
    );
    let baseline = parse_medians(baseline_artifact)?;
    let mut comparisons = Vec::new();
    for (name, cur) in current {
        let Some(Some(base)) = baseline
            .iter()
            .find(|(bname, _)| bname == name)
            .map(|(_, m)| *m)
        else {
            continue;
        };
        let Some(cur) = *cur else { continue };
        let ratio = cur / base.max(f64::MIN_POSITIVE);
        comparisons.push(Comparison {
            name: name.clone(),
            baseline_s: base,
            current_s: cur,
            ratio,
            regressed: base >= NOISE_FLOOR_S && ratio > max_factor,
        });
    }
    if comparisons.iter().any(|c| c.regressed) {
        let lines: Vec<String> = comparisons
            .iter()
            .filter(|c| c.regressed)
            .map(|c| {
                format!(
                    "{}: median {:.6}s vs baseline {:.6}s ({:.2}x > {max_factor}x)",
                    c.name, c.current_s, c.baseline_s, c.ratio
                )
            })
            .collect();
        return Err(format!("bench regression detected:\n{}", lines.join("\n")));
    }
    Ok(comparisons)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn artifact(pairs: &[(&str, Option<f64>)]) -> String {
        let exps: Vec<String> = pairs
            .iter()
            .map(|(name, m)| {
                let m = m.map_or("null".to_string(), |v| v.to_string());
                format!("{{\"name\": \"{name}\", \"median_cpu_s\": {m}, \"rows\": []}}")
            })
            .collect();
        format!(
            "{{\"schema\": \"maxrank-bench-v1\", \"experiments\": [{}]}}",
            exps.join(", ")
        )
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn median_cpu_filters_nan_and_non_cpu_columns() {
        let rows = vec![
            Row::new("a")
                .with("AA cpu_s", 0.2)
                .with("AA io", 100.0)
                .with("BA cpu_s", f64::NAN),
            Row::new("b")
                .with("AA cpu_s", 0.4)
                .with("BA cpu_s", 0.6)
                .with("AA io", 50.0),
        ];
        assert_eq!(median_cpu(&rows), Some(0.4));
        assert_eq!(median_cpu(&[Row::new("x").with("io", 1.0)]), None);
    }

    #[test]
    fn within_factor_passes_and_reports() {
        let base = artifact(&[("fig9", Some(0.010)), ("fig10", Some(0.020))]);
        let current = vec![
            ("fig9".to_string(), Some(0.025)),
            ("fig10".to_string(), Some(0.010)),
        ];
        let report = check_regression(&base, &current, 3.0).expect("2.5x is within 3x");
        assert_eq!(report.len(), 2);
        assert!((report[0].ratio - 2.5).abs() < 1e-9);
        assert!(!report[0].regressed);
    }

    #[test]
    fn beyond_factor_fails_with_the_culprit_named() {
        let base = artifact(&[("fig9", Some(0.010))]);
        let current = vec![("fig9".to_string(), Some(0.031))];
        let err = check_regression(&base, &current, 3.0).unwrap_err();
        assert!(err.contains("fig9"), "{err}");
        assert!(err.contains("3.1"), "{err}");
    }

    #[test]
    fn noise_floor_and_missing_experiments_are_ignored() {
        // A 10x jump on a 20 µs median is scheduler noise, not a regression;
        // experiments missing from either side are skipped.
        let base = artifact(&[("tiny", Some(2e-5)), ("gone", Some(1.0))]);
        let current = vec![
            ("tiny".to_string(), Some(2e-4)),
            ("new".to_string(), Some(5.0)),
            ("nocpu".to_string(), None),
        ];
        let report = check_regression(&base, &current, 3.0).expect("no gateable regression");
        assert_eq!(report.len(), 1);
        assert!(!report[0].regressed);
    }

    #[test]
    fn malformed_baseline_is_an_error() {
        assert!(check_regression("{}", &[], 3.0).is_err());
        assert!(check_regression("not json", &[], 3.0).is_err());
    }
}
