//! Answer checks: the server's replies against in-process evaluation of the
//! same data at the same version.

use crate::drive::{Ack, Answer, Notice, Subscribed};
use crate::workload::DATASET;
use mrq_core::MaxRankConfig;
use mrq_data::{Dataset, RecordId, Update};
use mrq_service::{DatasetHandle, DatasetRegistry};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Evaluated answers sampled per check (each costs one MaxRank evaluation).
pub const SAMPLE: usize = 24;

/// What the checks found.
#[derive(Debug, Clone, Default)]
pub struct CheckReport {
    /// Replies compared against an in-process evaluation.
    pub evaluated: usize,
    /// Replies compared against another reply or a local replay step.
    pub compared: usize,
    /// One line per disagreement.
    pub mismatches: Vec<String>,
}

impl CheckReport {
    fn expect(&mut self, what: &str, got: (usize, usize), want: (usize, usize)) {
        self.evaluated += 1;
        if got != want {
            self.mismatches.push(format!(
                "{what}: server k*={} regions={}, in-process k*={} regions={}",
                got.0, got.1, want.0, want.1
            ));
        }
    }
}

/// A server answer waiting for the local replay to reach its version.
struct Pending {
    what: String,
    focal: RecordId,
    got: (usize, usize),
}

/// `(k*, region count)` of a fresh evaluation.
fn evaluate(handle: &DatasetHandle, focal: RecordId) -> (usize, usize) {
    let entry = handle.snapshot();
    let result = entry.engine().evaluate(focal, &MaxRankConfig::new());
    (result.k_star, result.region_count())
}

fn reference(data: &Dataset) -> Result<Arc<DatasetHandle>, String> {
    let registry = DatasetRegistry::new();
    registry.register_loaded(DATASET, data.clone())?;
    registry
        .handle(DATASET)
        .ok_or_else(|| "reference dataset vanished".to_string())
}

/// Up to [`SAMPLE`] items spread evenly over `items`.
fn spread<T: Clone>(items: &[T]) -> Vec<T> {
    let step = items.len().div_ceil(SAMPLE).max(1);
    items.iter().step_by(step).cloned().collect()
}

/// Checks the answers of a read-only run: every answer for a focal must
/// agree with every other (same version 0, same k\*, same region count), and
/// a sample of focals must match in-process evaluation.
pub fn check_reads(data: &Dataset, answers: &[Answer]) -> Result<CheckReport, String> {
    let mut report = CheckReport::default();
    let mut first: BTreeMap<RecordId, &Answer> = BTreeMap::new();
    for a in answers {
        report.compared += 1;
        let seen = first.entry(a.focal).or_insert(a);
        if a.version != 0 || (a.k_star, a.regions) != (seen.k_star, seen.regions) {
            report.mismatches.push(format!(
                "focal {}: answers disagree (v{} k*={} regions={} vs v{} k*={} regions={})",
                a.focal, a.version, a.k_star, a.regions, seen.version, seen.k_star, seen.regions
            ));
        }
    }
    let handle = reference(data)?;
    let distinct: Vec<&Answer> = first.into_values().collect();
    for a in spread(&distinct) {
        let want = evaluate(&handle, a.focal);
        report.expect(&format!("focal {}", a.focal), (a.k_star, a.regions), want);
    }
    Ok(report)
}

/// Checks a writing run by replaying its acknowledged updates in version
/// order on a local copy of the initial dataset:
///
/// * each acknowledgement must carry the version and inserted id the local
///   apply produces;
/// * sampled query answers and NOTIFY results must match evaluation at
///   their version;
/// * each subscription's last result must match evaluation at the final
///   version.
pub fn check_writes(
    data: &Dataset,
    acks: &[Ack],
    answers: &[Answer],
    subscribed: &[Subscribed],
    notices: &[Notice],
) -> Result<CheckReport, String> {
    let mut report = CheckReport::default();
    let handle = reference(data)?;
    let focal_of: HashMap<u64, RecordId> = subscribed.iter().map(|s| (s.id, s.focal)).collect();
    let mut due: BTreeMap<u64, Vec<Pending>> = BTreeMap::new();
    for a in spread(answers) {
        due.entry(a.version).or_default().push(Pending {
            what: format!("query focal {} at v{}", a.focal, a.version),
            focal: a.focal,
            got: (a.k_star, a.regions),
        });
    }
    for n in spread(notices) {
        let focal = *focal_of
            .get(&n.id)
            .ok_or_else(|| format!("NOTIFY for unknown subscription {}", n.id))?;
        due.entry(n.version).or_default().push(Pending {
            what: format!("NOTIFY focal {focal} at v{}", n.version),
            focal,
            got: (n.k_star, n.regions),
        });
    }
    let mut acks: Vec<&Ack> = acks.iter().collect();
    acks.sort_by_key(|a| a.version);
    let mut check_due = |version: u64, report: &mut CheckReport| {
        for p in due.remove(&version).unwrap_or_default() {
            let want = evaluate(&handle, p.focal);
            report.expect(&p.what, p.got, want);
        }
    };
    check_due(handle.snapshot().version(), &mut report);
    for ack in acks {
        let mut batch = vec![Update::Insert(ack.row.clone())];
        batch.extend(ack.deleted.map(Update::Delete));
        let local = handle
            .apply(&batch)
            .map_err(|e| format!("local replay of v{}: {e}", ack.version))?;
        report.compared += 1;
        if local.version != ack.version || local.inserted != [ack.inserted] {
            report.mismatches.push(format!(
                "update acknowledged v{} id {}, local replay gives v{} ids {:?}",
                ack.version, ack.inserted, local.version, local.inserted
            ));
        }
        check_due(local.version, &mut report);
    }
    for (version, left) in due {
        for p in left {
            report.mismatches.push(format!(
                "{}: no acknowledged update reaches v{version}",
                p.what
            ));
        }
    }
    // The last result each subscriber saw is exact at the final version.
    let mut last: BTreeMap<u64, (usize, usize)> = subscribed
        .iter()
        .map(|s| (s.id, (s.k_star, s.regions)))
        .collect();
    for n in notices {
        last.insert(n.id, (n.k_star, n.regions));
    }
    for s in subscribed {
        let want = evaluate(&handle, s.focal);
        report.expect(
            &format!("subscription on focal {} at the final version", s.focal),
            last[&s.id],
            want,
        );
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrq_data::{synthetic, Distribution};
    use rand::{rngs::StdRng, SeedableRng};

    fn data() -> Dataset {
        synthetic::generate(
            Distribution::Independent,
            60,
            3,
            &mut StdRng::seed_from_u64(9),
        )
    }

    #[test]
    fn a_wrong_k_star_counts_as_failed() {
        let data = data();
        let handle = reference(&data).unwrap();
        let (k, r) = evaluate(&handle, 4);
        let right = Answer {
            focal: 4,
            k_star: k,
            regions: r,
            version: 0,
        };
        assert!(check_reads(&data, std::slice::from_ref(&right))
            .unwrap()
            .mismatches
            .is_empty());
        let wrong = Answer {
            k_star: k + 1,
            ..right.clone()
        };
        let report = check_reads(&data, &[wrong]).unwrap();
        assert_eq!(report.evaluated, 1);
        assert_eq!(report.mismatches.len(), 1, "{:?}", report.mismatches);
        // Two answers for one focal that disagree are caught without an
        // evaluation of the second.
        let report = check_reads(
            &data,
            &[
                right.clone(),
                Answer {
                    k_star: k + 1,
                    ..right
                },
            ],
        )
        .unwrap();
        assert!(!report.mismatches.is_empty());
    }

    #[test]
    fn replay_catches_a_wrong_acknowledgement() {
        let data = data();
        let ack = Ack {
            row: vec![0.9, 0.9, 0.9],
            deleted: None,
            version: 1,
            inserted: 60,
        };
        let ok = check_writes(&data, std::slice::from_ref(&ack), &[], &[], &[]).unwrap();
        assert!(ok.mismatches.is_empty(), "{:?}", ok.mismatches);
        let bad = Ack {
            inserted: 61,
            ..ack
        };
        let report = check_writes(&data, &[bad], &[], &[], &[]).unwrap();
        assert_eq!(report.mismatches.len(), 1);
    }
}
