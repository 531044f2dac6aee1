//! The differential update harness — the acceptance test of the mutation
//! subsystem.
//!
//! A scripted but seed-randomized interleaving of `UPDATE` batches and
//! queries runs against one `MrqService` while a *mirror* dataset replays
//! the same updates outside the service.  After every query the harness
//! bulk-loads a fresh R\*-tree over the mirror and evaluates the same
//! (focal, algorithm, τ) single-threadedly: the service answer — whether it
//! came from the worker pool or the result cache — must
//! be semantically identical, and must carry exactly the mirror's current
//! version.  Because cache keys embed the dataset version, any stale cache
//! hit would either carry the wrong version (caught by the version
//! assertion) or the wrong content (caught by the fingerprint comparison).
//!
//! A second phase enqueues queries, applies an update *while they may still
//! be queued*, then enqueues more: each answer must match a fresh
//! evaluation at the version it reports, proving in-flight queries finish
//! on the snapshot they validated against while later ones see the new one.

mod common;

use common::{assert_witnesses_hold, fingerprint, fresh_eval, random_batch};
use mrq_core::Algorithm;
use mrq_data::{synthetic, Dataset, Distribution};
use mrq_service::{DatasetRegistry, MrqService, QueryRequest, ServiceConfig};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;

fn run_script(d: usize, dist: Distribution, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut mirror = synthetic::generate(dist, 40, d, &mut rng);
    let registry = Arc::new(DatasetRegistry::new());
    registry.register_loaded("dyn", mirror.clone()).unwrap();
    let service = MrqService::new(
        Arc::clone(&registry),
        ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        },
    );
    let algorithms: &[Algorithm] = if d == 2 {
        &[
            Algorithm::Fca,
            Algorithm::BasicApproach,
            Algorithm::AdvancedApproach,
            Algorithm::AdvancedApproach2D,
        ]
    } else {
        &[Algorithm::BasicApproach, Algorithm::AdvancedApproach]
    };
    // Every dataset state a query can have validated against, by version.
    let mut by_version: HashMap<u64, Dataset> = HashMap::new();
    by_version.insert(0, mirror.clone());

    // Phase 1: synchronous interleaving.  Every answer must be computed at
    // the *current* version and equal a fresh evaluation on a rebuilt index.
    for _ in 0..28 {
        if rng.gen_bool(0.4) {
            let batch = random_batch(&mirror, &mut rng);
            let outcome = service.update("dyn", &batch).unwrap();
            for update in &batch {
                mirror.apply(update).unwrap();
            }
            assert_eq!(outcome.version, mirror.version());
            assert_eq!(outcome.records, mirror.live_len());
            by_version.insert(mirror.version(), mirror.clone());
        } else {
            let live: Vec<u32> = mirror.iter().map(|(id, _)| id).collect();
            let focal = live[rng.gen_range(0..live.len())];
            let algorithm = algorithms[rng.gen_range(0..algorithms.len())];
            let tau = rng.gen_range(0..2usize);
            let answer = service
                .query(&QueryRequest {
                    algorithm,
                    tau,
                    ..QueryRequest::new("dyn", focal)
                })
                .unwrap();
            assert_eq!(
                answer.version,
                mirror.version(),
                "an answer must never come from an older dataset version"
            );
            let fresh = fresh_eval(&mirror, focal, algorithm, tau);
            assert_eq!(
                fingerprint(&answer.result),
                fingerprint(&fresh),
                "service answer (cached={}) diverged from a fresh rebuild at \
                 version {} (focal {focal}, {algorithm:?}, tau {tau})",
                answer.cached,
                mirror.version()
            );
            assert_witnesses_hold(&answer.result, &mirror, focal);
        }
    }

    // Phase 2: queries in flight across an update.  Answers report which
    // snapshot they ran on; each must match a rebuild of *that* state.
    let live: Vec<u32> = mirror.iter().map(|(id, _)| id).collect();
    let before: Vec<_> = (0..4)
        .map(|i| {
            let focal = live[i % live.len()];
            (
                focal,
                service
                    .enqueue(&QueryRequest::new("dyn", focal))
                    .expect("enqueue before update"),
            )
        })
        .collect();
    let batch = random_batch(&mirror, &mut rng);
    service.update("dyn", &batch).unwrap();
    for update in &batch {
        mirror.apply(update).unwrap();
    }
    by_version.insert(mirror.version(), mirror.clone());
    let live_after: Vec<u32> = mirror.iter().map(|(id, _)| id).collect();
    let after: Vec<_> = (0..4)
        .map(|i| {
            let focal = live_after[(i + 1) % live_after.len()];
            (
                focal,
                service
                    .enqueue(&QueryRequest::new("dyn", focal))
                    .expect("enqueue after update"),
            )
        })
        .collect();
    for (focal, pending) in before.into_iter().chain(after) {
        let answer = pending.wait().unwrap();
        let state = by_version
            .get(&answer.version)
            .expect("answers only ever carry registered versions");
        let fresh = fresh_eval(state, focal, Algorithm::Auto, 0);
        assert_eq!(
            fingerprint(&answer.result),
            fingerprint(&fresh),
            "in-flight answer diverged at version {} (focal {focal})",
            answer.version
        );
        assert_witnesses_hold(&answer.result, state, focal);
    }

    // Phase 3: the cache is alive and correct at the final version — the
    // same request twice must hit, still matching a fresh evaluation.
    let focal = live_after[0];
    let first = service.query(&QueryRequest::new("dyn", focal)).unwrap();
    let second = service.query(&QueryRequest::new("dyn", focal)).unwrap();
    assert!(second.cached, "a repeat at a stable version must hit");
    assert_eq!(second.version, mirror.version());
    assert!(Arc::ptr_eq(&first.result, &second.result));
    let fresh = fresh_eval(&mirror, focal, Algorithm::Auto, 0);
    assert_eq!(fingerprint(&second.result), fingerprint(&fresh));
    assert!(service.stats().cache.hits > 0);
    service.shutdown();
}

#[test]
fn interleaved_updates_and_queries_match_rebuilds_2d() {
    run_script(2, Distribution::Independent, 20150801);
    run_script(2, Distribution::AntiCorrelated, 42);
}

#[test]
fn interleaved_updates_and_queries_match_rebuilds_3d() {
    run_script(3, Distribution::Correlated, 7);
    run_script(3, Distribution::Independent, 2015);
}
