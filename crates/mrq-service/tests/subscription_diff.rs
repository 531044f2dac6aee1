//! The differential harness for standing queries — the acceptance test of
//! the subscription subsystem.
//!
//! A seeded interleaving of `SUBSCRIBE`, `UNSUBSCRIBE` and `UPDATE` batches
//! runs against one `MrqService` while a *mirror* dataset replays the same
//! updates outside the service.  After every applied batch the harness
//! checks two things for every subscription:
//!
//! 1. **Every notification is exact.**  Each `Changed` event's carried
//!    result must fingerprint-equal a fresh evaluation on a bulk-loaded
//!    index over the mirror at the event's version, and its witnesses must
//!    attain their region orders on that data.  `Cancelled` events must
//!    coincide with the focal's deletion.
//! 2. **Every silence is exact too.**  Unaffected and rank-shifted
//!    subscriptions never re-enumerate — so the harness additionally
//!    snapshots every *surviving* subscription and requires the resident
//!    result to match a fresh rebuild at the new version.  A triage pass
//!    that wrongly certified a crossing delta as unaffected would keep a
//!    stale result resident and fail here even though no NOTIFY fired.
//! 3. **Every cached answer is exact.**  The result cache carries an entry
//!    across a batch by the same triage, so after every batch each resident
//!    entry must be stamped with the new version and fingerprint-equal a
//!    fresh rebuild there, and its witnesses must hold.  Besides the
//!    subscriptions' own queries, a few plain queries per batch (from a
//!    second generator, so the script itself is unchanged) put entries in
//!    the cache that no subscription maintains.
//!
//! Some subscriptions repeat a live one's (focal, algorithm, τ).  Such
//! co-subscribers share one evaluation through the result cache, so the
//! checks above also cover results that reach several subscribers as one
//! cached `Arc`.
//!
//! A directed companion test pins the triage counters down: batches of
//! dominated / dominating deltas must resolve entirely through
//! `unaffected_skips` and `partial_repairs` (the resident `Arc` is
//! physically untouched for skips), with `full_reevals` reserved for the
//! one genuinely crossing delta.

mod common;

use common::{assert_witnesses_hold, fingerprint, fresh_eval, random_batch};
use mrq_core::Algorithm;
use mrq_data::{synthetic, Dataset, Distribution, Update};
use mrq_service::{
    DatasetRegistry, MrqService, NotifyKind, NotifyMailbox, QueryRequest, ServiceConfig,
    Subscription,
};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Registers a subscription on a uniformly chosen live focal, or (with
/// probability 0.3) as a co-subscriber of a live subscription, and checks
/// the acknowledged resident result against a fresh rebuild.
fn subscribe_random(
    service: &MrqService,
    mirror: &Dataset,
    algorithms: &[Algorithm],
    mailbox: &Arc<NotifyMailbox>,
    rng: &mut StdRng,
    live_subs: &mut BTreeMap<u64, Arc<Subscription>>,
) {
    let ids: Vec<u64> = live_subs.keys().copied().collect();
    let (focal, algorithm, tau) = if !ids.is_empty() && rng.gen_bool(0.3) {
        let twin = &live_subs[&ids[rng.gen_range(0..ids.len())]];
        (twin.focal(), twin.algorithm(), twin.tau())
    } else {
        let live: Vec<u32> = mirror.iter().map(|(id, _)| id).collect();
        let focal = live[rng.gen_range(0..live.len())];
        let algorithm = algorithms[rng.gen_range(0..algorithms.len())];
        (focal, algorithm, rng.gen_range(0..2usize))
    };
    let sub = service
        .subscribe("dyn", focal, algorithm, tau, Arc::clone(mailbox))
        .expect("subscribing to a live focal succeeds");
    let (result, version) = sub.snapshot();
    assert_eq!(version, mirror.version(), "ack must carry the live version");
    let fresh = fresh_eval(mirror, focal, sub.algorithm(), tau);
    assert_eq!(
        fingerprint(&result),
        fingerprint(&fresh),
        "subscription ack diverged from a fresh rebuild (focal {focal}, {algorithm:?}, tau {tau})"
    );
    live_subs.insert(sub.id(), sub);
}

/// Checks every resident cache entry of the dataset against a fresh
/// rebuild over the mirror; returns how many were checked.
fn check_cache(service: &MrqService, mirror: &Dataset) -> usize {
    let entries = service.cached_entries("dyn");
    for (key, result) in &entries {
        assert_eq!(
            key.version,
            mirror.version(),
            "a cache entry outlived its batch (focal {})",
            key.focal
        );
        let fresh = fresh_eval(mirror, key.focal, key.algorithm, key.tau);
        assert_eq!(
            fingerprint(result),
            fingerprint(&fresh),
            "cached answer diverged from a fresh rebuild at version {} (focal {}, {:?}, tau {})",
            key.version,
            key.focal,
            key.algorithm,
            key.tau
        );
        assert_witnesses_hold(result, mirror, key.focal);
    }
    entries.len()
}

fn run_script(d: usize, dist: Distribution, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut query_rng = StdRng::seed_from_u64(seed.rotate_left(17));
    let mut cached_checked = 0usize;
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
    let mailbox = Arc::new(NotifyMailbox::new());
    // Ordered, so the script is the same on every run of a seed.
    let mut live_subs: BTreeMap<u64, Arc<Subscription>> = BTreeMap::new();
    // Changed events whose result is the same `Arc` as an earlier event of
    // the batch: co-subscribers served from the cache.
    let mut shared_results = 0usize;
    for _ in 0..4 {
        subscribe_random(
            &service,
            &mirror,
            algorithms,
            &mailbox,
            &mut rng,
            &mut live_subs,
        );
    }

    for _ in 0..24 {
        let roll: f64 = rng.gen();
        if roll < 0.20 {
            subscribe_random(
                &service,
                &mirror,
                algorithms,
                &mailbox,
                &mut rng,
                &mut live_subs,
            );
        } else if roll < 0.32 && !live_subs.is_empty() {
            let ids: Vec<u64> = live_subs.keys().copied().collect();
            let id = ids[rng.gen_range(0..ids.len())];
            assert!(service.unsubscribe(id), "live ids must unsubscribe cleanly");
            live_subs.remove(&id);
        } else {
            let batch = random_batch(&mirror, &mut rng);
            service.update("dyn", &batch).unwrap();
            for update in &batch {
                mirror.apply(update).unwrap();
            }
            let version = mirror.version();

            // 1. Every pushed event is exact at the version it carries.
            let mut changed = Vec::new();
            for event in mailbox.drain() {
                assert_eq!(event.version, version, "events are pushed in-batch");
                match &event.kind {
                    NotifyKind::Changed { result, .. } => {
                        if changed.iter().any(|other| Arc::ptr_eq(other, result)) {
                            shared_results += 1;
                        }
                        changed.push(Arc::clone(result));
                        let sub = &live_subs[&event.subscription];
                        let fresh = fresh_eval(&mirror, event.focal, sub.algorithm(), sub.tau());
                        assert_eq!(
                            fingerprint(result),
                            fingerprint(&fresh),
                            "NOTIFY'd result diverged from a fresh rebuild at version \
                             {version} (focal {}, {:?}, tau {})",
                            event.focal,
                            sub.algorithm(),
                            sub.tau()
                        );
                        assert_witnesses_hold(result, &mirror, event.focal);
                    }
                    NotifyKind::Cancelled { reason } => {
                        assert!(reason.contains("deleted"), "unexpected reason: {reason}");
                        assert!(
                            !mirror.is_live(event.focal),
                            "cancellation without a focal deletion"
                        );
                        live_subs
                            .remove(&event.subscription)
                            .expect("cancelled subscription was registered");
                    }
                }
            }

            // 2. Silence is exact too: even subscriptions that got *no*
            // event must now be resident-correct at the new version.
            for sub in live_subs.values() {
                let (result, v) = sub.snapshot();
                assert_eq!(
                    v, version,
                    "every survivor is stamped with the batch version"
                );
                let fresh = fresh_eval(&mirror, sub.focal(), sub.algorithm(), sub.tau());
                assert_eq!(
                    fingerprint(&result),
                    fingerprint(&fresh),
                    "maintained result diverged from a fresh rebuild at version \
                     {version} (focal {}, {:?}, tau {})",
                    sub.focal(),
                    sub.algorithm(),
                    sub.tau()
                );
                assert_witnesses_hold(&result, &mirror, sub.focal());
            }

            // 3. Every cached answer is exact at the new version, carried or
            // not; then a few plain queries give the next batch more to
            // carry.
            cached_checked += check_cache(&service, &mirror);
            let live: Vec<u32> = mirror.iter().map(|(id, _)| id).collect();
            for _ in 0..3 {
                let focal = live[query_rng.gen_range(0..live.len())];
                let request = QueryRequest {
                    algorithm: algorithms[query_rng.gen_range(0..algorithms.len())],
                    tau: query_rng.gen_range(0..2usize),
                    ..QueryRequest::new("dyn", focal)
                };
                service.query(&request).unwrap();
            }
        }
    }

    let stats = service.stats().subscriptions;
    assert_eq!(stats.active as usize, live_subs.len());
    assert_eq!(
        stats.deltas_triaged,
        stats.unaffected_skips + stats.partial_repairs + stats.full_reevals,
        "every examined delta lands in exactly one triage bucket"
    );
    assert!(
        shared_results > 0,
        "no co-subscriber received a cache-shared result"
    );
    let cache = service.stats().cache;
    assert!(
        cache.carried > 0 && cached_checked > 0,
        "no carried cache entry was checked"
    );
    service.shutdown();
}

#[test]
fn maintained_results_match_rebuilds_2d() {
    run_script(2, Distribution::Independent, 20150801);
    run_script(2, Distribution::AntiCorrelated, 42);
}

#[test]
fn maintained_results_match_rebuilds_3d() {
    run_script(3, Distribution::Correlated, 7);
    run_script(3, Distribution::Independent, 2015);
}

/// Directed counter attestation on the demo dataset: dominated inserts are
/// certified unaffected without touching the resident `Arc`, dominating
/// inserts are repaired arithmetically, and only the genuinely crossing
/// delete re-enumerates — so the non-intersecting majority of deltas never
/// re-runs cell enumeration.
#[test]
fn triage_counters_attest_skipped_enumeration() {
    let rows: Vec<Vec<f64>> = vec![
        vec![0.8, 0.9],
        vec![0.2, 0.7],
        vec![0.9, 0.4],
        vec![0.7, 0.2],
        vec![0.4, 0.3],
        vec![0.5, 0.5],
    ];
    let mut mirror = Dataset::from_rows(2, &rows);
    let registry = Arc::new(DatasetRegistry::new());
    registry.register_loaded("dyn", mirror.clone()).unwrap();
    let service = MrqService::new(Arc::clone(&registry), ServiceConfig::default());
    let mailbox = Arc::new(NotifyMailbox::new());
    let sub = service
        .subscribe("dyn", 5, Algorithm::Auto, 0, Arc::clone(&mailbox))
        .unwrap();
    let (initial, _) = sub.snapshot();
    assert_eq!(initial.k_star, 3);

    // Batch A: three inserts dominated by the focal — certified unaffected;
    // the resident result object itself must be untouched.
    let dominated: Vec<Update> = vec![
        Update::Insert(vec![0.05, 0.05]),
        Update::Insert(vec![0.10, 0.02]),
        Update::Insert(vec![0.02, 0.20]),
    ];
    service.update("dyn", &dominated).unwrap();
    for update in &dominated {
        mirror.apply(update).unwrap();
    }
    assert!(
        mailbox.drain().is_empty(),
        "unaffected deltas push no NOTIFY"
    );
    let (after_skip, v) = sub.snapshot();
    assert_eq!(v, mirror.version());
    assert!(
        Arc::ptr_eq(&initial, &after_skip),
        "a skipped batch must not rebuild the result"
    );

    // Batch B: two inserts dominating the focal — pure arithmetic repair,
    // one Changed event for the whole batch.
    let dominating: Vec<Update> = vec![
        Update::Insert(vec![0.95, 0.95]),
        Update::Insert(vec![0.90, 0.99]),
    ];
    service.update("dyn", &dominating).unwrap();
    for update in &dominating {
        mirror.apply(update).unwrap();
    }
    let events = mailbox.drain();
    assert_eq!(events.len(), 1);
    match &events[0].kind {
        NotifyKind::Changed { result, .. } => assert_eq!(result.k_star, 5),
        other => panic!("expected a change, got {other:?}"),
    }

    // Batch C: deleting an incomparable record can promote outside cells
    // into the window — the one delta that must re-enumerate.
    let crossing: Vec<Update> = vec![Update::Delete(2)];
    service.update("dyn", &crossing).unwrap();
    mirror.apply(&crossing[0]).unwrap();
    let events = mailbox.drain();
    assert_eq!(events.len(), 1);
    let (final_result, final_version) = sub.snapshot();
    assert_eq!(final_version, mirror.version());
    let fresh = fresh_eval(&mirror, 5, sub.algorithm(), 0);
    assert_eq!(fingerprint(&final_result), fingerprint(&fresh));
    assert_witnesses_hold(&final_result, &mirror, 5);

    let stats = service.stats().subscriptions;
    assert_eq!(stats.deltas_triaged, 6);
    assert_eq!(stats.unaffected_skips, 3);
    assert_eq!(stats.partial_repairs, 2);
    assert_eq!(stats.full_reevals, 1);
    assert!(
        stats.unaffected_skips + stats.partial_repairs > stats.full_reevals,
        "non-intersecting deltas must dominate the triage outcome"
    );
    service.shutdown();
}

/// Queries racing updates: one thread applies a scripted run of batches
/// while three query the service through its cache.  Every answer must
/// fingerprint-equal a fresh rebuild at the version it is stamped with,
/// whether it was evaluated, served from the cache, or carried there by an
/// update.
#[test]
fn queries_racing_updates_are_exact_at_their_version() {
    const SEED: u64 = 0x5EED_CA55;
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut mirror = synthetic::generate(Distribution::Independent, 40, 2, &mut rng);
    let registry = Arc::new(DatasetRegistry::new());
    registry.register_loaded("dyn", mirror.clone()).unwrap();
    let service = MrqService::new(
        Arc::clone(&registry),
        ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        },
    );
    // The whole script up front, with the data at every version it lands on.
    let mut batches = Vec::new();
    let mut at_version = BTreeMap::from([(mirror.version(), mirror.clone())]);
    for _ in 0..30 {
        let batch = random_batch(&mirror, &mut rng);
        for update in &batch {
            mirror.apply(update).unwrap();
        }
        at_version.insert(mirror.version(), mirror.clone());
        batches.push(batch);
    }
    // Focals live at every version, so every query is answered, and few of
    // them, so queries repeat and the cache has entries to carry.
    let focals: Vec<u32> = (0..40).filter(|&id| mirror.is_live(id)).take(8).collect();
    let algorithms = [Algorithm::BasicApproach, Algorithm::AdvancedApproach2D];
    let done = AtomicBool::new(false);
    let asked = AtomicUsize::new(0);
    let answers = std::thread::scope(|scope| {
        let readers: Vec<_> = (0..3u64)
            .map(|t| {
                let (service, done, asked, focals) = (&service, &done, &asked, &focals);
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(SEED + t);
                    let mut answers = Vec::new();
                    while !done.load(Ordering::Acquire) {
                        let request = QueryRequest {
                            algorithm: algorithms[rng.gen_range(0..algorithms.len())],
                            ..QueryRequest::new("dyn", focals[rng.gen_range(0..focals.len())])
                        };
                        let answer = service.query(&request).unwrap();
                        answers.push((request.focal, request.algorithm, answer));
                        asked.fetch_add(1, Ordering::Release);
                    }
                    answers
                })
            })
            .collect();
        for batch in &batches {
            // Some queries land between every two updates.
            let mark = asked.load(Ordering::Acquire);
            while asked.load(Ordering::Acquire) < mark + 6 {
                std::thread::yield_now();
            }
            service.update("dyn", batch).unwrap();
        }
        done.store(true, Ordering::Release);
        readers
            .into_iter()
            .flat_map(|reader| reader.join().unwrap())
            .collect::<Vec<_>>()
    });
    let mut fresh: BTreeMap<(u64, u32, &str), String> = BTreeMap::new();
    // Cache hits repeat one `Arc`: check each answer object once per version.
    let mut checked = std::collections::HashSet::new();
    for (focal, algorithm, answer) in &answers {
        if !checked.insert((answer.version, Arc::as_ptr(&answer.result))) {
            continue;
        }
        let expected = fresh
            .entry((answer.version, *focal, algorithm.name()))
            .or_insert_with(|| {
                fingerprint(&fresh_eval(
                    &at_version[&answer.version],
                    *focal,
                    *algorithm,
                    0,
                ))
            });
        assert_eq!(
            &fingerprint(&answer.result),
            expected,
            "answer at version {} diverged from a fresh rebuild (focal {focal}, {algorithm:?}, cached {})",
            answer.version,
            answer.cached
        );
    }
    let cache = service.stats().cache;
    assert!(answers.len() >= 6 * batches.len());
    assert!(cache.carried > 0, "no entry was carried across an update");
    service.shutdown();
}
