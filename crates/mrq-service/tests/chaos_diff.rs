//! Chaos differential: a seeded query/update/subscribe script driven through
//! the fault-injecting proxy (`common::chaos`) with a retrying client must
//! produce exactly the same transcript and final state as the same script
//! run against an identical fault-free server.
//!
//! This is the end-to-end proof of the robustness stack: mid-frame resets,
//! byte stalls and partial writes are turned back into exactly-once
//! semantics by `request_id` dedup on updates plus transport-aware retries
//! on idempotent requests.  An update whose acknowledgement was severed is
//! the sharp case — the server committed it, the client retries it, and the
//! dedup window must replay the original receipt instead of applying it
//! twice (which the version-by-version transcript comparison would expose
//! immediately).
//!
//! Notifications are deliberately out of scope here: subscriptions are
//! connection-bound, so a reset legitimately kills them mid-script.  The
//! subscribe acknowledgements (initial answers) are compared instead —
//! those are deterministic given the committed update prefix.

mod common;

use common::chaos::{ChaosConfig, ChaosProxy};
use common::random_batch;
use mrq_core::Algorithm;
use mrq_data::{synthetic, Dataset, Distribution, Update};
use mrq_service::{
    Client, ClientError, DatasetRegistry, MetricsSnapshot, MrqService, RetryPolicy, Server,
    ServerConfig, ServiceConfig,
};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

const DATASET: &str = "dyn";
const SCRIPT_SEED: u64 = 2015;
const SCRIPT_LEN: usize = 60;

/// One pre-materialized script step.  The script is generated *before* any
/// server runs, so both sides execute byte-identical requests.
enum Op {
    Update {
        request_id: String,
        inserts: Vec<Vec<f64>>,
        deletes: Vec<u32>,
    },
    Query {
        focal: u32,
    },
    Subscribe {
        focal: u32,
    },
}

fn initial_dataset() -> Dataset {
    let mut rng = StdRng::seed_from_u64(SCRIPT_SEED);
    synthetic::generate(Distribution::Independent, 32, 2, &mut rng)
}

/// Materializes the seeded script against an in-memory mirror so deletes
/// always name live ids and focals always name live records.  Also returns
/// a few ids still live after the last step, for final-state probes.
fn build_script() -> (Vec<Op>, Vec<u32>, u64) {
    let mut mirror = initial_dataset();
    let mut rng = StdRng::seed_from_u64(SCRIPT_SEED ^ 0xD1FF);
    let mut script = Vec::with_capacity(SCRIPT_LEN);
    for step in 0..SCRIPT_LEN {
        let live: Vec<u32> = mirror.iter().map(|(id, _)| id).collect();
        let roll = rng.gen_range(0..10);
        if roll < 5 {
            let batch = random_batch(&mirror, &mut rng);
            let mut inserts = Vec::new();
            let mut deletes = Vec::new();
            for update in &batch {
                match update {
                    Update::Insert(row) => inserts.push(row.clone()),
                    Update::Delete(id) => deletes.push(*id),
                }
                mirror.apply(update).unwrap();
            }
            script.push(Op::Update {
                request_id: format!("chaos-{SCRIPT_SEED}-{step}"),
                inserts,
                deletes,
            });
        } else if roll < 8 {
            script.push(Op::Query {
                focal: live[rng.gen_range(0..live.len())],
            });
        } else {
            script.push(Op::Subscribe {
                focal: live[rng.gen_range(0..live.len())],
            });
        }
    }
    let probes: Vec<u32> = mirror.iter().map(|(id, _)| id).take(3).collect();
    let final_version = mirror.version();
    (script, probes, final_version)
}

fn start_server() -> Server {
    let registry = Arc::new(DatasetRegistry::new());
    registry
        .register_loaded(DATASET, initial_dataset())
        .unwrap();
    let service = Arc::new(MrqService::new(
        registry,
        ServiceConfig {
            workers: 2,
            queue_capacity: 32,
            cache_capacity: 16,
            ..ServiceConfig::default()
        },
    ));
    let config = ServerConfig {
        ..ServerConfig::default()
    };
    Server::start_with(service, "127.0.0.1:0", config).unwrap()
}

fn retry_policy() -> RetryPolicy {
    RetryPolicy {
        max_retries: 30,
        base_backoff: Duration::from_millis(5),
        max_backoff: Duration::from_millis(100),
        seed: 42,
    }
}

/// Runs the script through one client, rendering each reply canonically.
/// Subscription ids are excluded on purpose: a retry after a reset may
/// re-register, so the counter differs between runs without any semantic
/// difference.
fn run_script(addr: SocketAddr, script: &[Op], with_retry: bool) -> (Vec<String>, u64) {
    let mut client = if with_retry {
        Client::connect_with_retry(addr, retry_policy()).unwrap()
    } else {
        Client::connect(addr).unwrap()
    };
    let mut transcript = Vec::with_capacity(script.len());
    for (step, op) in script.iter().enumerate() {
        let line = match op {
            Op::Update {
                request_id,
                inserts,
                deletes,
            } => {
                let reply = client
                    .update_with_id(DATASET, inserts, deletes, Some(request_id))
                    .unwrap_or_else(|e| panic!("step {step}: update failed: {e}"));
                format!(
                    "update v{} records={} inserted={:?} deleted={}",
                    reply.version, reply.records, reply.inserted, reply.deleted
                )
            }
            Op::Query { focal } => {
                let reply = client
                    .query(DATASET, *focal)
                    .unwrap_or_else(|e| panic!("step {step}: query failed: {e}"));
                format!(
                    "query focal={focal} v{} k*={} |T|={} orders={:?}",
                    reply.version, reply.k_star, reply.region_count, reply.orders
                )
            }
            Op::Subscribe { focal } => {
                let reply = client
                    .subscribe(DATASET, *focal, Algorithm::Auto, 0)
                    .unwrap_or_else(|e| panic!("step {step}: subscribe failed: {e}"));
                format!(
                    "subscribe focal={focal} v{} k*={}",
                    reply.version, reply.k_star
                )
            }
        };
        transcript.push(line);
    }
    (transcript, client.retries_performed())
}

/// Final state as seen by a brand-new, fault-free client.
fn final_state(addr: SocketAddr, focals: &[u32]) -> Vec<String> {
    let mut client = Client::connect(addr).unwrap();
    let mut state = Vec::new();
    for (name, records, dims) in client.list().unwrap() {
        state.push(format!("dataset {name} records={records} dims={dims}"));
    }
    for &focal in focals {
        let reply = client.query(DATASET, focal).unwrap();
        state.push(format!(
            "final focal={focal} v{} k*={} |T|={} orders={:?}",
            reply.version, reply.k_star, reply.region_count, reply.orders
        ));
    }
    state
}

#[test]
fn chaos_script_matches_fault_free_run_exactly() {
    let (script, probes, expected_version) = build_script();

    // Control: clean server, direct connection, no retries needed.
    let clean = start_server();
    let (clean_transcript, clean_retries) = run_script(clean.local_addr(), &script, false);
    assert_eq!(clean_retries, 0);

    // Faulty: identical server behind the chaos proxy, retrying client.
    // Every connection is scheduled for a reset; the escalating window is
    // what guarantees the script still finishes anyway.
    let faulty = start_server();
    let proxy = ChaosProxy::start(
        faulty.local_addr(),
        ChaosConfig {
            reset_percent: 100,
            ..ChaosConfig::default()
        },
    )
    .unwrap();
    let (chaos_transcript, retries) = run_script(proxy.addr(), &script, true);

    assert!(
        proxy.resets() > 0,
        "chaos config produced no resets — the run proved nothing \
         (connections={})",
        proxy.connections()
    );
    assert!(
        retries > 0,
        "client rode through {} resets without retrying",
        proxy.resets()
    );

    // The transcripts must match step for step: same versions (no lost and
    // no double-applied update), same answers, same subscribe snapshots.
    assert_eq!(chaos_transcript, clean_transcript);

    // Final state seen by fresh clients must match too, and the version
    // must equal the mirror's — every scripted update committed exactly
    // once, none lost, none double-applied.
    let clean_final = final_state(clean.local_addr(), &probes);
    let chaos_final = final_state(faulty.local_addr(), &probes);
    assert_eq!(chaos_final, clean_final);
    assert!(
        clean_final
            .iter()
            .any(|line| line.contains(&format!(" v{expected_version} "))),
        "expected final version {expected_version} in:\n{clean_final:#?}"
    );

    // Odd-ordinal connections tear the *reply* path, so with this fixed
    // seed at least one update ack is severed after the server committed —
    // the retry must hit the dedup window, not re-apply.
    let dedup_hits = faulty.service().stats().reliability.update_dedup_hits;
    assert!(
        dedup_hits > 0,
        "no severed-ack replay was exercised ({} resets)",
        proxy.resets()
    );
    eprintln!(
        "chaos run: {retries} retries, {dedup_hits} dedup hits, {} resets over {} connections",
        proxy.resets(),
        proxy.connections()
    );
    drop(proxy);
    clean.shutdown();
    faulty.shutdown();
}

/// The CI smoke: overload shedding, dedup and chaos retries all leave their
/// fingerprints in the `/metrics` exposition, with zero lost or duplicated
/// updates.  Kept deliberately small — the workflow gives it < 60 s.
#[test]
fn chaos_smoke_sheds_dedups_and_retries_under_a_minute() {
    let registry = Arc::new(DatasetRegistry::new());
    registry
        .register_loaded(DATASET, initial_dataset())
        .unwrap();
    let service = Arc::new(MrqService::new(
        registry,
        ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        },
    ));
    let config = ServerConfig {
        max_connections: 1,
        ..ServerConfig::default()
    };
    let server = Server::start_with(service, "127.0.0.1:0", config).unwrap();
    let addr = server.local_addr();

    // 1. Overload: while a connection holds the single slot, a second
    //    arrival is shed with the retryable busy frame; the retrying client
    //    succeeds once the holder leaves.
    let mut holder = Client::connect(addr).unwrap();
    holder.ping().unwrap();
    let held = std::thread::spawn({
        move || {
            std::thread::sleep(Duration::from_millis(200));
            drop(holder);
        }
    });
    let mut retrier = Client::connect_with_retry(addr, retry_policy()).unwrap();
    retrier.ping().unwrap();
    held.join().unwrap();
    assert!(retrier.retries_performed() > 0);

    // 2. Exactly-once: the same request_id applied twice commits once.
    let before = retrier.query(DATASET, 1).unwrap().version;
    let first = retrier
        .update_with_id(DATASET, &[vec![0.5, 0.5]], &[], Some("smoke-dup"))
        .unwrap();
    let replay = retrier
        .update_with_id(DATASET, &[vec![0.5, 0.5]], &[], Some("smoke-dup"))
        .unwrap();
    assert_eq!(first.version, replay.version);
    assert_eq!(first.version, before + 1);

    // 3. A short chaos burst: updates through the proxy, then verify none
    //    were lost or double-applied.
    drop(retrier);
    let proxy = ChaosProxy::start(
        addr,
        ChaosConfig {
            reset_percent: 50,
            ..ChaosConfig::default()
        },
    )
    .unwrap();
    let mut chaotic = Client::connect_with_retry(proxy.addr(), retry_policy()).unwrap();
    for i in 0..12 {
        chaotic
            .update_with_id(
                DATASET,
                &[vec![0.1 + 0.05 * f64::from(i), 0.3]],
                &[],
                Some(&format!("smoke-{i}")),
            )
            .unwrap();
    }
    let final_version = chaotic.query(DATASET, 1).unwrap().version;
    assert_eq!(
        final_version,
        first.version + 12,
        "chaos burst lost or duplicated an update"
    );

    // 4. The metrics exposition carries the evidence.
    let metrics = match chaotic.metrics() {
        Ok(text) => text,
        Err(ClientError::Io(_)) | Err(ClientError::Protocol(_)) => {
            // The scrape itself may be severed by the proxy; a direct
            // connection reads the same counters.
            Client::connect(addr).unwrap().metrics().unwrap()
        }
        Err(other) => panic!("metrics scrape failed: {other}"),
    };
    let snapshot = MetricsSnapshot::parse(&metrics).unwrap();
    let counter = |name: &str| -> u64 {
        snapshot
            .get(name)
            .unwrap_or_else(|| panic!("{name} missing from exposition:\n{metrics}"))
    };
    assert!(counter("mrq_connections_shed_total") > 0);
    assert!(counter("mrq_update_dedup_hits_total") > 0);

    // The chaotic client still holds the server's single connection slot, so
    // a client-driven SHUTDOWN would itself be shed — stop the server
    // directly instead.
    drop(chaotic);
    drop(proxy);
    server.shutdown();
}
