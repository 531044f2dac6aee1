//! End-to-end loopback test: a real TCP server on an ephemeral port, driven
//! by concurrent clients, checked against fresh single-threaded evaluation.
//!
//! This is the acceptance test of the serving layer: every answer produced
//! through registry → queue → pool → cache must equal what a brand-new
//! `MaxRankQuery` computes on its own thread, and a repeated-focal workload
//! must actually exercise the result cache.

use mrq_core::{MaxRankConfig, MaxRankQuery};
use mrq_service::{
    Client, DatasetRegistry, DatasetSpec, MrqService, QueryReply, Server, ServiceConfig,
};
use std::collections::HashMap;
use std::sync::Arc;

const CLIENTS: usize = 8;
const QUERIES_PER_CLIENT: usize = 12;
/// Focal ids deliberately smaller than the total query count so every client
/// revisits focals and the cache sees repeats.
const FOCALS: [u32; 6] = [1, 17, 42, 99, 150, 237];

fn start_server() -> (Server, DatasetSpec) {
    let spec = DatasetSpec::Synthetic {
        dist: mrq_data::Distribution::Independent,
        n: 300,
        d: 3,
        seed: 2015,
    };
    let registry = Arc::new(DatasetRegistry::new());
    registry.register("bench", &spec).unwrap();
    let service = Arc::new(MrqService::new(
        registry,
        ServiceConfig {
            workers: 4,
            queue_capacity: 64,
            cache_capacity: 32,
            ..ServiceConfig::default()
        },
    ));
    (Server::start(service, "127.0.0.1:0").unwrap(), spec)
}

/// Fresh, single-threaded reference answers, one engine per call site.
fn reference_answers(spec: &DatasetSpec) -> HashMap<u32, (usize, usize, Vec<usize>)> {
    let data = spec.materialize().unwrap();
    let tree = mrq_index::RStarTree::bulk_load(&data);
    let engine = MaxRankQuery::new(&data, &tree);
    FOCALS
        .iter()
        .map(|&focal| {
            let res = engine.evaluate(focal, &MaxRankConfig::new());
            let orders: Vec<usize> = res.regions.iter().map(|r| r.order).collect();
            (focal, (res.k_star, res.region_count(), orders))
        })
        .collect()
}

fn check_reply(
    reply: &QueryReply,
    focal: u32,
    reference: &HashMap<u32, (usize, usize, Vec<usize>)>,
) {
    let (k_star, region_count, orders) = &reference[&focal];
    assert_eq!(reply.k_star, *k_star, "focal {focal}: k* mismatch");
    assert_eq!(
        reply.region_count, *region_count,
        "focal {focal}: |T| mismatch"
    );
    assert_eq!(
        &reply.orders, orders,
        "focal {focal}: region orders mismatch"
    );
    assert_eq!(reply.witnesses.len(), *region_count);
    for w in &reply.witnesses {
        assert_eq!(w.len(), 3, "witnesses are full-dimensional");
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(w.iter().all(|x| *x > 0.0));
    }
}

#[test]
fn concurrent_clients_agree_with_fresh_evaluation_and_hit_the_cache() {
    let (server, spec) = start_server();
    let addr = server.local_addr();
    let reference = Arc::new(reference_answers(&spec));

    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let reference = Arc::clone(&reference);
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for q in 0..QUERIES_PER_CLIENT {
                    // Interleave focals differently per client so requests
                    // overlap across connections (cache races).
                    let focal = FOCALS[(c + q) % FOCALS.len()];
                    let reply = client.query("bench", focal).expect("query");
                    check_reply(&reply, focal, &reference);
                }
            });
        }
    });

    // Repeated-focal workload ⇒ the cache must have served real hits.
    let mut client = Client::connect(addr).unwrap();
    let stats = client.stats().unwrap();
    let hits = stats.get("mrq_cache_hits_total").unwrap();
    let misses = stats.get("mrq_cache_misses_total").unwrap();
    let total = (CLIENTS * QUERIES_PER_CLIENT) as u64;
    assert_eq!(hits + misses, total);
    assert!(
        hits > 0,
        "repeated-focal workload must produce cache hits: {stats:?}"
    );
    // Only 6 distinct keys exist; concurrent clients may race to fill the
    // same key (both miss before either inserts), so misses can exceed 6 —
    // but the vast majority of this workload must still be cache-served.
    assert!(
        hits >= total / 2,
        "a 6-key repeated workload should be mostly hits: {stats:?}"
    );
    assert_eq!(stats.get("mrq_pool_jobs_executed_total"), Some(misses));
    assert_eq!(client.list().unwrap(), vec![("bench".to_string(), 300, 3)]);

    // Cached answers still equal fresh evaluation (spot check).
    let reply = client.query("bench", FOCALS[0]).unwrap();
    assert!(reply.cached);
    check_reply(&reply, FOCALS[0], &reference);

    server.shutdown();
}

#[test]
fn shutdown_via_protocol_drains_cleanly() {
    let (server, _) = start_server();
    let addr = server.local_addr();
    let mut client = Client::connect(addr).unwrap();
    client.query("bench", 3).unwrap();
    client.shutdown_server().unwrap();
    // `wait` joins the accept thread, every connection thread and the pool;
    // returning at all *is* the assertion of a clean shutdown.
    server.wait();
}
