//! Page-read accounting under concurrency.
//!
//! Eight client threads send uncached queries to a four-worker service, so
//! several evaluations read the same R\*-tree at once.  Every answer's
//! `io_reads` must equal the figure of a sequential evaluation of the same
//! focal, and the exported `mrq_dataset_io_reads_total` must move by exactly
//! the sum of those figures: no query is charged a neighbour's page reads.

use mrq_core::{MaxRankConfig, MaxRankQuery};
use mrq_data::{Distribution, RecordId};
use mrq_service::{
    render_metrics, DatasetRegistry, DatasetSpec, MetricsSnapshot, MrqService, QueryRequest,
    ServiceConfig,
};
use std::sync::{Arc, Barrier};

const CLIENTS: usize = 8;
const QUERIES_PER_CLIENT: usize = 12;

fn io_reads_total(service: &MrqService) -> u64 {
    MetricsSnapshot::parse(&render_metrics(&service.stats()))
        .unwrap()
        .get_for("mrq_dataset_io_reads_total", "ind")
        .unwrap_or(0)
}

#[test]
fn concurrent_queries_are_charged_exactly_their_sequential_page_reads() {
    let registry = Arc::new(DatasetRegistry::new());
    let spec = DatasetSpec::Synthetic {
        dist: Distribution::Independent,
        n: 1000,
        d: 3,
        seed: 2015,
    };
    let entry = registry.register("ind", &spec).unwrap();
    let focals: Vec<RecordId> = (0..(CLIENTS * QUERIES_PER_CLIENT) as RecordId)
        .map(|i| i * 3)
        .collect();
    let engine = MaxRankQuery::new(entry.data(), entry.tree());
    let sequential: Vec<u64> = focals
        .iter()
        .map(|&f| engine.evaluate(f, &MaxRankConfig::new()).stats.io_reads)
        .collect();

    let service = MrqService::new(
        registry,
        ServiceConfig {
            workers: 4,
            ..ServiceConfig::default()
        },
    );
    let before = io_reads_total(&service);
    let start = Barrier::new(CLIENTS);
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let (service, focals, sequential, start) = (&service, &focals, &sequential, &start);
            scope.spawn(move || {
                start.wait();
                for i in (client..focals.len()).step_by(CLIENTS) {
                    let request = QueryRequest {
                        no_cache: true,
                        ..QueryRequest::new("ind", focals[i])
                    };
                    let answer = service.query(&request).unwrap();
                    assert!(!answer.cached);
                    assert_eq!(
                        answer.result.stats.io_reads, sequential[i],
                        "focal {} was charged another query's page reads",
                        focals[i]
                    );
                }
            });
        }
    });
    let after = io_reads_total(&service);
    assert_eq!(after - before, sequential.iter().sum::<u64>());
    service.shutdown();
}
