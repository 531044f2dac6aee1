//! The schedule replayed in-process against an [`MrqService`] configured
//! like the server, at the same rate and with the same thread count, with
//! spans around `enqueue`, `wait`, `update` and `subscribe`.  Run once with
//! spans off and once with spans on, the two give the tracing overhead.

use crate::stats::Samples;
use crate::trace::{Span, Tracer};
use crate::workload::{Op, Workload, DATASET};
use mrq_core::Algorithm;
use mrq_data::{Dataset, RecordId, Update};
use mrq_service::{DatasetRegistry, DurabilityOptions, MrqService, NotifyMailbox, QueryRequest};
use std::collections::VecDeque;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// What one replay measured.
#[derive(Debug, Default)]
pub struct ServiceReplay {
    /// Recorded spans (empty when untraced).
    pub spans: Vec<Span>,
    /// Service time of every operation (from the call to the answer), ms.
    pub op_ms: Samples,
    /// Queue wait of every query: `PendingAnswer::wait` minus the
    /// evaluation time of a freshly computed answer, ms.
    pub pool_wait_ms: Samples,
    /// Operations that returned an error.
    pub errors: usize,
}

/// A service like the server's for `w`, over `data` (durable under `dir`
/// when the workload is), with the workload's standing queries registered.
pub fn service(
    w: &Workload,
    data: &Dataset,
    subscriptions: &[RecordId],
    dir: &Path,
) -> Result<(Arc<MrqService>, Arc<NotifyMailbox>), String> {
    let registry = Arc::new(DatasetRegistry::new());
    if w.durable {
        registry.register_loaded_durable(
            DATASET,
            data.clone(),
            dir,
            DurabilityOptions::default(),
        )?;
    } else {
        registry.register_loaded(DATASET, data.clone())?;
    }
    let service = Arc::new(MrqService::new(registry, w.service_config()));
    let mailbox = Arc::new(NotifyMailbox::new());
    for &focal in subscriptions {
        service
            .subscribe(DATASET, focal, Algorithm::Auto, 0, Arc::clone(&mailbox))
            .map_err(|e| format!("subscribe {focal}: {e}"))?;
    }
    Ok((service, mailbox))
}

/// Answers every focal once, through the pool (the workers run them in
/// parallel), so later queries for them are cache hits.
pub fn warm(service: &MrqService, focals: &[RecordId]) -> Result<(), String> {
    let pending = focals
        .iter()
        .map(|&f| service.enqueue(&QueryRequest::new(DATASET, f)))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    for p in pending {
        p.wait().map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Replays `ops` open-loop at `w.rate` over `w.connections` threads.
pub fn replay(
    service: &MrqService,
    mailbox: &NotifyMailbox,
    w: &Workload,
    ops: &[Op],
    traced: bool,
) -> ServiceReplay {
    let origin = Instant::now();
    let epoch = origin + Duration::from_millis(20);
    let inserted: Mutex<VecDeque<RecordId>> = Mutex::new(VecDeque::new());
    let shards: Vec<ServiceReplay> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..w.connections)
            .map(|t| {
                let inserted = &inserted;
                scope.spawn(move || {
                    let mut tracer = Tracer::new(traced, origin, (t as u64) << 48);
                    let mut out = ServiceReplay::default();
                    for (i, op) in ops.iter().enumerate().skip(t).step_by(w.connections) {
                        let due = epoch + Duration::from_secs_f64(i as f64 / w.rate);
                        let wait = due.saturating_duration_since(Instant::now());
                        if !wait.is_zero() {
                            std::thread::sleep(wait);
                        }
                        let ok = match op {
                            Op::Query(focal) => {
                                let request = QueryRequest::new(DATASET, *focal);
                                let started = Instant::now();
                                tracer.begin("op.query");
                                let pending =
                                    tracer.time("service.enqueue", || service.enqueue(&request));
                                let waited = Instant::now();
                                let answer =
                                    pending.and_then(|p| tracer.time("service.wait", || p.wait()));
                                tracer.end();
                                let done = Instant::now();
                                out.op_ms.push((done - started).as_secs_f64() * 1e3);
                                if let Ok(a) = &answer {
                                    let eval = if a.cached {
                                        Duration::ZERO
                                    } else {
                                        a.result.stats.cpu_time
                                    };
                                    let wait = (done - waited).saturating_sub(eval);
                                    out.pool_wait_ms.push(wait.as_secs_f64() * 1e3);
                                }
                                answer.is_ok()
                            }
                            Op::Update { row, delete_oldest } => {
                                let mut queue =
                                    inserted.lock().expect("inserted-row queue poisoned");
                                let mut batch = vec![Update::Insert(row.clone())];
                                if *delete_oldest {
                                    batch.extend(queue.pop_front().map(Update::Delete));
                                }
                                let started = Instant::now();
                                tracer.begin("op.update");
                                let outcome = tracer
                                    .time("service.update", || service.update(DATASET, &batch));
                                tracer.end();
                                out.op_ms.push(started.elapsed().as_secs_f64() * 1e3);
                                mailbox.drain();
                                match outcome {
                                    Ok(o) => {
                                        queue.extend(o.inserted);
                                        true
                                    }
                                    Err(_) => false,
                                }
                            }
                        };
                        if !ok {
                            out.errors += 1;
                        }
                    }
                    out.spans = tracer.into_spans();
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread panicked"))
            .collect()
    });
    let mut merged = ServiceReplay::default();
    for shard in shards {
        merged.spans.extend(shard.spans);
        merged.errors += shard.errors;
        merged.op_ms.extend(&shard.op_ms);
        merged.pool_wait_ms.extend(&shard.pool_wait_ms);
    }
    merged
}

/// Median in-process round trip of a cache hit on `focal`, microseconds.
pub fn hit_us(service: &MrqService, focal: RecordId, calls: usize) -> Result<f64, String> {
    let request = QueryRequest::new(DATASET, focal);
    service.query(&request).map_err(|e| e.to_string())?;
    let mut s = Samples::new();
    for _ in 0..calls {
        let started = Instant::now();
        let answer = service.query(&request).map_err(|e| e.to_string())?;
        s.push(started.elapsed().as_secs_f64() * 1e6);
        if !answer.cached {
            return Err(format!("focal {focal} missed the cache on a repeat"));
        }
    }
    Ok(s.quantile_unchecked(0.5))
}
