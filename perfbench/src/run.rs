//! One benchmark run of one workload: start the server, drive the phases,
//! check the answers, and turn the measurements into named metrics.

use crate::check::{check_reads, check_writes, CheckReport};
use crate::drive::{
    closed_loop, counter_delta, listen, open_loop, scrape, subscribe, Ack, Answer, Notice, Outcome,
    Record, Subscribed,
};
use crate::layers::{replay_cache, replay_queries, replay_updates, Counts, LAYER_FOCALS};
use crate::replay::{hit_us, replay, service, warm, ServiceReplay};
use crate::server::{cpu_delta_ns, Running, Setup, Target};
use crate::stats::{median, Samples};
use crate::trace::{self, Span, Tracer};
use crate::workload::{Inputs, Op, Workload};
use mrq_data::RecordId;
use mrq_service::Client;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// How long the subscriber keeps listening after the last update: longer
/// than the server's 200 ms idle-connection push tick.
const NOTIFY_GRACE: Duration = Duration::from_millis(600);
/// Sequential cache hits timed for the TCP overhead of one request.
const HIT_CALLS: usize = 500;

/// End-to-end metrics the benchmark gates, with their units, in the order of
/// `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("query_p50_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("rss_mb", "MiB"),
];

/// Per-layer metrics of a traced run, with their units, in the order of
/// `BENCHMARK.json`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("protocol.request_parse_us", "us"),
    ("protocol.reply_render_us", "us"),
    ("protocol.reply_parse_us", "us"),
    ("protocol.reply_bytes", "bytes"),
    ("protocol.notify_render_us", "us"),
    ("protocol.notify_bytes", "bytes"),
    ("server.tcp_overhead_us", "us"),
    ("server.connections_shed", "count"),
    ("server.idle_disconnects", "count"),
    ("pool.wait_ms_p50", "ms"),
    ("pool.wait_ms_p90", "ms"),
    ("pool.executed", "count"),
    ("pool.coalesced", "count"),
    ("pool.coalesce_ratio", "ratio"),
    ("pool.timed_out", "count"),
    ("pool.deadline_rejected", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("cache.evictions_stale", "count"),
    ("cache.get_us", "us"),
    ("registry.apply_ms", "ms"),
    ("registry.cow_clone_ms", "ms"),
    ("index.insert_us", "us"),
    ("index.delete_us", "us"),
    ("index.dominators_us", "us"),
    ("index.bbs_ms", "ms"),
    ("index.io_reads", "count"),
    ("storage.wal_append_ms", "ms"),
    ("storage.wal_bytes_per_update", "bytes"),
    ("storage.checkpoints", "count"),
    ("storage.checkpoint_ms", "ms"),
    ("maintain.triage_us", "us"),
    ("subscriptions.deltas_triaged", "count"),
    ("subscriptions.unaffected_skips", "count"),
    ("subscriptions.partial_repairs", "count"),
    ("subscriptions.full_reevals", "count"),
    ("subscriptions.skip_ratio", "ratio"),
    ("subscriptions.reeval_ms", "ms"),
    ("core.eval_ms_p50", "ms"),
    ("core.eval_ms_p90", "ms"),
    ("core.residual_ms", "ms"),
    ("core.iterations", "count"),
    ("core.halfspaces", "count"),
    ("core.regions", "count"),
    ("core.cells_tested", "count"),
    ("core.subtrees_pruned", "count"),
    ("quadtree.build_ms", "ms"),
    ("quadtree.leaves", "count"),
    ("withinleaf.first_pass_ms", "ms"),
    ("geometry.lp_calls", "count"),
    ("geometry.witness_hits", "count"),
    ("geometry.witness_hit_ratio", "ratio"),
    ("driver.late_p50_ms", "ms"),
    ("driver.late_p90_ms", "ms"),
];

/// Settings of one run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Seed every input is drawn from.
    pub seed: u64,
    /// Length of the timed open-loop phase.
    pub seconds: f64,
    /// Also run the traced replays and report per-layer metrics.
    pub trace: bool,
    /// Directory for `report.json`, `trace.json` and scratch files.
    pub out: PathBuf,
}

/// A named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Sample count behind a percentile or mean.
    pub samples: Option<usize>,
}

/// What one run produced.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Workload name.
    pub workload: &'static str,
    /// Whether every operation succeeded and every checked answer was right.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Errors, refusals and wrong answers.
    pub failed: u64,
    /// End-to-end measurements: the gated ones plus informational ones.
    pub metrics: Vec<Metric>,
    /// Per-layer measurements (traced runs only).
    pub per_layer: Vec<Metric>,
    /// Failures and mismatches, one line each.
    pub problems: Vec<String>,
}

impl RunOutcome {
    /// The one-line result object: the gated end-to-end metrics, or the
    /// per-layer ones for a traced run.
    pub fn result_json(&self) -> String {
        let (list, source) = if self.per_layer.is_empty() {
            (END_TO_END, &self.metrics)
        } else {
            (PER_LAYER, &self.per_layer)
        };
        let metrics: Vec<String> = list
            .iter()
            .filter_map(|(name, _)| source.iter().find(|m| m.name == *name))
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// `workload metric value unit [n=…]` lines.
    pub fn lines(&self) -> String {
        let mut out = String::new();
        for m in self.metrics.iter().chain(&self.per_layer) {
            let _ = write!(
                out,
                "{} {} {} {}",
                self.workload,
                m.name,
                json_number(m.value),
                m.unit
            );
            if let Some(n) = m.samples {
                let _ = write!(out, " n={n}");
            }
            out.push('\n');
        }
        out
    }
}

/// A finite number as JSON (non-finite values become 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Runs workload `w` once against `target`.
pub fn run_workload(w: &Workload, target: &Target, cfg: &RunConfig) -> Result<RunOutcome, String> {
    let dir = cfg.out.join(w.name);
    let work = dir.join(format!("work-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let result = run_in(w, target, cfg, &dir, &work);
    let _ = std::fs::remove_dir_all(&work);
    result
}

/// Everything the TCP phases recorded.
struct TcpRun {
    subscribed: Vec<Subscribed>,
    warm: Vec<Record>,
    open: Vec<Record>,
    notices: Vec<Notice>,
    listen_error: Option<String>,
    counters: (BTreeMap<String, f64>, BTreeMap<String, f64>),
    cpu_ns: Option<u64>,
    tcp_hit_us: Option<f64>,
}

fn run_in(
    w: &Workload,
    target: &Target,
    cfg: &RunConfig,
    dir: &Path,
    work: &Path,
) -> Result<RunOutcome, String> {
    let inputs = Inputs::generate(w, cfg.seed, cfg.seconds);
    let csv = work.join("data.csv");
    mrq_data::io::write_csv(&inputs.data, &csv, false).map_err(|e| format!("write csv: {e}"))?;
    let (server, setups) = Running::start(target, w, &csv, work)?;
    let tcp = drive(w, &inputs, &server, cfg)?;
    let peak_kib = server.peak_rss_kib();
    server.shutdown()?;

    let answers: Vec<Answer> = [&tcp.warm, &tcp.open]
        .into_iter()
        .flatten()
        .filter_map(|r| match &r.outcome {
            Outcome::Answer(a) => Some(a.clone()),
            _ => None,
        })
        .collect();
    let acks: Vec<Ack> = tcp
        .open
        .iter()
        .filter_map(|r| match &r.outcome {
            Outcome::Ack(a) => Some(a.clone()),
            _ => None,
        })
        .collect();
    let checks = if w.update_share > 0.0 {
        check_writes(&inputs.data, &acks, &answers, &tcp.subscribed, &tcp.notices)?
    } else {
        check_reads(&inputs.data, &answers)?
    };

    let mut problems: Vec<String> = [&tcp.warm, &tcp.open]
        .into_iter()
        .flatten()
        .filter_map(|r| match &r.outcome {
            Outcome::Failed(e) => Some(e.clone()),
            _ => None,
        })
        .chain(tcp.listen_error.clone())
        .collect();
    let errors = problems.len() as u64;
    problems.extend(checks.mismatches.iter().cloned());
    let attempted = (tcp.subscribed.len() + tcp.warm.len() + tcp.open.len()) as u64;
    let failed = errors + checks.mismatches.len() as u64;
    // An error or refusal is a failed run too: its answer was never checked.
    let correct = failed == 0 && checks.evaluated > 0;

    let mut metrics = end_to_end(&tcp, &setups, peak_kib, attempted, failed);
    let mut per_layer = Vec::new();
    let mut trace_doc = None;
    if cfg.trace {
        let (layer, doc) = traced(w, &inputs, cfg, work, &tcp)?;
        // Generator lateness is reported once, as a per-layer metric.
        metrics.retain(|m| !layer.iter().any(|l| l.name == m.name));
        per_layer = layer;
        trace_doc = Some(doc);
    }
    let outcome = RunOutcome {
        workload: w.name,
        correct,
        attempted,
        failed,
        metrics,
        per_layer,
        problems,
    };
    std::fs::write(
        dir.join("report.json"),
        report_json(w, cfg, &outcome, &checks),
    )
    .map_err(|e| format!("write report.json: {e}"))?;
    if let Some((doc, table)) = trace_doc {
        std::fs::write(dir.join("trace.json"), doc)
            .map_err(|e| format!("write trace.json: {e}"))?;
        eprint!("{table}");
    }
    Ok(outcome)
}

/// Drives the TCP phases: subscriptions, warm-up, the timed open loop
/// (between two `/metrics` scrapes and CPU readings) with the subscriber
/// listening beside it, and for traced runs a sequential cache-hit probe.
///
/// The closing CPU reading and scrape are taken while the load and
/// subscriber connections are still open: the server runs updates on the
/// connection's own thread, and a thread that has ended no longer shows its
/// CPU time.
fn drive(
    w: &Workload,
    inputs: &Inputs,
    server: &Running,
    cfg: &RunConfig,
) -> Result<TcpRun, String> {
    let addr = server.addr();
    let (listener, subscribed) = if w.subscriptions > 0 {
        let (client, subs) = subscribe(addr, &inputs.subscriptions)?;
        (Some(client), subs)
    } else {
        (None, Vec::new())
    };
    let warm = if w.warm_up {
        let ops: Vec<Op> = inputs
            .distinct_focals()
            .into_iter()
            .map(Op::Query)
            .collect();
        closed_loop(addr, &ops, w.connections)?
    } else {
        Vec::new()
    };
    let stop = AtomicBool::new(false);
    let before = scrape(addr)?;
    let cpu_before = server.cpu_ns();
    let epoch = Instant::now() + Duration::from_millis(50);
    let (open, notices) = std::thread::scope(|scope| {
        let listening = listener.map(|client| {
            let stop = &stop;
            scope.spawn(move || listen(client, epoch, stop))
        });
        let open = open_loop(addr, &inputs.ops, w.rate, w.connections, epoch);
        let notices = listening.map(|h| {
            std::thread::sleep(NOTIFY_GRACE);
            stop.store(true, Ordering::Relaxed);
            h.join().expect("subscriber thread panicked")
        });
        (open, notices)
    });
    let (open, load_conns) = open?;
    let (notices, listen_error, listen_conn) = match notices {
        Some(Ok((n, client))) => (n, None, Some(client)),
        Some(Err(e)) => (Vec::new(), Some(e), None),
        None => (Vec::new(), None, None),
    };
    let cpu_after = server.cpu_ns();
    let after = scrape(addr)?;
    drop((load_conns, listen_conn));
    let tcp_hit_us = if cfg.trace {
        Some(tcp_hit_us(addr, hot_focal(inputs))?)
    } else {
        None
    };
    Ok(TcpRun {
        subscribed,
        warm,
        open,
        notices,
        listen_error,
        counters: (before, after),
        cpu_ns: cpu_before.zip(cpu_after).map(|(b, a)| cpu_delta_ns(&b, &a)),
        tcp_hit_us,
    })
}

/// The schedule's first query focal.
fn hot_focal(inputs: &Inputs) -> RecordId {
    inputs.distinct_focals().first().copied().unwrap_or(0)
}

/// Median TCP round trip of a cache hit, microseconds (sequential, one
/// connection, after the timed phases).
fn tcp_hit_us(addr: SocketAddr, focal: RecordId) -> Result<f64, String> {
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    let query = |c: &mut Client| {
        c.query(crate::workload::DATASET, focal)
            .map_err(|e| e.to_string())
    };
    query(&mut client)?;
    let mut s = Samples::new();
    for _ in 0..HIT_CALLS {
        let started = Instant::now();
        let reply = query(&mut client)?;
        s.push(started.elapsed().as_secs_f64() * 1e6);
        if !reply.cached {
            return Err(format!("focal {focal} missed the cache on a repeat"));
        }
    }
    Ok(s.quantile_unchecked(0.5))
}

fn metric(name: &str, value: f64, unit: &'static str, samples: Option<usize>) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        samples,
    }
}

/// Pushes `prefix_pNN_ms` for each percentile the sample supports.
fn percentiles(out: &mut Vec<Metric>, prefix: &str, s: &mut Samples, qs: &[(f64, &str)]) {
    for &(q, label) in qs {
        if let Some(v) = s.quantile(q) {
            out.push(metric(
                &format!("{prefix}_{label}_ms"),
                v,
                "ms",
                Some(s.len()),
            ));
        }
    }
}

const PCTS: &[(f64, &str)] = &[(0.5, "p50"), (0.9, "p90"), (0.99, "p99")];

fn end_to_end(
    tcp: &TcpRun,
    setups: &[Setup],
    peak_kib: Option<u64>,
    attempted: u64,
    failed: u64,
) -> Vec<Metric> {
    let mut out = Vec::new();
    if !setups.is_empty() {
        let median_of = |f: fn(&Setup) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
        out.push(metric(
            "setup_s",
            median_of(|s| s.seconds),
            "s",
            Some(setups.len()),
        ));
        out.push(metric(
            "setup_list_s",
            median_of(|s| s.list_seconds),
            "s",
            Some(setups.len()),
        ));
    }
    let mut queries = Samples::new();
    let mut updates = Samples::new();
    let mut due_of: HashMap<u64, (Duration, Duration)> = HashMap::new();
    for r in &tcp.open {
        match &r.outcome {
            Outcome::Answer(_) => queries.push(r.latency_ms()),
            Outcome::Ack(a) => {
                updates.push(r.latency_ms());
                due_of.insert(a.version, (r.due, r.done));
            }
            Outcome::Failed(_) => {}
        }
    }
    percentiles(&mut out, "query", &mut queries, PCTS);
    if let Some(ns) = tcp.cpu_ns {
        let ops = tcp.open.len().max(1);
        out.push(metric(
            "cpu_ms_per_op",
            ns as f64 / 1e6 / ops as f64,
            "ms",
            Some(ops),
        ));
    }
    if !setups.is_empty() {
        let kib: Vec<f64> = setups.iter().map(|s| s.rss_kib as f64).collect();
        out.push(metric(
            "rss_mb",
            median(&kib) / 1024.0,
            "MiB",
            Some(setups.len()),
        ));
    }
    if let Some(kib) = peak_kib {
        out.push(metric("rss_peak_mb", kib as f64 / 1024.0, "MiB", None));
    }
    percentiles(&mut out, "update", &mut updates, PCTS);
    let mut notify = Samples::new();
    let mut lag = Samples::new();
    for n in &tcp.notices {
        if let Some((due, done)) = due_of.get(&n.version) {
            notify.push(n.at.saturating_sub(*due).as_secs_f64() * 1e3);
            lag.push(n.at.saturating_sub(*done).as_secs_f64() * 1e3);
        }
    }
    percentiles(&mut out, "notify", &mut notify, PCTS);
    percentiles(&mut out, "notify_lag", &mut lag, &PCTS[..1]);
    let mut late = lateness(&tcp.open);
    percentiles(&mut out, "driver.late", &mut late, &PCTS[..2]);
    out.push(metric(
        "failed_frac",
        failed as f64 / attempted.max(1) as f64,
        "ratio",
        Some(attempted as usize),
    ));
    out
}

fn lateness(records: &[Record]) -> Samples {
    let mut s = Samples::new();
    records.iter().for_each(|r| s.push(r.late_ms()));
    s
}

/// Runs the traced replays and derives the per-layer metrics; returns them
/// with the rendered `trace.json` and its text table.
fn traced(
    w: &Workload,
    inputs: &Inputs,
    cfg: &RunConfig,
    work: &Path,
    tcp: &TcpRun,
) -> Result<(Vec<Metric>, (String, String)), String> {
    // (a) The schedule against an in-process service, untraced then traced.
    let focals = inputs.distinct_focals();
    let fresh = |tag: &str| service(w, &inputs.data, &inputs.subscriptions, &work.join(tag));
    let (base_service, base_mailbox) = fresh("replay-untraced")?;
    if w.warm_up {
        warm(&base_service, &focals)?;
    }
    let untraced = replay(&base_service, &base_mailbox, w, &inputs.ops, false);
    // A warmed cache serves the traced pass as well; otherwise start afresh
    // so both passes see the same cache states.
    let (traced_service, traced_mailbox) = if w.warm_up {
        (base_service, base_mailbox)
    } else {
        base_service.shutdown();
        fresh("replay-traced")?
    };
    let traced_run = replay(&traced_service, &traced_mailbox, w, &inputs.ops, true);
    let inproc_hit_us = hit_us(&traced_service, hot_focal(inputs), HIT_CALLS)?;
    traced_service.shutdown();

    // (b) Sequential replays through each layer on private copies.
    let origin = Instant::now();
    let mut layer_tracer = Tracer::new(true, origin, 1 << 56);
    let mut counts = Counts::new();
    let sample: Vec<RecordId> = focals.iter().copied().take(LAYER_FOCALS).collect();
    replay_queries(&inputs.data, &sample, &mut layer_tracer, &mut counts);
    let (updates, subs) = inputs.write_path(w, cfg.seed);
    let layer_dir = work.join("layers");
    replay_updates(
        &inputs.data,
        &updates,
        &subs,
        &layer_dir,
        &mut layer_tracer,
        &mut counts,
    )?;
    let mut cache_tracer = Tracer::new(true, origin, 2 << 56);
    replay_cache(w, &inputs.ops, &mut cache_tracer);

    let mut spans: Vec<Span> = traced_run.spans.clone();
    spans.extend(layer_tracer.into_spans());
    spans.extend(cache_tracer.into_spans());
    let per_layer = layer_metrics(
        tcp,
        &traced_run,
        &spans,
        &counts,
        sample.len(),
        inproc_hit_us,
    );
    let overhead = if untraced.op_ms.is_empty() {
        0.0
    } else {
        (traced_run.op_ms.mean() / untraced.op_ms.mean() - 1.0) * 100.0
    };
    let extra = format!(
        "  \"workload\": \"{}\",\n  \"seed\": {},\n  \"tracing_overhead\": {{\"untraced_op_ms_mean\": {}, \
         \"traced_op_ms_mean\": {}, \"ops\": {}, \"overhead_pct\": {}}},\n  \"replay_errors\": {},\n",
        w.name,
        cfg.seed,
        untraced.op_ms.mean(),
        traced_run.op_ms.mean(),
        traced_run.op_ms.len(),
        json_number(overhead),
        untraced.errors + traced_run.errors,
    );
    let table = format!(
        "{}tracing overhead: {overhead:+.2}% of mean in-process service time over {} ops\n",
        trace::table_text(&spans),
        traced_run.op_ms.len()
    );
    Ok((per_layer, (trace::to_json(&spans, &extra), table)))
}

/// Percentile `q` of the durations of the spans named `name`, converted
/// from nanoseconds by `per_ns` (0 when there are none).
fn span_p(
    spans: &BTreeMap<&'static str, trace::SpanStats>,
    name: &str,
    q: f64,
    per_ns: f64,
) -> f64 {
    spans
        .get(name)
        .map(|s| s.durations.clone().quantile_unchecked(q) * per_ns)
        .unwrap_or(0.0)
}

fn layer_metrics(
    tcp: &TcpRun,
    replay: &ServiceReplay,
    spans: &[Span],
    counts: &Counts,
    focals: usize,
    inproc_hit_us: f64,
) -> Vec<Metric> {
    const US: f64 = 1e-3;
    const MS: f64 = 1e-6;
    let table = trace::summarize(spans);
    let (before, after) = &tcp.counters;
    let delta = |series: &str| counter_delta(before, after, series);
    let count = |name: &str| counts.get(name).copied().unwrap_or(0.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let n = |name: &str| table.get(name).map(|s| s.count);
    let calls = |name: &str| n(name).unwrap_or(0) as f64;

    // Per-focal residual: full evaluation minus the separately timed stages.
    let mut residual = Samples::new();
    let mut by_op: HashMap<u64, HashMap<&str, u64>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent.is_some()) {
        *by_op.entry(s.op).or_default().entry(s.name).or_default() += s.ns();
    }
    for stages in by_op.values() {
        if let Some(eval) = stages.get("core.evaluate") {
            let parts: u64 = [
                "index.dominators",
                "index.bbs",
                "quadtree.build",
                "withinleaf.first_pass",
            ]
            .iter()
            .filter_map(|k| stages.get(k))
            .sum();
            residual.push((*eval as f64 - parts as f64) * MS);
        }
    }
    let mut wait = replay.pool_wait_ms.clone();
    let mut late = lateness(&tcp.open);
    let hits = delta("mrq_cache_hits_total");
    let misses = delta("mrq_cache_misses_total");
    let executed = delta("mrq_pool_jobs_executed_total");
    let coalesced = delta("mrq_pool_jobs_coalesced_total");
    let lp = count("geometry.lp_calls");
    let witness = count("geometry.witness_hits");
    let triaged = delta("mrq_subscription_deltas_triaged_total");
    let skips = delta("mrq_subscription_unaffected_skips_total");
    let tcp_hit = tcp.tcp_hit_us.unwrap_or(0.0);
    let span = |name: &str, q: f64, per_ns: f64| (span_p(&table, name, q, per_ns), n(name));
    let per_focal = |name: &str| (count(name), Some(focals));
    let plain = |value: f64| (value, None);
    let values: Vec<(&str, (f64, Option<usize>))> = vec![
        (
            "protocol.request_parse_us",
            span("protocol.request_parse", 0.5, US),
        ),
        (
            "protocol.reply_render_us",
            span("protocol.reply_render", 0.5, US),
        ),
        (
            "protocol.reply_parse_us",
            span("protocol.reply_parse", 0.5, US),
        ),
        (
            "protocol.reply_bytes",
            (
                ratio(count("protocol.reply_bytes"), focals as f64),
                Some(focals),
            ),
        ),
        (
            "protocol.notify_render_us",
            span("protocol.notify_render", 0.5, US),
        ),
        (
            "protocol.notify_bytes",
            plain(ratio(
                count("protocol.notify_bytes"),
                calls("protocol.notify_render"),
            )),
        ),
        (
            "server.tcp_overhead_us",
            (tcp_hit - inproc_hit_us, Some(HIT_CALLS)),
        ),
        (
            "server.connections_shed",
            plain(delta("mrq_connections_shed_total")),
        ),
        (
            "server.idle_disconnects",
            plain(delta("mrq_idle_disconnects_total")),
        ),
        (
            "pool.wait_ms_p50",
            (wait.quantile_unchecked(0.5), Some(wait.len())),
        ),
        (
            "pool.wait_ms_p90",
            (wait.quantile_unchecked(0.9), Some(wait.len())),
        ),
        ("pool.executed", plain(executed)),
        ("pool.coalesced", plain(coalesced)),
        (
            "pool.coalesce_ratio",
            plain(ratio(coalesced, hits + misses)),
        ),
        (
            "pool.timed_out",
            plain(delta("mrq_pool_jobs_timed_out_total")),
        ),
        (
            "pool.deadline_rejected",
            plain(delta("mrq_pool_jobs_deadline_rejected_total")),
        ),
        ("cache.hit_ratio", plain(ratio(hits, hits + misses))),
        ("cache.evictions", plain(delta("mrq_cache_evictions_total"))),
        (
            "cache.evictions_stale",
            plain(delta("mrq_cache_evictions_stale_total")),
        ),
        ("cache.get_us", span("cache.get", 0.5, US)),
        ("registry.apply_ms", span("registry.apply", 0.5, MS)),
        ("registry.cow_clone_ms", span("registry.cow_clone", 0.5, MS)),
        ("index.insert_us", span("index.insert", 0.5, US)),
        ("index.delete_us", span("index.delete", 0.5, US)),
        ("index.dominators_us", span("index.dominators", 0.5, US)),
        ("index.bbs_ms", span("index.bbs", 0.5, MS)),
        ("index.io_reads", per_focal("index.io_reads")),
        ("storage.wal_append_ms", span("storage.wal_append", 0.5, MS)),
        (
            "storage.wal_bytes_per_update",
            plain(ratio(
                count("storage.wal_bytes"),
                calls("storage.wal_append"),
            )),
        ),
        ("storage.checkpoints", plain(delta("mrq_checkpoints_total"))),
        ("storage.checkpoint_ms", span("storage.checkpoint", 0.5, MS)),
        ("maintain.triage_us", span("maintain.triage", 0.5, US)),
        ("subscriptions.deltas_triaged", plain(triaged)),
        ("subscriptions.unaffected_skips", plain(skips)),
        (
            "subscriptions.partial_repairs",
            plain(delta("mrq_subscription_partial_repairs_total")),
        ),
        (
            "subscriptions.full_reevals",
            plain(delta("mrq_subscription_full_reevals_total")),
        ),
        ("subscriptions.skip_ratio", plain(ratio(skips, triaged))),
        (
            "subscriptions.reeval_ms",
            span("subscriptions.reeval", 0.5, MS),
        ),
        ("core.eval_ms_p50", span("core.evaluate", 0.5, MS)),
        ("core.eval_ms_p90", span("core.evaluate", 0.9, MS)),
        (
            "core.residual_ms",
            (residual.quantile_unchecked(0.5), Some(residual.len())),
        ),
        ("core.iterations", per_focal("core.iterations")),
        ("core.halfspaces", per_focal("core.halfspaces")),
        ("core.regions", per_focal("core.regions")),
        ("core.cells_tested", per_focal("core.cells_tested")),
        ("core.subtrees_pruned", per_focal("core.subtrees_pruned")),
        ("quadtree.build_ms", span("quadtree.build", 0.5, MS)),
        ("quadtree.leaves", per_focal("quadtree.leaves")),
        (
            "withinleaf.first_pass_ms",
            span("withinleaf.first_pass", 0.5, MS),
        ),
        ("geometry.lp_calls", per_focal("geometry.lp_calls")),
        ("geometry.witness_hits", per_focal("geometry.witness_hits")),
        (
            "geometry.witness_hit_ratio",
            plain(ratio(witness, witness + lp)),
        ),
        (
            "driver.late_p50_ms",
            (late.quantile_unchecked(0.5), Some(late.len())),
        ),
        (
            "driver.late_p90_ms",
            (late.quantile_unchecked(0.9), Some(late.len())),
        ),
    ];
    debug_assert_eq!(values.len(), PER_LAYER.len());
    PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(name, unit), (vname, (value, samples)))| {
            debug_assert_eq!(name, vname);
            metric(name, value, unit, samples)
        })
        .collect()
}

/// The run's `report.json`: settings, checks, every metric with its sample
/// count, and the first problems.
fn report_json(w: &Workload, cfg: &RunConfig, o: &RunOutcome, checks: &CheckReport) -> String {
    let list = |ms: &[Metric]| {
        ms.iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"value\": {}, \"unit\": \"{}\", \"samples\": {}}}",
                    m.name,
                    json_number(m.value),
                    m.unit,
                    m.samples.map_or("null".to_string(), |n| n.to_string())
                )
            })
            .collect::<Vec<_>>()
            .join(",\n")
    };
    let problems: Vec<String> = o
        .problems
        .iter()
        .take(20)
        .map(|p| format!("    \"{}\"", p.replace('\\', "\\\\").replace('"', "\\\"")))
        .collect();
    format!(
        "{{\n  \"schema\": \"perfbench-report-v1\",\n  \"workload\": \"{}\",\n  \"seed\": {},\n  \
         \"seconds\": {},\n  \"rate_ops_per_s\": {},\n  \"connections\": {},\n  \"records\": {},\n  \
         \"dims\": {},\n  \"correct\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \
         \"checks\": {{\"evaluated\": {}, \"compared\": {}, \"mismatches\": {}}},\n  \
         \"metrics\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ],\n  \"problems\": [\n{}\n  ]\n}}\n",
        w.name,
        cfg.seed,
        cfg.seconds,
        w.rate,
        w.connections,
        w.records,
        w.dims,
        o.correct,
        o.attempted,
        o.failed,
        checks.evaluated,
        checks.compared,
        checks.mismatches.len(),
        list(&o.metrics),
        list(&o.per_layer),
        problems.join(",\n")
    )
}
