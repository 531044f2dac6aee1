//! Prometheus-format observability: the counter registry, its text renderer
//! and parser, and the plain-HTTP scrape listener behind `--metrics-port`.
//!
//! [`families`] is the one place that names a counter: each row maps a
//! family name, its `counter`/`gauge` kind and its help text to a
//! [`ServiceStats`] field.  Every counter surface derives from it — the
//! `metrics` protocol verb (and its alias `stats`), the HTTP scrape, and
//! `maxrank-client --stats`, which prints the parsed text sample by sample.
//! Adding a counter takes one `ServiceStats` field, one registry row and a
//! regenerated `tests/golden/metrics.prom`.
//!
//! The renderer emits the [text exposition format] by hand, like the rest of
//! the std-only stack: one `# HELP` / `# TYPE` pair per family, then the
//! samples.  Values are written through `u64`'s `Display` and cross the
//! protocol inside a JSON *string*, never a JSON number, and
//! [`MetricsSnapshot::parse`] reads them back as `u64`, so counters stay
//! **integer-exact past 2^53** end to end (tests pin this).
//!
//! The listener speaks just enough HTTP/1.0 for `curl` and a Prometheus
//! scraper: `GET /metrics` → `200` with `text/plain; version=0.0.4`,
//! anything else → `404`.  Scrapes are served one at a time on the accept
//! thread — a scrape is a read-only stats snapshot and a small write, and
//! metrics ports are not exposed to untrusted peers.
//!
//! [text exposition format]: https://prometheus.io/docs/instrumenting/exposition_formats/

use crate::protocol::DeadlineStream;
use crate::querystats::DatasetQueryStats;
use crate::service::{MrqService, ServiceStats};
use crate::sync::lock_or_recover;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The `Content-Type` of the exposition format.
pub const METRICS_CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

/// Whether a family is a monotone total or a level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A process-lifetime total that never decreases.
    Counter,
    /// A current level that can go up and down.
    Gauge,
}

impl Kind {
    /// The exposition-format `# TYPE` keyword.
    fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
        }
    }
}

/// One sample: its `dataset` label (`None` for unlabelled families) and
/// its value.
pub type Sample = (Option<String>, u64);

/// One metric family: its name, kind, help text and samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Family {
    /// Family name, e.g. `mrq_cache_hits_total`.
    pub name: String,
    /// Counter or gauge.
    pub kind: Kind,
    /// One-line description (the `# HELP` text).
    pub help: String,
    /// The samples: one unlabelled sample, or one per dataset.
    pub samples: Vec<Sample>,
}

/// The counter registry: every exported family, in exposition order, read
/// from one stats snapshot.
pub fn families(stats: &ServiceStats) -> Vec<Family> {
    use Kind::{Counter, Gauge};
    let (c, p, d, s, r) = (
        &stats.cache,
        &stats.pool,
        &stats.durability,
        &stats.subscriptions,
        &stats.reliability,
    );
    let one = |value: u64| -> Vec<Sample> { vec![(None, value)] };
    let per_dataset = |value: fn(&DatasetQueryStats) -> u64| -> Vec<Sample> {
        stats
            .per_dataset
            .iter()
            .map(|q| (Some(q.dataset.clone()), value(q)))
            .collect()
    };
    let degraded: Vec<Sample> = stats
        .datasets
        .iter()
        .map(|name| (Some(name.clone()), u64::from(stats.degraded.contains(name))))
        .collect();
    let rows = vec![
        // Result cache.
        (
            "mrq_cache_hits_total",
            Counter,
            "Result-cache lookups answered from the cache.",
            one(c.hits),
        ),
        (
            "mrq_cache_misses_total",
            Counter,
            "Result-cache lookups that missed.",
            one(c.misses),
        ),
        (
            "mrq_cache_evictions_total",
            Counter,
            "Entries evicted from the result cache to make room.",
            one(c.evictions),
        ),
        (
            "mrq_cache_evictions_stale_total",
            Counter,
            "Entries an update could not prove exact, or left older than its parent version.",
            one(c.evictions_stale),
        ),
        (
            "mrq_cache_carried_total",
            Counter,
            "Entries an update proved exact and re-stamped with its version.",
            one(c.carried),
        ),
        (
            "mrq_cache_entries",
            Gauge,
            "Entries currently resident in the result cache.",
            one(c.len as u64),
        ),
        (
            "mrq_cache_capacity",
            Gauge,
            "Result-cache capacity (0 = caching disabled).",
            one(c.capacity as u64),
        ),
        // Worker pool.
        (
            "mrq_pool_workers",
            Gauge,
            "Worker threads in the query pool.",
            one(p.workers as u64),
        ),
        (
            "mrq_pool_queue_capacity",
            Gauge,
            "Bounded queue capacity of the query pool.",
            one(p.queue_capacity as u64),
        ),
        (
            "mrq_pool_queue_depth",
            Gauge,
            "Jobs currently queued in the query pool.",
            one(p.queue_depth as u64),
        ),
        (
            "mrq_pool_jobs_executed_total",
            Counter,
            "Jobs evaluated by the pool (cache hits and rejections excluded).",
            one(p.executed),
        ),
        (
            "mrq_pool_jobs_timed_out_total",
            Counter,
            "Jobs whose deadline had already passed at dequeue time.",
            one(p.timed_out),
        ),
        // Per-dataset lifetime query totals.
        (
            "mrq_dataset_queries_total",
            Counter,
            "Queries evaluated per dataset (cache hits excluded).",
            per_dataset(|q| q.queries),
        ),
        (
            "mrq_dataset_cache_hits_total",
            Counter,
            "Queries answered from the result cache per dataset.",
            per_dataset(|q| q.cache_hits),
        ),
        (
            "mrq_dataset_cpu_microseconds_total",
            Counter,
            "CPU time spent evaluating queries per dataset, in microseconds.",
            per_dataset(|q| q.cpu_us),
        ),
        (
            "mrq_dataset_io_reads_total",
            Counter,
            "Simulated page reads per dataset (the paper's I/O model).",
            per_dataset(|q| q.io_reads),
        ),
        (
            "mrq_dataset_cells_tested_total",
            Counter,
            "Cells decided per dataset: candidate bit-strings on the LP path (witness cache or LP), leaf faces on the planar path (d = 3).",
            per_dataset(|q| q.cells_tested),
        ),
        (
            "mrq_dataset_lp_calls_total",
            Counter,
            "Simplex LPs solved per dataset.",
            per_dataset(|q| q.lp_calls),
        ),
        (
            "mrq_dataset_witness_hits_total",
            Counter,
            "Candidates proven non-empty by a cached witness per dataset.",
            per_dataset(|q| q.witness_hits),
        ),
        // Durability.
        (
            "mrq_durable_datasets",
            Gauge,
            "Datasets currently backed by an on-disk store.",
            one(d.durable_datasets),
        ),
        (
            "mrq_recovered_datasets_total",
            Counter,
            "Datasets recovered from an existing store at registration time.",
            one(d.recovered_datasets),
        ),
        (
            "mrq_wal_batches_replayed_total",
            Counter,
            "WAL batches replayed across all recoveries.",
            one(d.wal_batches_replayed),
        ),
        (
            "mrq_wal_torn_bytes_discarded_total",
            Counter,
            "Torn WAL tail bytes discarded across all recoveries.",
            one(d.torn_bytes_discarded),
        ),
        (
            "mrq_recovery_pages_read_total",
            Counter,
            "Real 4 KiB pages read from disk during recovery.",
            one(d.recovery_pages_read),
        ),
        (
            "mrq_wal_appends_total",
            Counter,
            "Update batches appended (and fsynced) to write-ahead logs.",
            one(d.wal_appends),
        ),
        (
            "mrq_wal_appended_bytes_total",
            Counter,
            "Bytes appended to write-ahead logs.",
            one(d.wal_appended_bytes),
        ),
        (
            "mrq_checkpoints_total",
            Counter,
            "Checkpoints taken (snapshot rewrite + WAL truncation).",
            one(d.checkpoints),
        ),
        // Standing queries.
        (
            "mrq_subscriptions_active",
            Gauge,
            "Currently registered subscriptions.",
            one(s.active),
        ),
        (
            "mrq_subscription_deltas_triaged_total",
            Counter,
            "Delta records examined by the subscription triage pass.",
            one(s.deltas_triaged),
        ),
        (
            "mrq_subscription_unaffected_skips_total",
            Counter,
            "Deltas certified unaffected without touching the index.",
            one(s.unaffected_skips),
        ),
        (
            "mrq_subscription_partial_repairs_total",
            Counter,
            "Deltas resolved by an arithmetic rank shift.",
            one(s.partial_repairs),
        ),
        (
            "mrq_subscription_full_reevals_total",
            Counter,
            "Full re-evaluations forced by a delta crossing a resident region.",
            one(s.full_reevals),
        ),
        // Overload control and exactly-once retries.
        (
            "mrq_connections_shed_total",
            Counter,
            "Connections rejected at accept time with a retryable busy frame.",
            one(r.connections_shed),
        ),
        (
            "mrq_idle_disconnects_total",
            Counter,
            "Connections cut for holding a partial frame past the idle timeout.",
            one(r.idle_disconnects),
        ),
        (
            "mrq_slow_consumer_disconnects_total",
            Counter,
            "Subscriber connections cut because a NOTIFY write failed or stalled.",
            one(r.slow_consumer_disconnects),
        ),
        (
            "mrq_update_dedup_hits_total",
            Counter,
            "Retried updates answered from the request-id dedup window.",
            one(r.update_dedup_hits),
        ),
        (
            "mrq_dataset_degraded",
            Gauge,
            "1 when the dataset is in degraded (read-only) mode after a storage failure.",
            degraded,
        ),
    ];
    rows.into_iter()
        .map(|(name, kind, help, samples)| Family {
            name: name.into(),
            kind,
            help: help.into(),
            samples,
        })
        .collect()
}

/// Renders the full Prometheus exposition text for one stats snapshot.
pub fn render_metrics(stats: &ServiceStats) -> String {
    render(&families(stats))
}

/// Renders families as exposition text, in the order given.
fn render(families: &[Family]) -> String {
    let mut e = Exposition::new();
    for family in families {
        e.family(&family.name, family.kind, &family.help);
        for (dataset, value) in &family.samples {
            e.sample(&family.name, dataset.as_deref(), *value);
        }
    }
    e.out
}

/// Incremental writer for one exposition document.
struct Exposition {
    out: String,
}

impl Exposition {
    fn new() -> Self {
        Self { out: String::new() }
    }

    /// Starts a metric family: `# HELP` + `# TYPE` lines.
    fn family(&mut self, name: &str, kind: Kind, help: &str) {
        let _ = writeln!(self.out, "# HELP {name} {help}");
        let _ = writeln!(self.out, "# TYPE {name} {}", kind.as_str());
    }

    /// One sample, labelled with the dataset name when it has one.
    /// `u64::Display` keeps the value integer-exact.
    fn sample(&mut self, name: &str, dataset: Option<&str>, value: u64) {
        write_series(&mut self.out, name, dataset);
        let _ = writeln!(self.out, " {value}");
    }
}

/// Writes a series name: `name` or `name{dataset="…"}`.
fn write_series(out: &mut String, name: &str, dataset: Option<&str>) {
    out.push_str(name);
    let Some(dataset) = dataset else {
        return;
    };
    out.push_str("{dataset=\"");
    // Label-value escaping per the exposition format: backslash, quote and
    // newline.
    for c in dataset.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out.push_str("\"}");
}

/// A parsed exposition document: the families in document order, every
/// value an exact `u64`.  This is what `Client::stats` returns.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// The families, in document order.
    pub families: Vec<Family>,
}

impl MetricsSnapshot {
    /// Parses the text [`render_metrics`] writes.  Every sample must follow its
    /// family's `# HELP` and `# TYPE` lines, carry at most a `dataset`
    /// label, and have an unsigned integer value.
    pub fn parse(text: &str) -> Result<MetricsSnapshot, String> {
        let mut families: Vec<Family> = Vec::new();
        let mut help: Option<(&str, &str)> = None;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# HELP ") {
                help = Some(rest.split_once(' ').unwrap_or((rest, "")));
            } else if let Some(rest) = line.strip_prefix("# TYPE ") {
                let (name, kind) = rest
                    .split_once(' ')
                    .ok_or_else(|| format!("malformed TYPE line '{line}'"))?;
                let kind = [Kind::Counter, Kind::Gauge]
                    .into_iter()
                    .find(|k| k.as_str() == kind)
                    .ok_or_else(|| format!("unsupported metric type '{kind}'"))?;
                let help = match help.take() {
                    Some((help_name, help)) if help_name == name => help,
                    _ => return Err(format!("TYPE of '{name}' without its HELP")),
                };
                families.push(Family {
                    name: name.into(),
                    kind,
                    help: help.into(),
                    samples: Vec::new(),
                });
            } else if !line.is_empty() && !line.starts_with('#') {
                let (name, dataset, value) = parse_sample(line)?;
                match families.last_mut() {
                    Some(family) if family.name == name => family.samples.push((dataset, value)),
                    _ => return Err(format!("sample of '{name}' outside its family")),
                }
            }
        }
        Ok(MetricsSnapshot { families })
    }

    /// The value of an unlabelled family.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.find(name, None)
    }

    /// The value of a per-dataset family for one dataset.
    pub fn get_for(&self, name: &str, dataset: &str) -> Option<u64> {
        self.find(name, Some(dataset))
    }

    fn find(&self, name: &str, dataset: Option<&str>) -> Option<u64> {
        self.families
            .iter()
            .find(|f| f.name == name)?
            .samples
            .iter()
            .find(|(label, _)| label.as_deref() == dataset)
            .map(|&(_, value)| value)
    }

    /// Every sample in document order as `(series, value, help)`, with the
    /// series spelled as in the exposition text.
    pub fn samples(&self) -> impl Iterator<Item = (String, u64, &str)> + '_ {
        self.families.iter().flat_map(|family| {
            family.samples.iter().map(move |(dataset, value)| {
                let mut series = String::new();
                write_series(&mut series, &family.name, dataset.as_deref());
                (series, *value, family.help.as_str())
            })
        })
    }
}

/// Splits one sample line into its family name, dataset label and value.
fn parse_sample(line: &str) -> Result<(&str, Option<String>, u64), String> {
    let bad = || format!("malformed sample line '{line}'");
    let (series, value) = line.rsplit_once(' ').ok_or_else(bad)?;
    let value = value.parse().map_err(|_| bad())?;
    let Some((name, labels)) = series.split_once('{') else {
        return Ok((series, None, value));
    };
    let escaped = labels
        .strip_prefix("dataset=\"")
        .and_then(|l| l.strip_suffix("\"}"))
        .ok_or_else(bad)?;
    let mut dataset = String::with_capacity(escaped.len());
    let mut chars = escaped.chars();
    while let Some(c) = chars.next() {
        match c {
            '\\' => match chars.next() {
                Some('\\') => dataset.push('\\'),
                Some('"') => dataset.push('"'),
                Some('n') => dataset.push('\n'),
                _ => return Err(bad()),
            },
            '"' => return Err(bad()),
            c => dataset.push(c),
        }
    }
    Ok((name, Some(dataset), value))
}

/// The budget a scrape gets to deliver its whole request head.
const SCRAPE_BUDGET: Duration = Duration::from_secs(2);

/// The longest request line or header line a scrape may send.
const MAX_HEAD_LINE: u64 = 8192;

/// A minimal HTTP listener serving `GET /metrics` scrapes for one service.
///
/// Bind it to a loopback address next to the protocol port (what
/// `maxrank-serve --metrics-port` does); stop it with
/// [`MetricsServer::shutdown`].
#[derive(Debug)]
pub struct MetricsServer {
    addr: SocketAddr,
    flag: Arc<AtomicBool>,
    /// The scrape being served, so shutdown can cut a stalled one.
    scrape: Arc<Mutex<Option<TcpStream>>>,
    accept: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl MetricsServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts answering scrapes.
    pub fn start(
        service: Arc<MrqService>,
        addr: impl ToSocketAddrs,
    ) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let flag = Arc::new(AtomicBool::new(false));
        let scrape = Arc::new(Mutex::new(None));
        let accept = {
            let flag = Arc::clone(&flag);
            let scrape = Arc::clone(&scrape);
            std::thread::Builder::new()
                .name("mrq-metrics".into())
                .spawn(move || {
                    for stream in listener.incoming() {
                        let Ok(stream) = stream else {
                            if flag.load(Ordering::SeqCst) {
                                break;
                            }
                            std::thread::sleep(Duration::from_millis(50));
                            continue;
                        };
                        // The flag is read under the slot's lock, so a
                        // shutdown either stops the loop here or finds the
                        // scrape in the slot and cuts it.
                        {
                            let mut slot = lock_or_recover(&scrape);
                            if flag.load(Ordering::SeqCst) {
                                break;
                            }
                            *slot = stream.try_clone().ok();
                        }
                        // One scrape at a time: render + write, then close.
                        let _ = serve_scrape(stream, &service);
                        *lock_or_recover(&scrape) = None;
                    }
                })?
        };
        Ok(MetricsServer {
            addr,
            flag,
            scrape,
            accept: Mutex::new(Some(accept)),
        })
    }

    /// The bound address (bind port 0 for an ephemeral one).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the listener, cuts the scrape in flight and joins the accept
    /// thread.  Idempotent.
    pub fn shutdown(&self) {
        if !self.flag.swap(true, Ordering::SeqCst) {
            if let Some(stream) = lock_or_recover(&self.scrape).as_ref() {
                let _ = stream.shutdown(Shutdown::Both);
            }
            // Poke the accept loop awake so it observes the flag.
            let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        }
        if let Some(handle) = lock_or_recover(&self.accept).take() {
            let _ = handle.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Reads one line of a request head, `None` at EOF or past
/// [`MAX_HEAD_LINE`] bytes.
fn read_head_line(reader: &mut impl BufRead) -> std::io::Result<Option<String>> {
    let mut line = String::new();
    reader.take(MAX_HEAD_LINE).read_line(&mut line)?;
    Ok(line.ends_with('\n').then_some(line))
}

/// Answers one HTTP exchange: reads the request head, writes one response,
/// closes.  Malformed, oversized or slow requests are dropped without an
/// answer.
fn serve_scrape(stream: TcpStream, service: &Arc<MrqService>) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(DeadlineStream::new(
        stream,
        Some(Instant::now() + SCRAPE_BUDGET),
    ));
    let Some(request_line) = read_head_line(&mut reader)? else {
        return Ok(());
    };
    // Drain the header block (best effort — `Connection: close` semantics).
    while let Ok(Some(line)) = read_head_line(&mut reader) {
        if line == "\r\n" || line == "\n" {
            break;
        }
    }
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let (status, body) = if method == "GET" && (path == "/metrics" || path == "/") {
        ("200 OK", render_metrics(&service.stats()))
    } else {
        ("404 Not Found", "not found: scrape GET /metrics\n".into())
    };
    write_response(&mut writer, status, &body)
}

/// Writes one HTTP/1.0 response with a single `write_all`, so it leaves as
/// one segment rather than one per formatted piece.
fn write_response(w: &mut impl Write, status: &str, body: &str) -> std::io::Result<()> {
    let response = format!(
        "HTTP/1.0 {status}\r\nContent-Type: {METRICS_CONTENT_TYPE}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    w.write_all(response.as_bytes())?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheStats;
    use crate::pool::PoolStats;
    use crate::querystats::DatasetQueryStats;
    use crate::registry::{DatasetRegistry, DatasetSpec, DurabilityStats};
    use crate::service::{MrqService, ServiceConfig};
    use crate::subscriptions::SubscriptionStats;
    use std::io::Read;

    fn synthetic_stats() -> ServiceStats {
        ServiceStats {
            cache: CacheStats {
                hits: 3,
                misses: 2,
                evictions: 1,
                evictions_stale: 4,
                carried: 6,
                len: 5,
                capacity: 128,
            },
            pool: PoolStats {
                workers: 4,
                queue_capacity: 256,
                queue_depth: 1,
                executed: 42,
                timed_out: 2,
            },
            datasets: vec!["demo".into()],
            per_dataset: vec![DatasetQueryStats {
                dataset: "demo".into(),
                queries: 10,
                cache_hits: 3,
                cpu_us: 12345,
                io_reads: 678,
                cells_tested: 90,
                lp_calls: 55,
                witness_hits: 35,
            }],
            durability: DurabilityStats {
                durable_datasets: 1,
                recovered_datasets: 1,
                wal_batches_replayed: 2,
                torn_bytes_discarded: 17,
                recovery_pages_read: 9,
                wal_appends: 5,
                wal_appended_bytes: 4096,
                checkpoints: 1,
            },
            subscriptions: SubscriptionStats {
                active: 2,
                deltas_triaged: 8,
                unaffected_skips: 5,
                partial_repairs: 2,
                full_reevals: 1,
            },
            reliability: crate::service::ReliabilityStats {
                connections_shed: 6,
                idle_disconnects: 2,
                update_dedup_hits: 3,
                slow_consumer_disconnects: 4,
            },
            degraded: vec!["demo".into()],
        }
    }

    #[test]
    fn renders_every_counter_family() {
        let text = render_metrics(&synthetic_stats());
        for family in [
            "mrq_cache_hits_total 3",
            "mrq_cache_misses_total 2",
            "mrq_cache_evictions_total 1",
            "mrq_cache_evictions_stale_total 4",
            "mrq_cache_carried_total 6",
            "mrq_cache_entries 5",
            "mrq_cache_capacity 128",
            "mrq_pool_workers 4",
            "mrq_pool_queue_capacity 256",
            "mrq_pool_queue_depth 1",
            "mrq_pool_jobs_executed_total 42",
            "mrq_pool_jobs_timed_out_total 2",
            "mrq_dataset_queries_total{dataset=\"demo\"} 10",
            "mrq_dataset_cache_hits_total{dataset=\"demo\"} 3",
            "mrq_dataset_cpu_microseconds_total{dataset=\"demo\"} 12345",
            "mrq_dataset_io_reads_total{dataset=\"demo\"} 678",
            "mrq_dataset_cells_tested_total{dataset=\"demo\"} 90",
            "mrq_dataset_lp_calls_total{dataset=\"demo\"} 55",
            "mrq_dataset_witness_hits_total{dataset=\"demo\"} 35",
            "mrq_durable_datasets 1",
            "mrq_recovered_datasets_total 1",
            "mrq_wal_batches_replayed_total 2",
            "mrq_wal_torn_bytes_discarded_total 17",
            "mrq_recovery_pages_read_total 9",
            "mrq_wal_appends_total 5",
            "mrq_wal_appended_bytes_total 4096",
            "mrq_checkpoints_total 1",
            "mrq_subscriptions_active 2",
            "mrq_subscription_deltas_triaged_total 8",
            "mrq_subscription_unaffected_skips_total 5",
            "mrq_subscription_partial_repairs_total 2",
            "mrq_subscription_full_reevals_total 1",
            "mrq_connections_shed_total 6",
            "mrq_idle_disconnects_total 2",
            "mrq_slow_consumer_disconnects_total 4",
            "mrq_update_dedup_hits_total 3",
            "mrq_dataset_degraded{dataset=\"demo\"} 1",
        ] {
            assert!(text.contains(&format!("\n{family}\n")), "missing: {family}");
        }
        // Every sample line is preceded by HELP/TYPE metadata for its family.
        for line in text.lines() {
            if let Some(name) = line.strip_suffix(|c: char| c.is_ascii_digit()) {
                let name = name.split(['{', ' ']).next().unwrap();
                assert!(
                    text.contains(&format!("# TYPE {name} ")),
                    "no TYPE for {name}"
                );
            }
        }
    }

    /// The bug this endpoint exists to avoid: u64 counters pushed through
    /// the JSON f64 path lose exactness past 2^53.  The exposition text must
    /// carry the exact integer.
    #[test]
    fn counters_past_2_pow_53_stay_integer_exact() {
        let big = (1u64 << 53) + 1; // 9007199254740993; as f64 it rounds to ...992
        let mut stats = synthetic_stats();
        stats.pool.executed = big;
        stats.durability.wal_appended_bytes = u64::MAX;
        let text = render_metrics(&stats);
        assert!(
            text.contains("mrq_pool_jobs_executed_total 9007199254740993\n"),
            "2^53+1 must not round: {text}"
        );
        assert!(text.contains(&format!("mrq_wal_appended_bytes_total {}\n", u64::MAX)));
        // Demonstrate the f64 rounding the text path avoids.
        assert_eq!((big as f64) as u64, big - 1);
    }

    #[test]
    fn dataset_labels_are_escaped() {
        let mut stats = synthetic_stats();
        stats.per_dataset[0].dataset = "we\"ird\\name\n".into();
        let text = render_metrics(&stats);
        assert!(
            text.contains("mrq_dataset_queries_total{dataset=\"we\\\"ird\\\\name\\n\"} 10"),
            "{text}"
        );
    }

    #[test]
    fn parse_inverts_render() {
        let mut stats = synthetic_stats();
        let odd = "we\"ird\\name\n} 7";
        stats.per_dataset[0].dataset = odd.into();
        let text = render_metrics(&stats);
        let snapshot = MetricsSnapshot::parse(&text).unwrap();
        assert_eq!(snapshot.families, families(&stats));
        assert_eq!(render(&snapshot.families), text);
        assert_eq!(snapshot.get_for("mrq_dataset_queries_total", odd), Some(10));
        assert_eq!(snapshot.get("mrq_cache_hits_total"), Some(3));
        assert_eq!(snapshot.get("mrq_dataset_queries_total"), None);
        assert_eq!(snapshot.get("mrq_no_such_family"), None);
    }

    #[test]
    fn samples_spell_series_as_the_exposition_does() {
        let text = render_metrics(&synthetic_stats());
        let snapshot = MetricsSnapshot::parse(&text).unwrap();
        let samples: Vec<_> = snapshot.samples().collect();
        assert_eq!(
            samples.len(),
            text.lines().filter(|l| !l.starts_with('#')).count()
        );
        for (series, value, help) in samples {
            assert!(text.contains(&format!("\n{series} {value}\n")), "{series}");
            let name = series.split('{').next().unwrap();
            assert!(text.contains(&format!("# HELP {name} {help}\n")), "{name}");
        }
    }

    #[test]
    fn parse_rejects_malformed_text() {
        let family = "# HELP mrq_x h\n# TYPE mrq_x counter\n";
        for bad in [
            "mrq_x 1\n".to_string(),
            "# TYPE mrq_x counter\n".into(),
            "# HELP mrq_x h\n# TYPE mrq_x histogram\n".into(),
            "# HELP mrq_y h\n# TYPE mrq_x counter\n".into(),
            format!("{family}mrq_y 1\n"),
            format!("{family}mrq_x -1\n"),
            format!("{family}mrq_x 1.5\n"),
            format!("{family}mrq_x 18446744073709551616\n"),
            format!("{family}mrq_x{{shard=\"a\"}} 1\n"),
            format!("{family}mrq_x{{dataset=\"a\\q\"}} 1\n"),
            format!("{family}mrq_x{{dataset=\"a\"b\"}} 1\n"),
        ] {
            assert!(MetricsSnapshot::parse(&bad).is_err(), "accepted: {bad:?}");
        }
    }

    fn demo_service() -> Arc<MrqService> {
        let registry = Arc::new(DatasetRegistry::new());
        registry.register("demo", &DatasetSpec::Demo).unwrap();
        Arc::new(MrqService::new(
            registry,
            ServiceConfig {
                workers: 2,
                ..ServiceConfig::default()
            },
        ))
    }

    fn http_get(addr: SocketAddr, path: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut reply = String::new();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.read_to_string(&mut reply).unwrap();
        reply
    }

    #[test]
    fn the_scrape_response_is_one_write() {
        let body = render_metrics(&synthetic_stats());
        let mut w = crate::protocol::CountingWriter::default();
        write_response(&mut w, "200 OK", &body).unwrap();
        assert_eq!(w.writes, 1);
        let expected = format!(
            "HTTP/1.0 200 OK\r\nContent-Type: {METRICS_CONTENT_TYPE}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        );
        assert_eq!(w.bytes, expected.as_bytes());
    }

    #[test]
    fn http_scrape_roundtrip_and_404() {
        let service = demo_service();
        let server = MetricsServer::start(Arc::clone(&service), "127.0.0.1:0").unwrap();
        let reply = http_get(server.local_addr(), "/metrics");
        assert!(reply.starts_with("HTTP/1.0 200 OK\r\n"), "{reply}");
        assert!(reply.contains("Content-Type: text/plain; version=0.0.4"));
        assert!(reply.contains("mrq_pool_workers 2"));
        let missing = http_get(server.local_addr(), "/nope");
        assert!(
            missing.starts_with("HTTP/1.0 404 Not Found\r\n"),
            "{missing}"
        );
        server.shutdown();
        // Idempotent.
        server.shutdown();
    }

    #[test]
    fn endless_request_line_is_cut_not_buffered() {
        // A request line that never ends must be dropped at the line cap,
        // not buffered for as long as the peer keeps sending.
        const CAP: usize = 64 << 20;
        let server = MetricsServer::start(demo_service(), "127.0.0.1:0").unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .set_write_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let chunk = vec![b'a'; 64 << 10];
        let mut sent = 0;
        let err = loop {
            assert!(sent < CAP, "the server buffered {sent} bytes of one line");
            match stream.write_all(&chunk) {
                Ok(()) => sent += chunk.len(),
                Err(e) => break e,
            }
        };
        assert!(
            !matches!(
                err.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ),
            "the server stalled instead of closing: {err}"
        );
        server.shutdown();
    }

    #[test]
    fn shutdown_does_not_wait_for_a_stalled_scrape() {
        let server = MetricsServer::start(demo_service(), "127.0.0.1:0").unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.write_all(b"GET /met").unwrap();
        std::thread::sleep(Duration::from_millis(50));
        let start = Instant::now();
        server.shutdown();
        assert!(
            start.elapsed() < Duration::from_millis(500),
            "shutdown waited {:?} on the stalled scrape",
            start.elapsed()
        );
    }

    #[test]
    fn scrape_reflects_served_queries() {
        let service = demo_service();
        let server = MetricsServer::start(Arc::clone(&service), "127.0.0.1:0").unwrap();
        let before = http_get(server.local_addr(), "/metrics");
        assert!(before.contains("mrq_pool_jobs_executed_total 0"));
        let request = crate::service::QueryRequest::new("demo", 5);
        service.query(&request).unwrap();
        let after = http_get(server.local_addr(), "/metrics");
        assert!(after.contains("mrq_pool_jobs_executed_total 1"), "{after}");
        assert!(after.contains("mrq_dataset_queries_total{dataset=\"demo\"} 1"));
        server.shutdown();
    }
}
