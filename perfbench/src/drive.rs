//! The load generator: open-loop and closed-loop phases over TCP, a
//! subscriber connection that collects `NOTIFY` frames, and `/metrics`
//! scrapes.  One thread per connection; the caller keeps the total at two.

use crate::workload::{Op, DATASET};
use mrq_core::Algorithm;
use mrq_data::RecordId;
use mrq_service::{Client, Notification};
use std::collections::{BTreeMap, VecDeque};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A query answer as the client decoded it.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    /// The queried focal.
    pub focal: RecordId,
    /// Best attainable rank.
    pub k_star: usize,
    /// Number of result regions.
    pub regions: usize,
    /// Dataset version the answer was computed at.
    pub version: u64,
}

/// An acknowledged update batch.
#[derive(Debug, Clone, PartialEq)]
pub struct Ack {
    /// The inserted row.
    pub row: Vec<f64>,
    /// The record the batch deleted, if any.
    pub deleted: Option<RecordId>,
    /// Dataset version after the batch.
    pub version: u64,
    /// Id assigned to the inserted row.
    pub inserted: RecordId,
}

/// What one operation returned.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// A query answer.
    Answer(Answer),
    /// An update acknowledgement.
    Ack(Ack),
    /// An error or a refusal.
    Failed(String),
}

/// One issued operation.  Times are offsets from the phase epoch.
#[derive(Debug, Clone)]
pub struct Record {
    /// When the operation was due (its send time in a closed loop).
    pub due: Duration,
    /// When the request was actually written.
    pub sent: Duration,
    /// When the reply arrived.
    pub done: Duration,
    /// The reply.
    pub outcome: Outcome,
}

impl Record {
    /// Latency from the due time, milliseconds.
    pub fn latency_ms(&self) -> f64 {
        (self.done.saturating_sub(self.due)).as_secs_f64() * 1e3
    }

    /// How late the generator sent the request, milliseconds.
    pub fn late_ms(&self) -> f64 {
        (self.sent.saturating_sub(self.due)).as_secs_f64() * 1e3
    }
}

/// Rows the benchmark inserted and has not deleted yet, oldest first.
type Inserted = Mutex<VecDeque<RecordId>>;

/// One load connection.
struct Conn<'a> {
    client: Client,
    inserted: &'a Inserted,
}

impl<'a> Conn<'a> {
    fn open(addr: SocketAddr, inserted: &'a Inserted) -> Result<Conn<'a>, String> {
        let client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        Ok(Conn { client, inserted })
    }

    fn issue(&mut self, op: &Op) -> Outcome {
        match op {
            Op::Query(focal) => match self.client.query(DATASET, *focal) {
                Ok(r) => Outcome::Answer(Answer {
                    focal: *focal,
                    k_star: r.k_star,
                    regions: r.region_count,
                    version: r.version,
                }),
                Err(e) => Outcome::Failed(format!("query {focal}: {e}")),
            },
            Op::Update { row, delete_oldest } => {
                let mut inserted = self.inserted.lock().expect("inserted-row queue poisoned");
                let deleted = if *delete_oldest {
                    inserted.pop_front()
                } else {
                    None
                };
                let deletes: Vec<RecordId> = deleted.into_iter().collect();
                match self
                    .client
                    .update(DATASET, std::slice::from_ref(row), &deletes)
                {
                    Ok(reply) if reply.inserted.len() == 1 => {
                        inserted.push_back(reply.inserted[0]);
                        Outcome::Ack(Ack {
                            row: row.clone(),
                            deleted,
                            version: reply.version,
                            inserted: reply.inserted[0],
                        })
                    }
                    Ok(reply) => Outcome::Failed(format!(
                        "update acknowledged {} inserted ids",
                        reply.inserted.len()
                    )),
                    Err(e) => Outcome::Failed(format!("update: {e}")),
                }
            }
        }
    }
}

fn since(epoch: Instant) -> Duration {
    Instant::now().saturating_duration_since(epoch)
}

/// Runs an open loop: operation `i` is due at `epoch + i / rate` and goes
/// out on connection `i mod connections` no matter how earlier operations
/// fared, so a stall shows up as latency of the operations behind it.
///
/// Returns the records and the connections, still open: the server's
/// thread for a connection ends when it closes, and with it the CPU time
/// that thread spent, so the caller reads the server's counters first.
pub fn open_loop(
    addr: SocketAddr,
    ops: &[Op],
    rate: f64,
    connections: usize,
    epoch: Instant,
) -> Result<(Vec<Record>, Vec<Client>), String> {
    let inserted = &Inserted::default();
    let shards = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|t| {
                scope.spawn(move || -> Result<(Vec<Record>, Client), String> {
                    let mut conn = Conn::open(addr, inserted)?;
                    let mut out = Vec::with_capacity(ops.len() / connections + 1);
                    for (i, op) in ops.iter().enumerate().skip(t).step_by(connections) {
                        let due = Duration::from_secs_f64(i as f64 / rate);
                        let wait = (epoch + due).saturating_duration_since(Instant::now());
                        if !wait.is_zero() {
                            std::thread::sleep(wait);
                        }
                        let sent = since(epoch);
                        let outcome = conn.issue(op);
                        out.push(Record {
                            due,
                            sent,
                            done: since(epoch),
                            outcome,
                        });
                    }
                    Ok((out, conn.client))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect::<Result<Vec<_>, String>>()
    })?;
    // Each connection's records are in schedule order; updates only ever go
    // out on one connection, so their acknowledgements stay in order.
    let (records, clients): (Vec<Vec<Record>>, Vec<Client>) = shards.into_iter().unzip();
    Ok((records.into_iter().flatten().collect(), clients))
}

/// Sends every operation once from `clients` closed-loop clients (each
/// sends its next operation as soon as the previous one is answered).
pub fn closed_loop(addr: SocketAddr, ops: &[Op], clients: usize) -> Result<Vec<Record>, String> {
    let next = AtomicUsize::new(0);
    let inserted = &Inserted::default();
    let epoch = Instant::now();
    let shards = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let next = &next;
                scope.spawn(move || -> Result<Vec<Record>, String> {
                    let mut conn = Conn::open(addr, inserted)?;
                    let mut out = Vec::new();
                    while let Some(op) = ops.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let sent = since(epoch);
                        let outcome = conn.issue(op);
                        out.push(Record {
                            due: sent,
                            sent,
                            done: since(epoch),
                            outcome,
                        });
                    }
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect::<Result<Vec<_>, String>>()
    })?;
    Ok(shards.into_iter().flatten().collect())
}

/// A standing query's acknowledgement.
#[derive(Debug, Clone)]
pub struct Subscribed {
    /// Server-assigned id.
    pub id: u64,
    /// Focal record.
    pub focal: RecordId,
    /// Initial best rank.
    pub k_star: usize,
    /// Initial region count.
    pub regions: usize,
}

/// One received `NOTIFY` frame.
#[derive(Debug, Clone)]
pub struct Notice {
    /// Subscription it belongs to.
    pub id: u64,
    /// Version the carried result is exact for.
    pub version: u64,
    /// Best rank at that version.
    pub k_star: usize,
    /// Region count at that version.
    pub regions: usize,
    /// Arrival, as an offset from the phase epoch.
    pub at: Duration,
}

/// Opens the subscriber connection and registers one standing query per
/// focal.
pub fn subscribe(
    addr: SocketAddr,
    focals: &[RecordId],
) -> Result<(Client, Vec<Subscribed>), String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut subs = Vec::with_capacity(focals.len());
    for &focal in focals {
        let ack = client
            .subscribe(DATASET, focal, Algorithm::Auto, 0)
            .map_err(|e| format!("subscribe {focal}: {e}"))?;
        subs.push(Subscribed {
            id: ack.subscription,
            focal,
            k_star: ack.k_star,
            regions: ack.region_count,
        });
    }
    Ok((client, subs))
}

/// Reads `NOTIFY` frames until `stop` is set and returns them with the
/// connection, still open (see [`open_loop`]); a cancellation is an error
/// (the benchmark never deletes a subscribed focal).
pub fn listen(
    mut client: Client,
    epoch: Instant,
    stop: &AtomicBool,
) -> Result<(Vec<Notice>, Client), String> {
    let mut out = Vec::new();
    loop {
        match client.wait_notify(Some(Duration::from_millis(20))) {
            Ok(Some(Notification::Changed(r))) => out.push(Notice {
                id: r.subscription,
                version: r.version,
                k_star: r.k_star,
                regions: r.region_count,
                at: since(epoch),
            }),
            Ok(Some(Notification::Cancelled { reason, .. })) => {
                return Err(format!("subscription cancelled: {reason}"))
            }
            Ok(None) if stop.load(Ordering::Relaxed) => return Ok((out, client)),
            Ok(None) => {}
            Err(e) => return Err(format!("subscriber: {e}")),
        }
    }
}

/// Scrapes the `metrics` verb over a short-lived connection into
/// `series → value` (labels kept in the series name).
pub fn scrape(addr: SocketAddr) -> Result<BTreeMap<String, f64>, String> {
    let text = Client::connect(addr)
        .map_err(|e| e.to_string())
        .and_then(|mut c| c.metrics().map_err(|e| e.to_string()))
        .map_err(|e| format!("metrics scrape: {e}"))?;
    Ok(text
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (series, value) = l.rsplit_once(' ')?;
            Some((series.to_string(), value.parse().ok()?))
        })
        .collect())
}

/// `after − before` of one counter (0 when absent).
pub fn counter_delta(
    before: &BTreeMap<String, f64>,
    after: &BTreeMap<String, f64>,
    series: &str,
) -> f64 {
    after.get(series).copied().unwrap_or(0.0) - before.get(series).copied().unwrap_or(0.0)
}
