//! Standing MaxRank queries: the `SUBSCRIBE`/`NOTIFY` subsystem.
//!
//! A subscription pins one focal record's full [`MaxRankResult`] resident in
//! the service.  Instead of recomputing on the next query after every
//! `UPDATE` (the request/response model), the service *maintains* the
//! resident result under update batches with the delta-triage pass of
//! [`mrq_core::maintain`]: each delta record is classified by dominance
//! tests and dot products against the retained region boxes into
//! *unaffected* (keep the result, bump the version stamp), *rank-shift-only*
//! (adjust `k*` and region orders arithmetically), or *re-enumerate* (re-run
//! the evaluation).  This module never evaluates: a re-enumeration calls
//! back into the service, which runs it as an ordinary pool query, so
//! co-subscribers share one evaluation through the result cache.  A failed
//! re-evaluation cancels the subscription.  Subscribers are told about
//! changes through per-connection [`NotifyMailbox`]es, which the update that
//! produced an event flushes to the socket as a server-push `NOTIFY` frame.
//!
//! Concurrency model: all subscriptions of one dataset sit behind one mutex
//! (see [`SubscriptionBook::dataset`]).  `MrqService::update` holds it from
//! *before* the registry apply until triage has queued its events, and
//! `MrqService::subscribe` holds it across the initial query and
//! registration.  No update can land while the lock is held, so every query
//! made under it answers at the version the subscription is stamped with.
//! Flushes happen after that lock is released; events are queued in lock
//! order and every flush writes the whole queue, so a subscription's
//! versions still arrive in order.

use crate::error::ServiceError;
use crate::protocol::{encode_frame, notify_payload};
use crate::registry::DatasetEntry;
use crate::service::QueryAnswer;
use crate::sync::lock_or_recover;
use mrq_core::maintain::{triage_batch, BatchTriage};
use mrq_core::{Algorithm, MaxRankResult};
use mrq_data::{RecordId, Update};
use std::collections::{HashMap, VecDeque};
use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// All subscriptions of one dataset, behind the lock that serializes
/// updates, triage and new registrations for that dataset.
pub type DatasetSubscriptions = Arc<Mutex<Vec<Arc<Subscription>>>>;

/// Why a subscriber is being notified.
#[derive(Debug, Clone)]
pub enum NotifyKind {
    /// The maintained result changed; the carried result is exact at the
    /// event's version.
    Changed {
        /// The maintained result after the update batch.
        result: Arc<MaxRankResult>,
        /// The concrete algorithm maintaining the subscription.
        algorithm: Algorithm,
    },
    /// The subscription ended on the server side (its focal record was
    /// deleted, or its re-evaluation failed); no further notifications will
    /// follow.
    Cancelled {
        /// Human-readable explanation, forwarded verbatim to the client.
        reason: String,
    },
}

/// One server-push notification, queued on the owning connection's mailbox
/// until it is written out as a `NOTIFY` frame.
#[derive(Debug, Clone)]
pub struct NotifyEvent {
    /// Subscription id the event belongs to.
    pub subscription: u64,
    /// Dataset the subscription watches.
    pub dataset: String,
    /// Focal record id.
    pub focal: RecordId,
    /// Dataset version the event was produced at.
    pub version: u64,
    /// Change or cancellation.
    pub kind: NotifyKind,
}

/// How long a socket write may make no progress before it fails: a peer
/// that stops reading stalls a reply, or the update writing its `NOTIFY`,
/// for at most this long.
pub const WRITE_STALL_TIMEOUT: Duration = Duration::from_secs(1);

/// A per-connection queue of pending [`NotifyEvent`]s.  The update path
/// pushes under the dataset's subscription lock and flushes after releasing
/// it.  In process ([`NotifyMailbox::new`]) the events wait for
/// [`NotifyMailbox::drain`]; a server connection's mailbox
/// ([`NotifyMailbox::with_writer`]) writes them to the socket as `NOTIFY`
/// frames, never between a request and its reply.
#[derive(Debug, Default)]
pub struct NotifyMailbox {
    outbox: Mutex<Outbox>,
}

/// Everything one lock covers, so frames on a connection never interleave.
#[derive(Debug, Default)]
struct Outbox {
    queue: VecDeque<NotifyEvent>,
    /// The connection's write side; `None` in process.
    writer: Option<TcpStream>,
    /// A request has been read and its reply is not yet written.
    in_exchange: bool,
    /// A write failed: the socket is shut down and events are dropped from
    /// now on.
    cut: bool,
}

impl NotifyMailbox {
    /// Creates an empty in-process mailbox.
    pub fn new() -> Self {
        Self::default()
    }

    /// A connection's outbox, writing to `writer` with the
    /// [`WRITE_STALL_TIMEOUT`].
    pub fn with_writer(writer: TcpStream) -> std::io::Result<Self> {
        writer.set_write_timeout(Some(WRITE_STALL_TIMEOUT))?;
        let outbox = Outbox {
            writer: Some(writer),
            ..Outbox::default()
        };
        Ok(Self {
            outbox: Mutex::new(outbox),
        })
    }

    /// Queues one event (dropped once the connection has been cut).
    pub fn push(&self, event: NotifyEvent) {
        let mut outbox = lock_or_recover(&self.outbox);
        if !outbox.cut {
            outbox.queue.push_back(event);
        }
    }

    /// Takes every pending event, oldest first.
    pub fn drain(&self) -> Vec<NotifyEvent> {
        lock_or_recover(&self.outbox).queue.drain(..).collect()
    }

    /// Marks a request as read: events stay queued until its reply is out.
    pub fn begin_exchange(&self) {
        lock_or_recover(&self.outbox).in_exchange = true;
    }

    /// Writes `reply`, ends the exchange, then writes the events queued
    /// meanwhile.
    pub fn finish_exchange(&self, reply: &str) -> std::io::Result<()> {
        let mut outbox = lock_or_recover(&self.outbox);
        outbox.in_exchange = false;
        outbox.send(Some(reply))
    }

    /// Writes every queued event now, unless an exchange is in progress
    /// (its [`NotifyMailbox::finish_exchange`] writes them).
    pub fn flush(&self) -> std::io::Result<()> {
        let mut outbox = lock_or_recover(&self.outbox);
        if outbox.in_exchange {
            return Ok(());
        }
        outbox.send(None)
    }
}

impl Outbox {
    /// Writes `reply`, if any, then every queued event.  A failed write cuts
    /// the connection: the socket is shut down, so its connection thread
    /// reads EOF and unregisters its subscriptions, and queued and later
    /// events are dropped.  Only the write that cuts returns the error.
    fn send(&mut self, reply: Option<&str>) -> std::io::Result<()> {
        let Some(writer) = self.writer.as_mut() else {
            return Ok(()); // in process the events wait for `drain`
        };
        let written = write_frames(writer, reply, &mut self.queue);
        if written.is_err() {
            let _ = writer.shutdown(Shutdown::Both);
            self.writer = None;
            self.queue.clear();
            self.cut = true;
        }
        written
    }
}

/// Encodes `reply`, if any, and then every event of `queue` (emptying it)
/// into one buffer and writes it with a single `write_all`, so a reply and
/// the `NOTIFY`s behind it leave together.  Writes nothing when there is
/// nothing to send.
fn write_frames(
    writer: &mut impl Write,
    reply: Option<&str>,
    queue: &mut VecDeque<NotifyEvent>,
) -> std::io::Result<()> {
    let mut frames = Vec::new();
    if let Some(reply) = reply {
        encode_frame(&mut frames, reply);
    }
    for event in queue.drain(..) {
        encode_frame(&mut frames, &notify_payload(&event));
    }
    if frames.is_empty() {
        return Ok(());
    }
    writer.write_all(&frames)
}

/// Mutable part of a subscription: the resident result and the dataset
/// version it is exact for.
#[derive(Debug)]
struct SubscriptionState {
    result: Arc<MaxRankResult>,
    version: u64,
}

/// One standing query: a focal record whose MaxRank result the service
/// keeps resident and maintains under updates.
#[derive(Debug)]
pub struct Subscription {
    id: u64,
    dataset: String,
    focal: RecordId,
    /// Concrete (resolved) algorithm used for initial evaluation and every
    /// re-enumeration.
    algorithm: Algorithm,
    tau: usize,
    state: Mutex<SubscriptionState>,
    mailbox: Arc<NotifyMailbox>,
}

impl Subscription {
    /// Server-assigned subscription id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Dataset the subscription watches.
    pub fn dataset(&self) -> &str {
        &self.dataset
    }

    /// Focal record id.
    pub fn focal(&self) -> RecordId {
        self.focal
    }

    /// Concrete algorithm maintaining the subscription.
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// iMaxRank slack.
    pub fn tau(&self) -> usize {
        self.tau
    }

    /// The resident result and the dataset version it is exact for.
    pub fn snapshot(&self) -> (Arc<MaxRankResult>, u64) {
        let state = lock_or_recover(&self.state);
        (Arc::clone(&state.result), state.version)
    }

    /// Queues one event for this subscription on its mailbox.
    fn notify(&self, version: u64, kind: NotifyKind) {
        self.mailbox.push(NotifyEvent {
            subscription: self.id,
            dataset: self.dataset.clone(),
            focal: self.focal,
            version,
            kind,
        });
    }
}

/// Counter snapshot exported through the `metrics` verb.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SubscriptionStats {
    /// Currently registered subscriptions.
    pub active: u64,
    /// Delta records examined by the triage pass (one delta affecting two
    /// subscriptions counts twice).
    pub deltas_triaged: u64,
    /// Deltas certified unaffected: the resident result was kept without
    /// touching the index.
    pub unaffected_skips: u64,
    /// Deltas resolved by an arithmetic rank shift (no enumeration either).
    pub partial_repairs: u64,
    /// Re-evaluations requested because a delta's half-space could cross a
    /// resident region (or a delete could promote an outside cell); each is
    /// one pool query, which co-subscribers may answer from the cache.
    pub full_reevals: u64,
}

/// Registry of all standing queries, grouped per dataset, plus the triage
/// counters.
#[derive(Debug, Default)]
pub struct SubscriptionBook {
    datasets: Mutex<HashMap<String, DatasetSubscriptions>>,
    next_id: AtomicU64,
    active: AtomicU64,
    deltas_triaged: AtomicU64,
    unaffected_skips: AtomicU64,
    partial_repairs: AtomicU64,
    full_reevals: AtomicU64,
}

impl SubscriptionBook {
    /// Creates an empty book.
    pub fn new() -> Self {
        Self::default()
    }

    /// The subscription list (and lock) of one dataset, created on demand.
    pub fn dataset(&self, name: &str) -> DatasetSubscriptions {
        let mut datasets = lock_or_recover(&self.datasets);
        Arc::clone(datasets.entry(name.to_string()).or_default())
    }

    /// Creates a subscription to `focal` at `tau` holding `answer`, the
    /// answer to its initial query.  The caller must push it into the
    /// dataset's list while still holding the lock it queried under.
    pub fn create(
        &self,
        dataset: &str,
        focal: RecordId,
        tau: usize,
        answer: QueryAnswer,
        mailbox: Arc<NotifyMailbox>,
    ) -> Arc<Subscription> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        self.active.fetch_add(1, Ordering::Relaxed);
        Arc::new(Subscription {
            id,
            dataset: dataset.to_string(),
            focal,
            algorithm: answer.algorithm,
            tau,
            state: Mutex::new(SubscriptionState {
                result: answer.result,
                version: answer.version,
            }),
            mailbox,
        })
    }

    /// Removes the subscription with `id`.  Returns whether it existed.
    pub fn remove(&self, id: u64) -> bool {
        let datasets = lock_or_recover(&self.datasets);
        for subs in datasets.values() {
            let mut subs = lock_or_recover(subs);
            if let Some(pos) = subs.iter().position(|s| s.id == id) {
                subs.remove(pos);
                self.active.fetch_sub(1, Ordering::Relaxed);
                return true;
            }
        }
        false
    }

    /// Removes every subscription registered through `mailbox` (the owning
    /// connection is going away).  Returns how many were dropped.
    pub fn remove_mailbox(&self, mailbox: &Arc<NotifyMailbox>) -> usize {
        let datasets = lock_or_recover(&self.datasets);
        let mut dropped = 0usize;
        for subs in datasets.values() {
            let mut subs = lock_or_recover(subs);
            let before = subs.len();
            subs.retain(|s| !Arc::ptr_eq(&s.mailbox, mailbox));
            dropped += before - subs.len();
        }
        self.active.fetch_sub(dropped as u64, Ordering::Relaxed);
        dropped
    }

    /// Maintains every subscription in `subs` across one applied update
    /// batch.  `entry` is the post-apply snapshot.  The caller holds the
    /// dataset's subscription lock (the same one it held across the registry
    /// apply), and `reevaluate` queries one subscription at that snapshot.
    ///
    /// Per subscription: the batch is triaged by
    /// [`mrq_core::maintain::triage_batch`], the rule the result cache
    /// carries its entries by too; the first delta that requires
    /// enumeration subsumes the rest of the batch in a single call to
    /// `reevaluate`.
    /// Changed results are pushed to the owning mailbox; an unaffected batch
    /// only moves the version stamp and pushes nothing.  Subscriptions whose
    /// focal record the batch deleted, or whose re-evaluation failed, are
    /// cancelled (with a final cancellation event) and removed.  Returns the
    /// subscribers' mailboxes, for the caller to flush once it has released
    /// the lock.
    pub fn triage_batch(
        &self,
        subs: &mut Vec<Arc<Subscription>>,
        entry: &DatasetEntry,
        updates: &[Update],
        reevaluate: impl Fn(&Subscription) -> Result<QueryAnswer, ServiceError>,
    ) -> Vec<Arc<NotifyMailbox>> {
        let mut mailboxes: Vec<Arc<NotifyMailbox>> =
            subs.iter().map(|sub| Arc::clone(&sub.mailbox)).collect();
        mailboxes.sort_by_key(Arc::as_ptr);
        mailboxes.dedup_by(|a, b| Arc::ptr_eq(a, b));
        let mut cancelled = 0usize;
        subs.retain(|sub| {
            let outcome = if entry.data().is_live(sub.focal) {
                self.maintain_one(sub, entry, updates, &reevaluate)
            } else {
                Err(format!("focal {} was deleted", sub.focal))
            };
            let Err(reason) = outcome else { return true };
            sub.notify(entry.version(), NotifyKind::Cancelled { reason });
            cancelled += 1;
            false
        });
        self.active.fetch_sub(cancelled as u64, Ordering::Relaxed);
        mailboxes
    }

    /// Triages the batch for one live subscription.  A failed re-evaluation
    /// leaves the result and its stamp untouched and returns the reason to
    /// cancel.
    fn maintain_one(
        &self,
        sub: &Subscription,
        entry: &DatasetEntry,
        updates: &[Update],
        reevaluate: impl Fn(&Subscription) -> Result<QueryAnswer, ServiceError>,
    ) -> Result<(), String> {
        let version = entry.version();
        let focal_row = entry.data().record(sub.focal);
        let mut state = lock_or_recover(&sub.state);
        let (verdict, tally) = triage_batch(&state.result, focal_row, updates, entry.data());
        self.deltas_triaged
            .fetch_add(tally.triaged, Ordering::Relaxed);
        self.unaffected_skips
            .fetch_add(tally.unaffected, Ordering::Relaxed);
        self.partial_repairs
            .fetch_add(tally.shifted, Ordering::Relaxed);
        let changed = match verdict {
            BatchTriage::Unaffected => None,
            BatchTriage::Shifted(result) => Some(Arc::new(result)),
            BatchTriage::ReEnumerate => {
                // One evaluation covers the whole batch.
                self.full_reevals.fetch_add(1, Ordering::Relaxed);
                let answer =
                    reevaluate(sub).map_err(|err| format!("re-evaluation failed: {err}"))?;
                debug_assert_eq!(answer.version, version);
                Some(answer.result)
            }
        };
        state.version = version;
        if let Some(result) = changed {
            state.result = Arc::clone(&result);
            let algorithm = sub.algorithm;
            sub.notify(version, NotifyKind::Changed { result, algorithm });
        }
        Ok(())
    }

    /// Counter snapshot.
    pub fn stats(&self) -> SubscriptionStats {
        SubscriptionStats {
            active: self.active.load(Ordering::Relaxed),
            deltas_triaged: self.deltas_triaged.load(Ordering::Relaxed),
            unaffected_skips: self.unaffected_skips.load(Ordering::Relaxed),
            partial_repairs: self.partial_repairs.load(Ordering::Relaxed),
            full_reevals: self.full_reevals.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{read_frame, write_frame, CountingWriter};
    use std::io::BufReader;
    use std::net::TcpListener;
    use std::time::Instant;

    /// An outbox over one end of a loopback connection, and the other end.
    fn outbox_and_peer() -> (NotifyMailbox, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (served, _) = listener.accept().unwrap();
        (NotifyMailbox::with_writer(served).unwrap(), peer)
    }

    fn cancelled(version: u64, reason: String) -> NotifyEvent {
        NotifyEvent {
            subscription: 1,
            dataset: "demo".into(),
            focal: 5,
            version,
            kind: NotifyKind::Cancelled { reason },
        }
    }

    #[test]
    fn notify_pushed_during_an_exchange_follows_its_reply() {
        let (mailbox, peer) = outbox_and_peer();
        mailbox.begin_exchange();
        mailbox.push(cancelled(1, "gone".into()));
        mailbox.flush().unwrap(); // held back: the exchange is open
        mailbox.finish_exchange("{\"ok\":true}").unwrap();
        let mut reader = BufReader::new(peer);
        let reply = read_frame(&mut reader).unwrap().expect("reply frame");
        assert_eq!(reply, "{\"ok\":true}");
        let notify = read_frame(&mut reader).unwrap().expect("NOTIFY frame");
        assert!(notify.contains("\"notify\":true"), "{notify}");
    }

    #[test]
    fn a_reply_and_its_queued_notifies_leave_in_one_write() {
        let mut queue: VecDeque<_> = (1..=3).map(|v| cancelled(v, format!("r{v}"))).collect();
        let mut expected = Vec::new();
        write_frame(&mut expected, "{\"ok\":true}").unwrap();
        for event in &queue {
            write_frame(&mut expected, &notify_payload(event)).unwrap();
        }
        let mut w = CountingWriter::default();
        write_frames(&mut w, Some("{\"ok\":true}"), &mut queue).unwrap();
        assert_eq!(w.writes, 1);
        assert_eq!(
            w.bytes, expected,
            "the bytes are those of frame-by-frame writes"
        );
        assert!(queue.is_empty());
        // Nothing to send: no write at all.
        write_frames(&mut w, None, &mut queue).unwrap();
        assert_eq!(w.writes, 1);
    }

    #[test]
    fn a_peer_that_never_reads_is_cut_and_later_events_are_dropped() {
        let (mailbox, _peer) = outbox_and_peer();
        // ≈ 20 MB of frames: far more than the loopback socket buffers hold.
        let reason = "x".repeat(1 << 20);
        for version in 1..=20 {
            mailbox.push(cancelled(version, reason.clone()));
        }
        let start = Instant::now();
        assert!(mailbox.flush().is_err(), "the stalled write must fail");
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "the cut took {:?}",
            start.elapsed()
        );
        mailbox.push(cancelled(21, "late".into()));
        assert!(mailbox.drain().is_empty());
        // Only the write that cut reports the error.
        assert!(mailbox.flush().is_ok());
    }
}
