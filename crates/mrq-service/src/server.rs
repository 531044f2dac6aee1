//! The loopback TCP server: one accept thread, one thread per connection,
//! all funnelling into the shared [`MrqService`].
//!
//! Connection threads never evaluate queries themselves — they parse frames,
//! enqueue jobs on the bounded pool ([`MrqService::try_enqueue`], so a full
//! queue surfaces as a `queue full` error frame instead of unbounded
//! buffering) and write the answer back.  Sockets use a short read timeout
//! ([`ServerConfig::poll_interval`], 200 ms by default) so every connection
//! thread notices the shutdown flag within one tick even while idle, which
//! is what makes [`Server::shutdown`] able to *join* every thread instead of
//! abandoning them.  The same tick flushes queued `NOTIFY` frames to idle
//! connections; a connection that just completed an exchange gets its
//! notifications pushed immediately after the reply instead.

use crate::error::ServiceError;
use crate::protocol::{
    self, bye_payload, error_payload, list_payload, metrics_payload, notify_payload, pong_payload,
    query_payload, subscribed_payload, unsubscribed_payload, update_batch, update_payload,
    write_frame, Request,
};
use crate::service::{MrqService, QueryRequest};
use crate::subscriptions::NotifyMailbox;
use crate::sync::lock_or_recover;
use std::io::{BufRead, BufReader, Read};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How often the accept thread wakes up when no connection is pending, to
/// re-check the shutdown flag and reap finished connection threads.  Kept
/// small and independent of [`ServerConfig::poll_interval`] so a server
/// configured with a long poll interval still shuts down promptly.
const ACCEPT_TICK: Duration = Duration::from_millis(50);

/// The `retry_after_ms` hint attached to `server busy` / `overloaded`
/// rejections.  One connection-poll interval is the natural unit: by then the
/// server has had a chance to reap a finished connection or drain a queue
/// slot.
const RETRY_AFTER_MS: u64 = 100;

/// Tuning knobs for a [`Server`].
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// How often blocked connection reads wake up to re-check the shutdown
    /// flag and flush queued `NOTIFY` frames on otherwise idle connections.
    /// This bounds *idle-connection* push latency; notifications produced
    /// during an exchange on the same connection are pushed immediately
    /// after the reply, independent of this interval.
    pub poll_interval: Duration,
    /// Hard cap on concurrently served connections.  A connection arriving
    /// above the cap is *shed*: it receives a single retryable `server busy`
    /// error frame (with a `retry_after_ms` hint) and is closed, instead of
    /// being silently dropped or queueing without bound.
    pub max_connections: usize,
    /// How long a connection may hold a *partially read* frame before it is
    /// disconnected (the slow-loris defence).  The clock starts at the first
    /// byte of a frame and covers header and payload; a connection that is
    /// fully idle between frames (e.g. a subscriber waiting for pushes) is
    /// never reaped.  `None` disables the reaper.
    pub idle_timeout: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            poll_interval: Duration::from_millis(200),
            max_connections: 1024,
            idle_timeout: Some(Duration::from_secs(30)),
        }
    }
}

#[derive(Debug, Clone)]
struct ShutdownSignal {
    flag: Arc<AtomicBool>,
    addr: SocketAddr,
}

impl ShutdownSignal {
    fn is_set(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }

    /// Sets the flag and pokes the accept loop awake with a throwaway
    /// connection so it observes the flag immediately.
    fn trigger(&self) {
        if !self.flag.swap(true, Ordering::SeqCst) {
            let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        }
    }
}

/// A running server.  Obtain the bound address with [`Server::local_addr`]
/// (bind to port 0 for an ephemeral port), stop it with [`Server::shutdown`].
#[derive(Debug)]
pub struct Server {
    service: Arc<MrqService>,
    signal: ShutdownSignal,
    accept: Mutex<Option<std::thread::JoinHandle<()>>>,
    conns: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts accepting with the
    /// default [`ServerConfig`].
    pub fn start(service: Arc<MrqService>, addr: impl ToSocketAddrs) -> std::io::Result<Server> {
        Self::start_with(service, addr, ServerConfig::default())
    }

    /// Binds `addr` and starts accepting with explicit tuning knobs.
    pub fn start_with(
        service: Arc<MrqService>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let signal = ShutdownSignal {
            flag: Arc::new(AtomicBool::new(false)),
            addr: listener.local_addr()?,
        };
        let conns: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> = Arc::default();
        let accept = {
            let service = Arc::clone(&service);
            let signal = signal.clone();
            let conns = Arc::clone(&conns);
            std::thread::Builder::new()
                .name("mrq-accept".into())
                .spawn(move || accept_loop(&listener, &service, &signal, &conns, config))?
        };
        Ok(Server {
            service,
            signal,
            accept: Mutex::new(Some(accept)),
            conns,
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.signal.addr
    }

    /// The shared service (e.g. for in-process stats assertions in tests).
    pub fn service(&self) -> &Arc<MrqService> {
        &self.service
    }

    /// Asks the server to stop without waiting (what the `SHUTDOWN` command
    /// uses internally — a connection thread cannot join itself).
    pub fn trigger_shutdown(&self) {
        self.signal.trigger();
    }

    /// Blocks until the server has fully stopped: no accept thread, every
    /// connection thread joined, worker pool drained.  Does not *initiate*
    /// shutdown — combine with [`Server::trigger_shutdown`] or a client
    /// `SHUTDOWN` command.
    pub fn wait(&self) {
        if let Some(handle) = lock_or_recover(&self.accept).take() {
            let _ = handle.join();
        }
        loop {
            let handle = lock_or_recover(&self.conns).pop();
            match handle {
                Some(h) => {
                    let _ = h.join();
                }
                None => break,
            }
        }
        self.service.shutdown();
    }

    /// Graceful shutdown: trigger + wait.  Idempotent.
    pub fn shutdown(&self) {
        self.trigger_shutdown();
        self.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Decrements the live-connection count when a connection thread exits, no
/// matter how it exits (EOF, error, shutdown, panic unwinding).
struct ActiveGuard(Arc<AtomicUsize>);

impl Drop for ActiveGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Joins every finished connection thread so a long-lived server does not
/// accumulate zombie threads (an un-joined terminated thread keeps its stack
/// until joined).  Runs on every accept-loop tick — *not* only when a new
/// connection arrives — so the handle list shrinks even on a quiet server.
fn reap_finished(conns: &Mutex<Vec<std::thread::JoinHandle<()>>>) {
    let mut conns = lock_or_recover(conns);
    let mut i = 0;
    while i < conns.len() {
        if conns[i].is_finished() {
            let _ = conns.swap_remove(i).join();
        } else {
            i += 1;
        }
    }
}

/// Sheds one connection above the cap: writes a single retryable
/// `server busy` error frame and closes the stream.  Best-effort — the peer
/// may already be gone — but bounded: a short write timeout keeps a dead
/// peer from stalling the accept thread.
fn shed_connection(mut stream: TcpStream, service: &MrqService) {
    service.reliability().count_shed();
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let err = ServiceError::ServerBusy {
        retry_after_ms: RETRY_AFTER_MS,
    };
    let _ = write_frame(&mut stream, &error_payload(&err));
}

fn accept_loop(
    listener: &TcpListener,
    service: &Arc<MrqService>,
    signal: &ShutdownSignal,
    conns: &Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
    config: ServerConfig,
) {
    // Non-blocking accept with a short sleep tick: the same pass that polls
    // for new connections also reaps finished connection threads, so the
    // handle list cannot grow stale while the server is quiet.
    let active = Arc::new(AtomicUsize::new(0));
    if listener.set_nonblocking(true).is_err() {
        // Without non-blocking accept the loop cannot tick; fall back to
        // doing nothing rather than busy-spinning on a broken listener.
        return;
    }
    loop {
        if signal.is_set() {
            break;
        }
        reap_finished(conns);
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) if is_timeout(&e) => {
                std::thread::sleep(ACCEPT_TICK);
                continue;
            }
            Err(_) => {
                // Accept errors (EMFILE, ECONNABORTED, …) can persist; back
                // off instead of busy-spinning the accept thread at 100% CPU.
                std::thread::sleep(ACCEPT_TICK);
                continue;
            }
        };
        if signal.is_set() {
            break;
        }
        // Admission control happens *before* the thread spawn: the live
        // count is incremented here and decremented by the connection
        // thread's drop guard, so the cap is enforced even while threads
        // are still winding down.
        if active.load(Ordering::SeqCst) >= config.max_connections {
            shed_connection(stream, service);
            continue;
        }
        // Accepted sockets may inherit the listener's non-blocking flag on
        // some platforms; connection threads rely on blocking reads with a
        // read timeout.
        if stream.set_nonblocking(false).is_err() {
            continue;
        }
        active.fetch_add(1, Ordering::SeqCst);
        let guard = ActiveGuard(Arc::clone(&active));
        let service = Arc::clone(service);
        let signal = signal.clone();
        let handle = std::thread::Builder::new()
            .name("mrq-conn".into())
            .spawn(move || {
                let _guard = guard;
                let _ = serve_connection(stream, &service, &signal, config);
            });
        // On spawn failure the closure (and with it the guard) is dropped,
        // which already decrements the live count.
        if let Ok(handle) = handle {
            lock_or_recover(conns).push(handle);
        }
    }
}

/// Reads frames off one connection until EOF, error or shutdown, then
/// unregisters whatever the connection subscribed to.
fn serve_connection(
    stream: TcpStream,
    service: &Arc<MrqService>,
    signal: &ShutdownSignal,
    config: ServerConfig,
) -> std::io::Result<()> {
    // The connection's NOTIFY side-channel: the update path pushes events
    // here (from whatever thread applied the batch); only this connection
    // thread ever writes the socket, so frames never interleave.
    let mailbox = Arc::new(NotifyMailbox::new());
    let result = serve_frames(stream, service, signal, &mailbox, config);
    service.drop_subscriber(&mailbox);
    result
}

/// Writes every queued NOTIFY event of `mailbox` as a server-push frame.
fn drain_notifies(writer: &mut TcpStream, mailbox: &NotifyMailbox) -> std::io::Result<()> {
    for event in mailbox.drain() {
        write_frame(writer, &notify_payload(&event))?;
    }
    Ok(())
}

fn serve_frames(
    stream: TcpStream,
    service: &Arc<MrqService>,
    signal: &ShutdownSignal,
    mailbox: &Arc<NotifyMailbox>,
    config: ServerConfig,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(config.poll_interval))?;
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut header = Vec::new();
    loop {
        header.clear();
        // Safety net for events that arrived between the post-reply drain
        // below and re-entering the read (idle connections are covered by
        // the `on_idle` hook, ≤ one poll interval of latency).
        drain_notifies(&mut writer, mailbox)?;
        let read = read_frame_polling(
            &mut reader,
            &mut header,
            signal,
            config.idle_timeout,
            || drain_notifies(&mut writer, mailbox),
        )?;
        let payload = match read {
            FrameRead::Frame(payload) => payload,
            FrameRead::Eof | FrameRead::ShuttingDown => return Ok(()),
            FrameRead::IdleExpired => {
                // Slow-loris defence: the peer held a partial frame past the
                // idle timeout.  Tell it why (retryable — a healthy client
                // may simply reconnect and resend) and cut the connection.
                service.reliability().count_idle_disconnect();
                let _ = write_frame(&mut writer, &error_payload(&ServiceError::IdleTimeout));
                return Ok(());
            }
            FrameRead::Malformed(msg) => {
                // Framing is broken: report and drop the connection (the
                // stream position is no longer trustworthy).
                let err = ServiceError::BadRequest(msg);
                let _ = write_frame(&mut writer, &error_payload(&err));
                return Ok(());
            }
        };
        match Request::parse(&payload) {
            Err(msg) => {
                // The frame itself was sound: answer the error, keep going.
                let err = ServiceError::BadRequest(msg);
                write_frame(&mut writer, &error_payload(&err))?;
            }
            Ok(Request::Ping) => write_frame(&mut writer, &pong_payload())?,
            Ok(Request::Subscribe {
                dataset,
                focal,
                algorithm,
                tau,
            }) => {
                // The initial evaluation runs right here on the connection
                // thread (like updates: registration must be atomic with
                // respect to the dataset's update stream, so it cannot go
                // through the pool).
                let payload =
                    match service.subscribe(&dataset, focal, algorithm, tau, Arc::clone(mailbox)) {
                        Ok(sub) => subscribed_payload(&sub),
                        Err(err) => error_payload(&err),
                    };
                write_frame(&mut writer, &payload)?;
            }
            Ok(Request::Unsubscribe { subscription }) => {
                let payload = if service.unsubscribe(subscription) {
                    unsubscribed_payload(subscription)
                } else {
                    error_payload(&ServiceError::BadRequest(format!(
                        "unknown subscription id {subscription}"
                    )))
                };
                write_frame(&mut writer, &payload)?;
            }
            Ok(Request::Metrics) => {
                let text = crate::metrics::render_metrics(&service.stats());
                write_frame(&mut writer, &metrics_payload(&text))?;
            }
            Ok(Request::List) => {
                let registry = service.registry();
                let datasets: Vec<(String, usize, usize)> = registry
                    .names()
                    .into_iter()
                    .filter_map(|name| {
                        // Live records, matching `update` replies (the id
                        // space also counts tombstoned slots).
                        registry
                            .get(&name)
                            .map(|e| (name, e.data().live_len(), e.data().dims()))
                    })
                    .collect();
                write_frame(&mut writer, &list_payload(&datasets))?;
            }
            Ok(Request::Shutdown) => {
                write_frame(&mut writer, &bye_payload())?;
                signal.trigger();
                return Ok(());
            }
            Ok(Request::Update {
                dataset,
                request_id,
                inserts,
                deletes,
            }) => {
                // Updates run on the connection thread: they are serialized
                // per dataset by the registry handle, and never compete with
                // queries for the worker pool.
                let outcome = service.update_with_id(
                    &dataset,
                    &update_batch(&inserts, &deletes),
                    request_id.as_deref(),
                );
                let payload = match outcome {
                    Ok(outcome) => update_payload(&outcome),
                    Err(err) => error_payload(&err),
                };
                write_frame(&mut writer, &payload)?;
            }
            Ok(Request::Query {
                dataset,
                focal,
                algorithm,
                tau,
                timeout_ms,
                no_cache,
                max_regions,
                threads,
            }) => {
                let request = QueryRequest {
                    dataset,
                    focal,
                    algorithm,
                    tau,
                    timeout: timeout_ms.map(Duration::from_millis),
                    no_cache,
                    threads,
                };
                let reply = service
                    .try_enqueue(&request)
                    .and_then(|pending| pending.wait());
                let payload = match reply {
                    Ok(answer) => query_payload(&answer, max_regions),
                    // A full pool queue is transient backpressure, not a
                    // request defect: surface it as the typed retryable
                    // `overloaded` error with a backoff hint.
                    Err(ServiceError::QueueFull) => error_payload(&ServiceError::Overloaded {
                        retry_after_ms: RETRY_AFTER_MS,
                    }),
                    Err(err) => error_payload(&err),
                };
                write_frame(&mut writer, &payload)?;
            }
        }
        // Drain the mailbox immediately after the reply: an UPDATE on this
        // very connection that affects its own subscriptions must see its
        // NOTIFY pushed now, not one poll tick later.
        drain_notifies(&mut writer, mailbox)?;
    }
}

enum FrameRead {
    Frame(String),
    Eof,
    ShuttingDown,
    /// A partial frame sat unfinished past [`ServerConfig::idle_timeout`].
    IdleExpired,
    Malformed(String),
}

fn is_timeout(err: &std::io::Error) -> bool {
    matches!(
        err.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Like [`protocol::read_frame`] but tolerant of read timeouts: partial data
/// survives in `header` / the payload buffer across retries, and the
/// shutdown flag is checked between them.  `on_idle` runs on poll ticks
/// where no frame has started arriving yet — the hook the connection thread
/// uses to flush queued `NOTIFY` frames between exchanges (never once a
/// request frame is partially read, so pushes never land inside an
/// exchange).
///
/// `idle_timeout` is the slow-loris budget: once the first byte of a frame
/// has arrived, the whole frame (header and payload) must complete within
/// it, or the read resolves to [`FrameRead::IdleExpired`].  A connection
/// with *no* partial frame — an idle subscriber — is never expired.
fn read_frame_polling(
    reader: &mut BufReader<TcpStream>,
    header: &mut Vec<u8>,
    signal: &ShutdownSignal,
    idle_timeout: Option<Duration>,
    mut on_idle: impl FnMut() -> std::io::Result<()>,
) -> std::io::Result<FrameRead> {
    // Started at the first poll tick that observes a partial frame; the
    // slow-loris clock.  (`read_until` appends partial bytes and *then*
    // reports the timeout, so the clock cannot start on a successful read.)
    let mut partial_since: Option<Instant> = None;
    fn expired_now(since: &mut Option<Instant>, limit: Option<Duration>) -> bool {
        let start = *since.get_or_insert_with(Instant::now);
        limit.is_some_and(|limit| start.elapsed() >= limit)
    }
    // Header: bytes up to '\n'.  `read_until` appends whatever arrived
    // before a timeout, so looping preserves partial prefixes.  The `take`
    // budget caps the header so a peer streaming bytes with no newline
    // cannot grow the buffer without bound.
    while header.last() != Some(&b'\n') {
        if header.len() >= protocol::MAX_HEADER_BYTES {
            return Ok(FrameRead::Malformed("frame length prefix too long".into()));
        }
        let budget = (protocol::MAX_HEADER_BYTES - header.len()) as u64;
        match reader.by_ref().take(budget).read_until(b'\n', header) {
            Ok(0) => {
                return if header.is_empty() {
                    Ok(FrameRead::Eof)
                } else {
                    Ok(FrameRead::Malformed("truncated frame header".into()))
                };
            }
            Ok(_) => {} // loop re-checks for the delimiter and the budget
            Err(e) if is_timeout(&e) => {
                if signal.is_set() {
                    return Ok(FrameRead::ShuttingDown);
                }
                if header.is_empty() {
                    on_idle()?;
                } else if expired_now(&mut partial_since, idle_timeout) {
                    return Ok(FrameRead::IdleExpired);
                }
            }
            Err(e) => return Err(e),
        }
    }
    let text = match std::str::from_utf8(header) {
        Ok(t) => t.trim(),
        Err(_) => return Ok(FrameRead::Malformed("frame prefix is not UTF-8".into())),
    };
    let len: usize = match text.parse() {
        Ok(n) => n,
        Err(_) => {
            return Ok(FrameRead::Malformed(format!(
                "bad frame length prefix '{text}'"
            )))
        }
    };
    if len > protocol::MAX_FRAME_BYTES {
        return Ok(FrameRead::Malformed(format!(
            "frame of {len} bytes exceeds limit"
        )));
    }
    let mut payload = vec![0u8; len];
    let mut filled = 0;
    while filled < len {
        match reader.read(&mut payload[filled..]) {
            Ok(0) => return Ok(FrameRead::Malformed("truncated frame payload".into())),
            Ok(n) => filled += n,
            Err(e) if is_timeout(&e) => {
                if signal.is_set() {
                    return Ok(FrameRead::ShuttingDown);
                }
                if expired_now(&mut partial_since, idle_timeout) {
                    return Ok(FrameRead::IdleExpired);
                }
            }
            Err(e) => return Err(e),
        }
    }
    match String::from_utf8(payload) {
        Ok(s) => Ok(FrameRead::Frame(s)),
        Err(_) => Ok(FrameRead::Malformed("frame payload is not UTF-8".into())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{DatasetRegistry, DatasetSpec};
    use crate::service::ServiceConfig;
    use protocol::read_frame;
    use std::io::Write;

    fn demo_server() -> Server {
        let registry = Arc::new(DatasetRegistry::new());
        registry.register("demo", &DatasetSpec::Demo).unwrap();
        let service = Arc::new(MrqService::new(
            registry,
            ServiceConfig {
                workers: 2,
                ..ServiceConfig::default()
            },
        ));
        Server::start(service, "127.0.0.1:0").unwrap()
    }

    fn roundtrip(stream: &mut TcpStream, payload: &str) -> String {
        let mut writer = stream.try_clone().unwrap();
        write_frame(&mut writer, payload).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        read_frame(&mut reader).unwrap().expect("response frame")
    }

    #[test]
    fn raw_ping_and_query() {
        let server = demo_server();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        let pong = roundtrip(&mut stream, "{\"cmd\":\"ping\"}");
        assert!(pong.contains("\"pong\":true"));
        let answer = roundtrip(
            &mut stream,
            "{\"cmd\":\"query\",\"dataset\":\"demo\",\"focal\":5}",
        );
        assert!(answer.contains("\"k_star\":3"), "{answer}");
        assert!(answer.contains("\"ok\":true"));
        server.shutdown();
    }

    #[test]
    fn stats_and_metrics_verbs_answer_identically() {
        let server = demo_server();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        roundtrip(
            &mut stream,
            "{\"cmd\":\"query\",\"dataset\":\"demo\",\"focal\":5}",
        );
        let stats = roundtrip(&mut stream, "{\"cmd\":\"stats\"}");
        let metrics = roundtrip(&mut stream, "{\"cmd\":\"metrics\"}");
        assert_eq!(stats, metrics);
        assert!(
            metrics.contains("\\nmrq_pool_jobs_executed_total 1\\n"),
            "{metrics}"
        );
        server.shutdown();
    }

    #[test]
    fn malformed_payload_gets_error_frame_and_connection_survives() {
        let server = demo_server();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        let err = roundtrip(&mut stream, "{\"cmd\":\"query\"}");
        assert!(err.contains("\"ok\":false"), "{err}");
        // Same connection still answers.
        let pong = roundtrip(&mut stream, "{\"cmd\":\"ping\"}");
        assert!(pong.contains("\"pong\":true"));
        server.shutdown();
    }

    #[test]
    fn broken_framing_drops_connection_with_error() {
        let server = demo_server();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.write_all(b"not-a-length\n").unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let reply = read_frame(&mut reader).unwrap().expect("error frame");
        assert!(reply.contains("\"ok\":false"));
        // Server closes the stream afterwards.
        assert_eq!(read_frame(&mut reader).unwrap(), None);
        server.shutdown();
    }

    #[test]
    fn newline_free_stream_is_cut_off_not_buffered() {
        // A peer streaming bytes with no '\n' must hit the header cap, not
        // grow server memory without bound.
        let server = demo_server();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        let garbage = vec![b'9'; 4096];
        let _ = stream.write_all(&garbage);
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let reply = read_frame(&mut reader).unwrap().expect("error frame");
        assert!(reply.contains("too long"), "{reply}");
        assert_eq!(read_frame(&mut reader).unwrap(), None);
        server.shutdown();
    }

    #[test]
    fn shutdown_command_stops_the_server() {
        let server = demo_server();
        let addr = server.local_addr();
        let mut stream = TcpStream::connect(addr).unwrap();
        let bye = roundtrip(&mut stream, "{\"cmd\":\"shutdown\"}");
        assert!(bye.contains("\"bye\":true"));
        server.wait();
        // The port no longer accepts work: either refused, or accepted by the
        // dying listener backlog and immediately closed without an answer.
        if let Ok(late) = TcpStream::connect(addr) {
            late.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
            let mut writer = late.try_clone().unwrap();
            let _ = write_frame(&mut writer, "{\"cmd\":\"ping\"}");
            let mut reader = BufReader::new(late);
            assert!(matches!(read_frame(&mut reader), Ok(None) | Err(_)));
        }
    }

    #[test]
    fn notify_from_own_update_is_pushed_without_waiting_a_poll_tick() {
        // A deliberately huge poll interval: if NOTIFY delivery were pinned
        // to the idle tick, this test would need ~10 s.  The connection
        // subscribes, then applies an update that affects its own
        // subscription — the NOTIFY must arrive right after the update
        // reply, via the post-reply drain.
        let registry = Arc::new(DatasetRegistry::new());
        registry.register("demo", &DatasetSpec::Demo).unwrap();
        let service = Arc::new(MrqService::new(
            registry,
            ServiceConfig {
                workers: 2,
                ..ServiceConfig::default()
            },
        ));
        let server = Server::start_with(
            service,
            "127.0.0.1:0",
            ServerConfig {
                poll_interval: Duration::from_secs(10),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let mut client = crate::client::Client::connect(server.local_addr()).unwrap();
        client
            .subscribe("demo", 5, mrq_core::Algorithm::Auto, 0)
            .unwrap();
        let start = std::time::Instant::now();
        // A dominating insert: affects every subscription on the dataset.
        client.update("demo", &[vec![0.97, 0.96]], &[]).unwrap();
        let notification = client
            .wait_notify(Some(Duration::from_secs(2)))
            .unwrap()
            .expect("the affecting update must push a NOTIFY");
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "NOTIFY was pinned to the poll tick ({:?})",
            start.elapsed()
        );
        assert!(matches!(
            notification,
            crate::client::Notification::Changed(_)
        ));
        // Shut down via the protocol: `server.shutdown()` would block for up
        // to one (10 s) poll tick per idle connection thread.
        client.shutdown_server().unwrap();
        server.wait();
    }

    fn demo_server_with(config: ServerConfig) -> Server {
        let registry = Arc::new(DatasetRegistry::new());
        registry.register("demo", &DatasetSpec::Demo).unwrap();
        let service = Arc::new(MrqService::new(
            registry,
            ServiceConfig {
                workers: 2,
                ..ServiceConfig::default()
            },
        ));
        Server::start_with(service, "127.0.0.1:0", config).unwrap()
    }

    #[test]
    fn connections_above_the_cap_are_shed_with_a_busy_frame() {
        let server = demo_server_with(ServerConfig {
            max_connections: 1,
            ..ServerConfig::default()
        });
        let mut first = TcpStream::connect(server.local_addr()).unwrap();
        // The ping reply proves the first connection was admitted (the live
        // count is incremented before the connection thread starts serving).
        let pong = roundtrip(&mut first, "{\"cmd\":\"ping\"}");
        assert!(pong.contains("\"pong\":true"));
        let second = TcpStream::connect(server.local_addr()).unwrap();
        second
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut reader = BufReader::new(second);
        let reply = read_frame(&mut reader).unwrap().expect("busy frame");
        assert!(reply.contains("server busy"), "{reply}");
        assert!(reply.contains("\"retryable\":true"), "{reply}");
        assert!(reply.contains("\"retry_after_ms\""), "{reply}");
        // The shed connection is closed after the frame.
        assert_eq!(read_frame(&mut reader).unwrap(), None);
        assert!(server.service().stats().reliability.connections_shed >= 1);
        // The first connection is unaffected.
        let pong = roundtrip(&mut first, "{\"cmd\":\"ping\"}");
        assert!(pong.contains("\"pong\":true"));
        server.shutdown();
    }

    #[test]
    fn slow_loris_partial_frame_is_disconnected_after_idle_timeout() {
        let server = demo_server_with(ServerConfig {
            poll_interval: Duration::from_millis(25),
            idle_timeout: Some(Duration::from_millis(150)),
            ..ServerConfig::default()
        });
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        // A partial header with no newline, then silence: the classic
        // slow-loris hold.
        stream.write_all(b"12").unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let reply = read_frame(&mut reader)
            .unwrap()
            .expect("idle-timeout frame");
        assert!(reply.contains("idle timeout"), "{reply}");
        assert!(reply.contains("\"retryable\":true"), "{reply}");
        assert_eq!(read_frame(&mut reader).unwrap(), None);
        assert_eq!(server.service().stats().reliability.idle_disconnects, 1);
        server.shutdown();
    }

    #[test]
    fn fully_idle_connection_without_partial_frame_is_not_reaped() {
        // Only *partial frames* age out; a quiet subscriber-style connection
        // must survive arbitrarily long past the idle timeout.
        let server = demo_server_with(ServerConfig {
            poll_interval: Duration::from_millis(25),
            idle_timeout: Some(Duration::from_millis(100)),
            ..ServerConfig::default()
        });
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        assert!(roundtrip(&mut stream, "{\"cmd\":\"ping\"}").contains("\"pong\":true"));
        std::thread::sleep(Duration::from_millis(300));
        assert!(roundtrip(&mut stream, "{\"cmd\":\"ping\"}").contains("\"pong\":true"));
        assert_eq!(server.service().stats().reliability.idle_disconnects, 0);
        server.shutdown();
    }

    #[test]
    fn finished_connection_threads_are_reaped_without_new_arrivals() {
        // Regression for the old accept loop, which only joined finished
        // connection threads when a *new* connection arrived: on a quiet
        // server the handle list must shrink on the accept tick alone.
        let server = demo_server();
        {
            let mut stream = TcpStream::connect(server.local_addr()).unwrap();
            let _ = roundtrip(&mut stream, "{\"cmd\":\"ping\"}");
        } // dropped: the connection thread sees EOF and exits
        let deadline = Instant::now() + Duration::from_secs(5);
        while !lock_or_recover(&server.conns).is_empty() {
            assert!(
                Instant::now() < deadline,
                "finished connection thread was never reaped"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        server.shutdown();
    }

    #[test]
    fn shutdown_is_idempotent_and_drop_safe() {
        let server = demo_server();
        server.shutdown();
        server.shutdown();
        drop(server);
    }
}
