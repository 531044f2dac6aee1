//! The loopback TCP server: one accept thread, one thread per connection,
//! all funnelling into the shared [`MrqService`].
//!
//! Connection threads never evaluate queries themselves — they parse frames,
//! enqueue jobs on the bounded pool (a `query` through
//! [`MrqService::try_enqueue`], so a full queue surfaces as a `queue full`
//! error frame; `subscribe` and `update` wait for room) and write the answer
//! back.  Every wait is a blocking call: the accept thread blocks in
//! `accept` (shutdown pokes it awake with a throwaway connection) and a
//! connection thread blocks for the first byte of its next frame.
//! [`Server::wait`] shuts the read side of every live connection, which
//! turns those blocked reads into EOF, and waits until every connection
//! thread has left.  No thread wakes on a timer.
//!
//! `NOTIFY` frames are written by whoever produced them: the update that
//! triages a subscription flushes the connection's [`NotifyMailbox`], which
//! owns the socket's write side.  Replies go through the same mailbox, so
//! frames never interleave, and pushes produced during an exchange are
//! written right behind its reply.

use crate::error::ServiceError;
use crate::protocol::{
    bye_payload, error_payload, list_payload, metrics_payload, pong_payload, query_payload,
    read_frame, subscribed_payload, unsubscribed_payload, update_batch, update_payload,
    write_frame, DeadlineStream, Request,
};
use crate::service::{MrqService, QueryRequest};
use crate::subscriptions::{NotifyMailbox, WRITE_STALL_TIMEOUT};
use crate::sync::lock_or_recover;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, ErrorKind};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long the accept thread backs off after an accept *error* (EMFILE,
/// ECONNABORTED, …), which can persist, so the loop cannot spin.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(50);

/// The `retry_after_ms` hint attached to `server busy` / `overloaded`
/// rejections: long enough for a typical exchange to finish and free a
/// connection slot or a queue slot, short enough that a retrying client
/// barely notices.
const RETRY_AFTER_MS: u64 = 100;

/// Tuning knobs for a [`Server`].
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
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

/// The connections being served: a handle to each socket (to shut it down
/// on exit) and a condvar signalled whenever one leaves.
#[derive(Debug, Default)]
struct LiveConnections {
    streams: Mutex<HashMap<u64, TcpStream>>,
    left: Condvar,
}

impl LiveConnections {
    fn len(&self) -> usize {
        lock_or_recover(&self.streams).len()
    }

    /// Shuts the read side of every live socket, so each connection thread
    /// reads EOF, and blocks until all of them have left.
    fn close_all(&self) {
        let mut streams = lock_or_recover(&self.streams);
        for stream in streams.values() {
            let _ = stream.shutdown(Shutdown::Read);
        }
        while !streams.is_empty() {
            streams = self
                .left
                .wait(streams)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// One connection's place in the live set; leaving it (however the
/// connection thread exits, panics included) removes the entry.
struct LiveEntry {
    live: Arc<LiveConnections>,
    id: u64,
}

impl Drop for LiveEntry {
    fn drop(&mut self) {
        lock_or_recover(&self.live.streams).remove(&self.id);
        self.live.left.notify_all();
    }
}

/// A running server.  Obtain the bound address with [`Server::local_addr`]
/// (bind to port 0 for an ephemeral port), stop it with [`Server::shutdown`].
#[derive(Debug)]
pub struct Server {
    service: Arc<MrqService>,
    signal: ShutdownSignal,
    accept: Mutex<Option<JoinHandle<()>>>,
    live: Arc<LiveConnections>,
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
        let live = Arc::new(LiveConnections::default());
        let accept = {
            let service = Arc::clone(&service);
            let signal = signal.clone();
            let live = Arc::clone(&live);
            std::thread::Builder::new()
                .name("mrq-accept".into())
                .spawn(move || accept_loop(&listener, &service, &signal, &live, config))?
        };
        Ok(Server {
            service,
            signal,
            accept: Mutex::new(Some(accept)),
            live,
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
    /// connection closed and its thread gone, worker pool drained.  Does not
    /// *initiate* shutdown — combine with [`Server::trigger_shutdown`] or a
    /// client `SHUTDOWN` command.
    pub fn wait(&self) {
        if let Some(handle) = lock_or_recover(&self.accept).take() {
            let _ = handle.join();
        }
        self.live.close_all();
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

/// Sheds one connection above the cap: writes a single retryable
/// `server busy` error frame and closes the stream.  Best-effort — the peer
/// may already be gone — but bounded: the write-stall timeout keeps a dead
/// peer from stalling the accept thread.
fn shed_connection(mut stream: TcpStream, service: &MrqService) {
    service.reliability().count_shed();
    let _ = stream.set_write_timeout(Some(WRITE_STALL_TIMEOUT));
    let err = ServiceError::ServerBusy {
        retry_after_ms: RETRY_AFTER_MS,
    };
    let _ = write_frame(&mut stream, &error_payload(&err));
}

fn accept_loop(
    listener: &TcpListener,
    service: &Arc<MrqService>,
    signal: &ShutdownSignal,
    live: &Arc<LiveConnections>,
    config: ServerConfig,
) {
    let mut next_id = 0u64;
    loop {
        let accepted = listener.accept();
        if signal.is_set() {
            break;
        }
        let Ok((stream, _)) = accepted else {
            std::thread::sleep(ACCEPT_ERROR_BACKOFF);
            continue;
        };
        // Admission control happens *before* the thread spawn: a connection
        // joins the live set here and leaves it when its thread exits, so
        // the cap is enforced even while threads are still winding down.
        if live.len() >= config.max_connections {
            shed_connection(stream, service);
            continue;
        }
        let Ok(handle) = stream.try_clone() else {
            continue;
        };
        next_id += 1;
        lock_or_recover(&live.streams).insert(next_id, handle);
        let entry = LiveEntry {
            live: Arc::clone(live),
            id: next_id,
        };
        let service = Arc::clone(service);
        let signal = signal.clone();
        // On spawn failure the closure (and with it the entry) is dropped,
        // which already removes the connection from the live set.
        let _ = std::thread::Builder::new()
            .name("mrq-conn".into())
            .spawn(move || {
                let _entry = entry;
                let _ = serve_connection(stream, &service, &signal, config);
            });
    }
}

/// Reads frames off one connection until EOF or error, then unregisters
/// whatever the connection subscribed to.
fn serve_connection(
    stream: TcpStream,
    service: &Arc<MrqService>,
    signal: &ShutdownSignal,
    config: ServerConfig,
) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    // The connection's outbox: replies and NOTIFY frames (written by
    // whichever thread applied the update) share its lock.
    let mailbox = Arc::new(NotifyMailbox::with_writer(stream.try_clone()?)?);
    let result = serve_frames(stream, service, signal, &mailbox, config);
    service.drop_subscriber(&mailbox);
    result
}

fn serve_frames(
    stream: TcpStream,
    service: &Arc<MrqService>,
    signal: &ShutdownSignal,
    mailbox: &Arc<NotifyMailbox>,
    config: ServerConfig,
) -> std::io::Result<()> {
    let mut reader = BufReader::new(DeadlineStream::new(stream, None));
    loop {
        // Block without a deadline until a frame's first byte arrives, so an
        // idle connection (a subscriber waiting for pushes) is never reaped;
        // from then on the whole frame, header and payload, must complete
        // within `idle_timeout`.
        reader.get_mut().deadline = None;
        reader.fill_buf()?;
        reader.get_mut().deadline = config.idle_timeout.map(|limit| Instant::now() + limit);
        let payload = match read_frame(&mut reader) {
            Ok(Some(payload)) => payload,
            Ok(None) => return Ok(()),
            Err(e) if e.kind() == ErrorKind::TimedOut => {
                // Slow-loris defence: the peer held a partial frame past the
                // idle timeout.  Tell it why (retryable — a healthy client
                // may simply reconnect and resend) and cut the connection.
                service.reliability().count_idle_disconnect();
                return mailbox.finish_exchange(&error_payload(&ServiceError::IdleTimeout));
            }
            Err(e) if matches!(e.kind(), ErrorKind::InvalidData | ErrorKind::UnexpectedEof) => {
                // Framing is broken: report and drop the connection (the
                // stream position is no longer trustworthy).
                let err = ServiceError::BadRequest(e.to_string());
                return mailbox.finish_exchange(&error_payload(&err));
            }
            Err(e) => return Err(e),
        };
        mailbox.begin_exchange();
        let request = Request::parse(&payload);
        let shutdown = matches!(request, Ok(Request::Shutdown));
        let reply = match request {
            // The frame itself was sound: answer the error, keep going.
            Err(msg) => error_payload(&ServiceError::BadRequest(msg)),
            Ok(Request::Ping) => pong_payload(),
            Ok(Request::Subscribe {
                dataset,
                focal,
                algorithm,
                tau,
            }) => {
                // The initial query goes through the pool while this thread
                // holds the dataset's subscription lock, so registration is
                // atomic with respect to the dataset's update stream.
                match service.subscribe(&dataset, focal, algorithm, tau, Arc::clone(mailbox)) {
                    Ok(sub) => subscribed_payload(&sub),
                    Err(err) => error_payload(&err),
                }
            }
            Ok(Request::Unsubscribe { subscription }) => {
                if service.unsubscribe(subscription) {
                    unsubscribed_payload(subscription)
                } else {
                    error_payload(&ServiceError::BadRequest(format!(
                        "unknown subscription id {subscription}"
                    )))
                }
            }
            Ok(Request::Metrics) => {
                metrics_payload(&crate::metrics::render_metrics(&service.stats()))
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
                list_payload(&datasets)
            }
            Ok(Request::Shutdown) => bye_payload(),
            Ok(Request::Update {
                dataset,
                request_id,
                inserts,
                deletes,
            }) => {
                // The apply runs on the connection thread, serialized per
                // dataset; standing queries it may have changed are
                // re-evaluated as ordinary queries through the pool.
                let outcome = service.update_with_id(
                    &dataset,
                    &update_batch(&inserts, &deletes),
                    request_id.as_deref(),
                );
                match outcome {
                    Ok(outcome) => update_payload(&outcome),
                    Err(err) => error_payload(&err),
                }
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
                match reply {
                    Ok(answer) => query_payload(&answer, max_regions),
                    // A full pool queue is transient backpressure, not a
                    // request defect: surface it as the typed retryable
                    // `overloaded` error with a backoff hint.
                    Err(ServiceError::QueueFull) => error_payload(&ServiceError::Overloaded {
                        retry_after_ms: RETRY_AFTER_MS,
                    }),
                    Err(err) => error_payload(&err),
                }
            }
        };
        // Writes the reply, then whatever NOTIFYs the exchange produced
        // (e.g. for this connection's own update).
        mailbox.finish_exchange(&reply)?;
        if shutdown {
            signal.trigger();
        }
        // A peer that keeps sending must not outlive a shutdown either.
        if signal.is_set() {
            return Ok(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{DatasetRegistry, DatasetSpec};
    use crate::service::ServiceConfig;
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
        // The connection subscribes, then applies an update that affects
        // its own subscription: the NOTIFY must arrive right behind the
        // update reply, and shutdown must not wait on the idle subscriber.
        let server = demo_server();
        let mut client = crate::client::Client::connect(server.local_addr()).unwrap();
        client
            .subscribe("demo", 5, mrq_core::Algorithm::Auto, 0)
            .unwrap();
        let start = Instant::now();
        // A dominating insert: affects every subscription on the dataset.
        client.update("demo", &[vec![0.97, 0.96]], &[]).unwrap();
        let notification = client
            .wait_notify(Some(Duration::from_secs(2)))
            .unwrap()
            .expect("the affecting update must push a NOTIFY");
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "NOTIFY was late ({:?})",
            start.elapsed()
        );
        assert!(matches!(
            notification,
            crate::client::Notification::Changed(_)
        ));
        let start = Instant::now();
        server.shutdown();
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "shutdown waited on the connected subscriber ({:?})",
            start.elapsed()
        );
    }

    #[test]
    fn idle_subscriber_gets_notify_from_another_connections_update_at_once() {
        let server = demo_server();
        let mut idle = crate::client::Client::connect(server.local_addr()).unwrap();
        idle.subscribe("demo", 5, mrq_core::Algorithm::Auto, 0)
            .unwrap();
        let mut updater = crate::client::Client::connect(server.local_addr()).unwrap();
        let mut waits = Vec::new();
        for _ in 0..10 {
            // A dominating insert moves the subscription's rank every time.
            let reply = updater.update("demo", &[vec![0.97, 0.96]], &[]).unwrap();
            let replied = Instant::now();
            let notification = idle
                .wait_notify(Some(Duration::from_secs(2)))
                .unwrap()
                .expect("every affecting update must push a NOTIFY");
            waits.push(replied.elapsed());
            match notification {
                crate::client::Notification::Changed(sub) => {
                    assert_eq!(sub.version, reply.version)
                }
                other => panic!("expected a change, got {other:?}"),
            }
        }
        waits.sort();
        assert!(
            waits[waits.len() / 2] < Duration::from_millis(20),
            "median NOTIFY wait after the update reply: {:?}",
            waits[waits.len() / 2]
        );
        server.shutdown();
    }

    #[test]
    fn shutdown_closes_idle_and_half_sent_connections_promptly() {
        let server = demo_server_with(ServerConfig {
            idle_timeout: None,
            ..ServerConfig::default()
        });
        let mut subscriber = crate::client::Client::connect(server.local_addr()).unwrap();
        subscriber
            .subscribe("demo", 5, mrq_core::Algorithm::Auto, 0)
            .unwrap();
        let mut partial = TcpStream::connect(server.local_addr()).unwrap();
        partial.write_all(b"12").unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.live.len() < 2 {
            assert!(Instant::now() < deadline, "connections never admitted");
            std::thread::sleep(Duration::from_millis(5));
        }
        let start = Instant::now();
        server.shutdown();
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "shutdown took {:?}",
            start.elapsed()
        );
        assert_eq!(server.live.len(), 0);
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
    fn trickled_partial_frame_is_cut_at_the_idle_timeout() {
        // One header byte every 100 ms keeps every single read short, but
        // the frame as a whole must still complete within the idle timeout.
        let server = demo_server_with(ServerConfig {
            idle_timeout: Some(Duration::from_millis(300)),
            ..ServerConfig::default()
        });
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut writer = stream.try_clone().unwrap();
        let start = Instant::now();
        let trickle = std::thread::spawn(move || {
            for _ in 0..40 {
                if writer.write_all(b"1").is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(100));
            }
        });
        let mut reader = BufReader::new(stream);
        let reply = read_frame(&mut reader)
            .unwrap()
            .expect("idle-timeout frame");
        assert!(reply.contains("idle timeout"), "{reply}");
        assert!(
            start.elapsed() < Duration::from_millis(1500),
            "the trickle held the connection {:?}",
            start.elapsed()
        );
        trickle.join().unwrap();
        server.shutdown();
    }

    #[test]
    fn fully_idle_connection_without_partial_frame_is_not_reaped() {
        // Only *partial frames* age out; a quiet subscriber-style connection
        // must survive arbitrarily long past the idle timeout.
        let server = demo_server_with(ServerConfig {
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
    fn a_frame_in_pieces_is_answered_and_its_deadline_does_not_outlive_it() {
        // Digits, newline and payload as three writes, 20 ms apart: the
        // server reads the newline and the payload under the frame's
        // deadline.  That deadline must be cleared before the next idle
        // wait, which here lasts longer than the idle timeout.
        let server = demo_server_with(ServerConfig {
            idle_timeout: Some(Duration::from_millis(100)),
            ..ServerConfig::default()
        });
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut writer = stream.try_clone().unwrap();
        let payload = "{\"cmd\":\"query\",\"dataset\":\"demo\",\"focal\":5}";
        let length = payload.len().to_string();
        for (i, piece) in [length.as_str(), "\n", payload].into_iter().enumerate() {
            if i > 0 {
                std::thread::sleep(Duration::from_millis(20));
            }
            writer.write_all(piece.as_bytes()).unwrap();
        }
        let mut reader = BufReader::new(stream);
        let answer = read_frame(&mut reader).unwrap().expect("answer frame");
        assert!(answer.contains("\"k_star\":3"), "{answer}");
        std::thread::sleep(Duration::from_millis(300));
        write_frame(&mut writer, "{\"cmd\":\"ping\"}").unwrap();
        let pong = read_frame(&mut reader).unwrap().expect("pong frame");
        assert!(pong.contains("\"pong\":true"), "{pong}");
        assert_eq!(server.service().stats().reliability.idle_disconnects, 0);
        server.shutdown();
    }

    #[test]
    fn finished_connection_threads_are_reaped_without_new_arrivals() {
        // Regression for an old accept loop, which only reaped finished
        // connection threads when a *new* connection arrived: on a quiet
        // server a connection must leave the live set as its thread exits.
        let server = demo_server();
        {
            let mut stream = TcpStream::connect(server.local_addr()).unwrap();
            let _ = roundtrip(&mut stream, "{\"cmd\":\"ping\"}");
        } // dropped: the connection thread sees EOF and exits
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.live.len() != 0 {
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
