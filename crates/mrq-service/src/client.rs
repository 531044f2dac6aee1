//! A small blocking client for the loopback protocol, used by the
//! `maxrank-client` binary, the integration tests and the CI smoke check.

use crate::metrics::MetricsSnapshot;
use crate::protocol::json::Json;
use crate::protocol::{read_frame, write_frame, DeadlineStream, Request};
use mrq_core::Algorithm;
use mrq_data::RecordId;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, ErrorKind};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(std::io::Error),
    /// The server sent something the client cannot make sense of.
    Protocol(String),
    /// The server answered with an error frame.
    Server {
        /// The server's error text.
        message: String,
        /// Whether the server flagged the error as safe to retry.
        retryable: bool,
        /// Server-suggested minimum backoff before retrying, if any.
        retry_after_ms: Option<u64>,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ClientError::Server { message, .. } => write!(f, "server error: {message}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Options of one `query` call beyond dataset + focal.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryOptions {
    /// Requested algorithm.
    pub algorithm: Algorithm,
    /// iMaxRank slack.
    pub tau: usize,
    /// Per-request deadline.
    pub timeout: Option<Duration>,
    /// Bypass the server's result cache.
    pub no_cache: bool,
    /// Cap on the number of regions returned (None = all).
    pub max_regions: Option<usize>,
    /// Threads for the server-side cell enumeration of this request (0 and 1
    /// both mean sequential; the server clamps the value).
    pub threads: usize,
}

/// A decoded `query` answer.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryReply {
    /// Best attainable rank.
    pub k_star: usize,
    /// iMaxRank slack the query ran with.
    pub tau: usize,
    /// Concrete algorithm that produced the answer.
    pub algorithm: String,
    /// Total number of result regions.
    pub region_count: usize,
    /// Whether the answer came from the server's result cache.
    pub cached: bool,
    /// Dataset version the answer was computed at.
    pub version: u64,
    /// Simulated page reads of the evaluation.
    pub io_reads: u64,
    /// CPU time of the evaluation, in microseconds.
    pub cpu_us: u64,
    /// Per-returned-region order (rank).
    pub orders: Vec<usize>,
    /// Per-returned-region representative preference vector.
    pub witnesses: Vec<Vec<f64>>,
}

/// A decoded `update` acknowledgement.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UpdateReply {
    /// Dataset version after the batch.
    pub version: u64,
    /// Live records after the batch.
    pub records: usize,
    /// Ids assigned to the inserted rows, in input order.
    pub inserted: Vec<RecordId>,
    /// Number of deleted records.
    pub deleted: usize,
}

/// Retry behaviour of a [`Client`]: capped exponential backoff with
/// deterministic jitter, reconnecting on broken connections.
///
/// A retry fires only when the failure is *known safe* to repeat:
///
/// * server errors the server itself flagged `retryable` (`queue full`,
///   `overloaded`, `server busy`, `idle timeout`, deadline);
/// * transport failures (connection refused/reset/closed) — for reads
///   always, for `UPDATE` only when the call carries a `request_id`, so the
///   server's dedup window turns the resend into an exactly-once replay.
///
/// Non-retryable server errors (bad request, unknown dataset, degraded
/// dataset) and `UNSUBSCRIBE`/`SHUTDOWN` are never retried.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Retries after the initial attempt (so `max_retries: 3` means at most
    /// four attempts in total).
    pub max_retries: u32,
    /// Backoff before the first retry; doubles per retry.
    pub base_backoff: Duration,
    /// Upper bound on the backoff, after which it stops growing.
    pub max_backoff: Duration,
    /// Seed of the deterministic jitter stream (vary per client so a herd
    /// of retrying clients does not thunder in lockstep).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 5,
            base_backoff: Duration::from_millis(25),
            max_backoff: Duration::from_secs(1),
            seed: 0x9E37_79B9_7F4A_7C15,
        }
    }
}

/// A decoded subscription result snapshot: the `subscribe` acknowledgement,
/// and the body of every change `NOTIFY`.
#[derive(Debug, Clone, PartialEq)]
pub struct SubscriptionReply {
    /// Server-assigned subscription id.
    pub subscription: u64,
    /// Dataset the subscription watches.
    pub dataset: String,
    /// Focal record id.
    pub focal: RecordId,
    /// Dataset version the carried result is exact for.
    pub version: u64,
    /// Best attainable rank at that version.
    pub k_star: usize,
    /// iMaxRank slack the subscription runs with.
    pub tau: usize,
    /// Concrete algorithm maintaining the subscription.
    pub algorithm: String,
    /// Number of result regions.
    pub region_count: usize,
    /// Per-region order (rank).
    pub orders: Vec<usize>,
    /// Per-region representative preference vector.
    pub witnesses: Vec<Vec<f64>>,
}

/// One decoded server-push `NOTIFY` frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Notification {
    /// The maintained result changed; the payload carries the new snapshot.
    Changed(SubscriptionReply),
    /// The server ended the subscription (e.g. its focal was deleted).
    Cancelled {
        /// Subscription id that ended.
        subscription: u64,
        /// Dataset it watched.
        dataset: String,
        /// Focal record id.
        focal: RecordId,
        /// Version at which it ended.
        version: u64,
        /// Server-side explanation.
        reason: String,
    },
}

/// A blocking protocol client over one TCP connection.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<DeadlineStream>,
    writer: TcpStream,
    /// The peer address, kept for reconnects under a [`RetryPolicy`].
    addr: SocketAddr,
    /// `NOTIFY` frames that arrived while waiting for a response, in order.
    pending: VecDeque<Notification>,
    /// Retry behaviour; `None` (the default) fails fast on every error.
    retry: Option<RetryPolicy>,
    /// Jitter PRNG state (xorshift64), seeded from the policy.
    jitter: u64,
    /// How many retries this client has performed (for tests and load
    /// tooling; the initial attempt of each call does not count).
    retries: u64,
}

impl Client {
    /// Connects to a running server.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let addr = stream.peer_addr()?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: Self::reader(stream),
            writer,
            addr,
            pending: VecDeque::new(),
            retry: None,
            jitter: 0,
            retries: 0,
        })
    }

    /// Connects with a [`RetryPolicy`] installed from the start.
    pub fn connect_with_retry(
        addr: impl ToSocketAddrs,
        policy: RetryPolicy,
    ) -> std::io::Result<Client> {
        let mut client = Self::connect(addr)?;
        client.set_retry_policy(Some(policy));
        Ok(client)
    }

    /// Installs (or removes, with `None`) the retry policy.
    pub fn set_retry_policy(&mut self, policy: Option<RetryPolicy>) {
        self.jitter = policy.map(|p| p.seed | 1).unwrap_or(0);
        self.retry = policy;
    }

    /// How many retries this client has performed so far.
    pub fn retries_performed(&self) -> u64 {
        self.retries
    }

    /// Tears the connection down and dials the same address again.  Pending
    /// notifications are dropped: subscriptions are connection-bound, so
    /// whatever was queued belongs to a subscription that no longer exists.
    fn reconnect(&mut self) -> Result<(), ClientError> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true)?;
        self.writer = stream.try_clone()?;
        self.reader = Self::reader(stream);
        self.pending.clear();
        Ok(())
    }

    fn reader(stream: TcpStream) -> BufReader<DeadlineStream> {
        BufReader::new(DeadlineStream::new(stream, None))
    }

    /// Next value of the deterministic jitter stream.
    fn next_jitter(&mut self) -> u64 {
        let mut x = self.jitter.max(1);
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.jitter = x;
        x
    }

    /// Backoff before retry number `attempt` (0-based): capped exponential
    /// with half-range jitter, floored at the server's `retry_after_ms`
    /// hint when one was given.
    fn backoff(&mut self, policy: &RetryPolicy, attempt: u32, hint: Option<u64>) -> Duration {
        let exp = policy
            .base_backoff
            .saturating_mul(2u32.saturating_pow(attempt))
            .min(policy.max_backoff);
        let half = (exp.as_millis() as u64 / 2).max(1);
        let jittered = Duration::from_millis(half + self.next_jitter() % half);
        match hint {
            Some(ms) => jittered.max(Duration::from_millis(ms)),
            None => jittered,
        }
    }

    /// Runs `roundtrip` under the retry policy.  `idempotent` marks calls
    /// that are safe to repeat (reads, and updates carrying a `request_id`);
    /// everything else fails fast exactly as without a policy.
    fn exchange(&mut self, request: &Request, idempotent: bool) -> Result<Json, ClientError> {
        let Some(policy) = self.retry else {
            return self.roundtrip(request);
        };
        if !idempotent {
            return self.roundtrip(request);
        }
        let mut attempt = 0u32;
        loop {
            let err = match self.roundtrip(request) {
                Ok(value) => return Ok(value),
                Err(err) => err,
            };
            // Transport failures leave the stream in an unknown state; the
            // server also closes the connection after a `server busy` shed,
            // so both paths need a fresh dial before the next attempt.
            let (retryable, transport, hint) = match &err {
                ClientError::Io(_) => (true, true, None),
                ClientError::Protocol(msg) => (msg == "server closed the connection", true, None),
                ClientError::Server {
                    retryable,
                    message,
                    retry_after_ms,
                } => (
                    *retryable,
                    message.starts_with("server busy"),
                    *retry_after_ms,
                ),
            };
            if !retryable || attempt >= policy.max_retries {
                return Err(err);
            }
            std::thread::sleep(self.backoff(&policy, attempt, hint));
            if transport {
                // A failed reconnect consumes the attempt; the next loop
                // iteration's roundtrip will surface the dead stream again.
                let _ = self.reconnect();
            }
            attempt += 1;
            self.retries += 1;
        }
    }

    /// Reads one frame.  With a deadline, returns `Ok(None)` if no frame has
    /// *started* arriving by then; a frame whose first byte arrived in time
    /// is always read to completion (the server writes frames promptly and
    /// atomically, so this never blocks long).
    fn poll_frame(&mut self, deadline: Option<Instant>) -> Result<Option<String>, ClientError> {
        self.reader.get_mut().deadline = deadline;
        let started = self.reader.fill_buf().map(|_| ());
        self.reader.get_mut().deadline = None;
        if let Err(e) = started {
            return match e.kind() {
                ErrorKind::TimedOut => Ok(None),
                _ => Err(e.into()),
            };
        }
        match read_frame(&mut self.reader) {
            Ok(Some(payload)) => Ok(Some(payload)),
            Ok(None) => Err(ClientError::Protocol("server closed the connection".into())),
            Err(e) if e.kind() == ErrorKind::InvalidData => {
                Err(ClientError::Protocol(e.to_string()))
            }
            Err(e) => Err(e.into()),
        }
    }

    fn roundtrip(&mut self, request: &Request) -> Result<Json, ClientError> {
        write_frame(&mut self.writer, &request.encode())?;
        loop {
            let payload = self
                .poll_frame(None)?
                .expect("a deadline-free poll always yields a frame");
            let value = crate::protocol::json::parse(&payload).map_err(ClientError::Protocol)?;
            // A NOTIFY may slip in ahead of the response; queue it for the
            // next `wait_notify` and keep reading.
            if value.get("notify").and_then(Json::as_bool) == Some(true) {
                let notification = Self::parse_notification(&value)?;
                self.pending.push_back(notification);
                continue;
            }
            return match value.get("ok").and_then(Json::as_bool) {
                Some(true) => Ok(value),
                Some(false) => Err(ClientError::Server {
                    message: value
                        .get("error")
                        .and_then(Json::as_str)
                        .unwrap_or("unspecified error")
                        .to_string(),
                    retryable: value
                        .get("retryable")
                        .and_then(Json::as_bool)
                        .unwrap_or(false),
                    retry_after_ms: value
                        .get("retry_after_ms")
                        .and_then(Json::as_usize)
                        .map(|ms| ms as u64),
                }),
                None => Err(ClientError::Protocol("response lacks 'ok'".into())),
            };
        }
    }

    /// Runs a MaxRank query with default options.
    pub fn query(&mut self, dataset: &str, focal: RecordId) -> Result<QueryReply, ClientError> {
        self.query_with(dataset, focal, QueryOptions::default())
    }

    /// Runs a MaxRank / iMaxRank query.
    pub fn query_with(
        &mut self,
        dataset: &str,
        focal: RecordId,
        options: QueryOptions,
    ) -> Result<QueryReply, ClientError> {
        let request = Request::Query {
            dataset: dataset.to_string(),
            focal,
            algorithm: options.algorithm,
            tau: options.tau,
            timeout_ms: options.timeout.map(|t| t.as_millis() as u64),
            no_cache: options.no_cache,
            max_regions: options.max_regions,
            threads: options.threads.max(1),
        };
        let value = self.exchange(&request, true)?;
        let field_usize = |key: &str| {
            value
                .get(key)
                .and_then(Json::as_usize)
                .ok_or_else(|| ClientError::Protocol(format!("missing numeric '{key}'")))
        };
        let orders = Self::parse_orders(&value)?;
        let witnesses = Self::parse_witnesses(&value)?;
        Ok(QueryReply {
            k_star: field_usize("k_star")?,
            tau: field_usize("tau")?,
            algorithm: value
                .get("algorithm")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_string(),
            region_count: field_usize("region_count")?,
            cached: value
                .get("cached")
                .and_then(Json::as_bool)
                .ok_or_else(|| ClientError::Protocol("missing 'cached'".into()))?,
            version: field_usize("version")? as u64,
            io_reads: field_usize("io_reads")? as u64,
            cpu_us: field_usize("cpu_us")? as u64,
            orders,
            witnesses,
        })
    }

    fn parse_orders(value: &Json) -> Result<Vec<usize>, ClientError> {
        value
            .get("orders")
            .and_then(Json::as_array)
            .ok_or_else(|| ClientError::Protocol("missing 'orders'".into()))?
            .iter()
            .map(|v| {
                v.as_usize()
                    .ok_or_else(|| ClientError::Protocol("non-integer order".into()))
            })
            .collect()
    }

    fn parse_witnesses(value: &Json) -> Result<Vec<Vec<f64>>, ClientError> {
        value
            .get("witnesses")
            .and_then(Json::as_array)
            .ok_or_else(|| ClientError::Protocol("missing 'witnesses'".into()))?
            .iter()
            .map(|w| {
                w.as_array()
                    .ok_or_else(|| ClientError::Protocol("non-array witness".into()))?
                    .iter()
                    .map(|x| {
                        x.as_f64()
                            .ok_or_else(|| ClientError::Protocol("non-numeric weight".into()))
                    })
                    .collect::<Result<Vec<f64>, _>>()
            })
            .collect()
    }

    /// Decodes the shared subscription fields of a `subscribe` ack or a
    /// change `NOTIFY`.
    fn parse_subscription_reply(value: &Json) -> Result<SubscriptionReply, ClientError> {
        let field_usize = |key: &str| {
            value
                .get(key)
                .and_then(Json::as_usize)
                .ok_or_else(|| ClientError::Protocol(format!("missing numeric '{key}'")))
        };
        Ok(SubscriptionReply {
            subscription: field_usize("subscription")? as u64,
            dataset: value
                .get("dataset")
                .and_then(Json::as_str)
                .ok_or_else(|| ClientError::Protocol("missing 'dataset'".into()))?
                .to_string(),
            focal: field_usize("focal")? as RecordId,
            version: field_usize("version")? as u64,
            k_star: field_usize("k_star")?,
            tau: field_usize("tau")?,
            algorithm: value
                .get("algorithm")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_string(),
            region_count: field_usize("region_count")?,
            orders: Self::parse_orders(value)?,
            witnesses: Self::parse_witnesses(value)?,
        })
    }

    fn parse_notification(value: &Json) -> Result<Notification, ClientError> {
        if value.get("cancelled").and_then(Json::as_bool) == Some(true) {
            let field_usize = |key: &str| {
                value
                    .get(key)
                    .and_then(Json::as_usize)
                    .ok_or_else(|| ClientError::Protocol(format!("missing numeric '{key}'")))
            };
            return Ok(Notification::Cancelled {
                subscription: field_usize("subscription")? as u64,
                dataset: value
                    .get("dataset")
                    .and_then(Json::as_str)
                    .unwrap_or("?")
                    .to_string(),
                focal: field_usize("focal")? as RecordId,
                version: field_usize("version")? as u64,
                reason: value
                    .get("reason")
                    .and_then(Json::as_str)
                    .unwrap_or("unspecified")
                    .to_string(),
            });
        }
        Self::parse_subscription_reply(value).map(Notification::Changed)
    }

    /// Registers a standing query.  The acknowledgement carries the initial
    /// result; afterwards the server pushes a `NOTIFY` whenever an update
    /// changes it — collect them with [`Client::wait_notify`].
    pub fn subscribe(
        &mut self,
        dataset: &str,
        focal: RecordId,
        algorithm: Algorithm,
        tau: usize,
    ) -> Result<SubscriptionReply, ClientError> {
        let request = Request::Subscribe {
            dataset: dataset.to_string(),
            focal,
            algorithm,
            tau,
        };
        // Safe to retry: if the connection died, whatever subscription the
        // lost attempt registered died with it.
        let value = self.exchange(&request, true)?;
        Self::parse_subscription_reply(&value)
    }

    /// Cancels a standing query by id.
    pub fn unsubscribe(&mut self, subscription: u64) -> Result<(), ClientError> {
        self.roundtrip(&Request::Unsubscribe { subscription })
            .map(|_| ())
    }

    /// Waits for the next server-push notification.  Returns `Ok(None)` if
    /// `timeout` elapses first; with `None`, blocks until one arrives (or
    /// the connection drops).
    pub fn wait_notify(
        &mut self,
        timeout: Option<Duration>,
    ) -> Result<Option<Notification>, ClientError> {
        if let Some(notification) = self.pending.pop_front() {
            return Ok(Some(notification));
        }
        let deadline = timeout.map(|t| Instant::now() + t);
        let Some(payload) = self.poll_frame(deadline)? else {
            return Ok(None);
        };
        let value = crate::protocol::json::parse(&payload).map_err(ClientError::Protocol)?;
        if value.get("notify").and_then(Json::as_bool) == Some(true) {
            return Self::parse_notification(&value).map(Some);
        }
        Err(ClientError::Protocol(
            "unexpected non-notify frame outside an exchange".into(),
        ))
    }

    /// Applies an update batch to a dataset: `inserts` rows (each matching
    /// the dataset dimensionality) followed by `deletes` record ids.  The
    /// server applies the batch atomically; the reply carries the new
    /// dataset version and the ids assigned to the inserted rows.
    pub fn update(
        &mut self,
        dataset: &str,
        inserts: &[Vec<f64>],
        deletes: &[RecordId],
    ) -> Result<UpdateReply, ClientError> {
        self.update_with_id(dataset, inserts, deletes, None)
    }

    /// Like [`Client::update`], with a client-generated `request_id`.  The
    /// server keeps a per-dataset dedup window of recent ids, so resending
    /// the same id (e.g. after a broken connection mid-acknowledgement)
    /// replays the original receipt instead of applying the batch twice —
    /// which is also what makes an id-carrying update safe to retry under a
    /// [`RetryPolicy`].
    pub fn update_with_id(
        &mut self,
        dataset: &str,
        inserts: &[Vec<f64>],
        deletes: &[RecordId],
        request_id: Option<&str>,
    ) -> Result<UpdateReply, ClientError> {
        let request = Request::Update {
            dataset: dataset.to_string(),
            request_id: request_id.map(str::to_string),
            inserts: inserts.to_vec(),
            deletes: deletes.to_vec(),
        };
        let value = self.exchange(&request, request_id.is_some())?;
        let field_usize = |key: &str| {
            value
                .get(key)
                .and_then(Json::as_usize)
                .ok_or_else(|| ClientError::Protocol(format!("missing numeric '{key}'")))
        };
        let inserted = value
            .get("inserted")
            .and_then(Json::as_array)
            .ok_or_else(|| ClientError::Protocol("missing 'inserted'".into()))?
            .iter()
            .map(|v| {
                v.as_usize()
                    .filter(|&id| id <= RecordId::MAX as usize)
                    .map(|id| id as RecordId)
                    .ok_or_else(|| ClientError::Protocol("non-integer inserted id".into()))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(UpdateReply {
            version: field_usize("version")? as u64,
            records: field_usize("records")?,
            inserted,
            deleted: field_usize("deleted")?,
        })
    }

    /// Fetches the server's counters as an exact snapshot: the `metrics`
    /// text, parsed.
    pub fn stats(&mut self) -> Result<MetricsSnapshot, ClientError> {
        MetricsSnapshot::parse(&self.metrics()?).map_err(ClientError::Protocol)
    }

    /// Fetches the Prometheus exposition text (the `metrics` verb).  The
    /// text travels as a JSON string, so counter values stay integer-exact.
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        let value = self.exchange(&Request::Metrics, true)?;
        value
            .get("metrics")
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| ClientError::Protocol("missing 'metrics'".into()))
    }

    /// Lists registered datasets as `(name, live records, dims)`.
    pub fn list(&mut self) -> Result<Vec<(String, usize, usize)>, ClientError> {
        let value = self.exchange(&Request::List, true)?;
        value
            .get("datasets")
            .and_then(Json::as_array)
            .ok_or_else(|| ClientError::Protocol("missing 'datasets'".into()))?
            .iter()
            .map(|d| {
                let name = d
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or_else(|| ClientError::Protocol("dataset without name".into()))?;
                let records = d.get("records").and_then(Json::as_usize).unwrap_or(0);
                let dims = d.get("dims").and_then(Json::as_usize).unwrap_or(0);
                Ok((name.to_string(), records, dims))
            })
            .collect()
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.exchange(&Request::Ping, true).map(|_| ())
    }

    /// Asks the server to shut down gracefully.  Never retried: a broken
    /// connection here most likely means the shutdown landed.
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        self.roundtrip(&Request::Shutdown).map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{DatasetRegistry, DatasetSpec};
    use crate::server::Server;
    use crate::service::{MrqService, ServiceConfig};
    use std::io::Write;
    use std::sync::Arc;

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

    #[test]
    fn client_query_stats_list_ping() {
        let server = demo_server();
        let mut client = Client::connect(server.local_addr()).unwrap();
        client.ping().unwrap();

        let reply = client.query("demo", 5).unwrap();
        assert_eq!(reply.k_star, 3);
        assert_eq!(reply.region_count, 2);
        assert_eq!(reply.orders.len(), 2);
        assert_eq!(reply.algorithm, "aa2d");
        assert!(!reply.cached);
        // Witnesses are full-dimensional permissible vectors.
        for w in &reply.witnesses {
            assert_eq!(w.len(), 2);
            assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }

        let again = client.query("demo", 5).unwrap();
        assert!(again.cached);
        assert_eq!(again.k_star, 3);

        let stats = client.stats().unwrap();
        assert_eq!(stats.get("mrq_cache_hits_total"), Some(1));
        assert_eq!(stats.get("mrq_pool_workers"), Some(2));
        // Per-dataset totals round-trip through the wire format.
        assert_eq!(stats.get_for("mrq_dataset_queries_total", "demo"), Some(1));
        assert_eq!(
            stats.get_for("mrq_dataset_cache_hits_total", "demo"),
            Some(1)
        );
        assert!(stats.get_for("mrq_dataset_io_reads_total", "demo").unwrap() > 0);

        assert_eq!(client.list().unwrap(), vec![("demo".to_string(), 6, 2)]);

        // Errors surface as ClientError::Server.
        let err = client.query("demo", 99).unwrap_err();
        assert!(matches!(err, ClientError::Server { .. }), "{err}");
        server.shutdown();
    }

    #[test]
    fn client_max_regions_caps_payload_not_count() {
        let server = demo_server();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let reply = client
            .query_with(
                "demo",
                5,
                QueryOptions {
                    max_regions: Some(1),
                    ..QueryOptions::default()
                },
            )
            .unwrap();
        assert_eq!(reply.region_count, 2);
        assert_eq!(reply.orders.len(), 1);
        assert_eq!(reply.witnesses.len(), 1);
        server.shutdown();
    }

    #[test]
    fn client_update_round_trip() {
        let server = demo_server();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let before = client.query("demo", 5).unwrap();
        assert_eq!(before.version, 0);
        assert_eq!(before.k_star, 3);

        let reply = client.update("demo", &[vec![0.95, 0.95]], &[0]).unwrap();
        assert_eq!(
            reply,
            UpdateReply {
                version: 2,
                records: 6,
                inserted: vec![6],
                deleted: 1,
            }
        );

        // A follow-up query runs at the new version.  Record 0 was deleted,
        // but the new record dominates the focal, so k* stays 3: the two
        // rank shifts cancel and the cached entry is carried.
        let after = client.query("demo", 5).unwrap();
        assert_eq!(after.version, 2);
        assert_eq!(after.k_star, 3);
        assert!(after.cached);

        // LIST reports the live record count (6: one slot of 7 is a
        // tombstone), consistent with the update reply.
        assert_eq!(client.list().unwrap(), vec![("demo".to_string(), 6, 2)]);

        // Errors surface as server errors, and the dataset is untouched.
        let err = client.update("demo", &[], &[0]).unwrap_err();
        assert!(matches!(err, ClientError::Server { .. }), "{err}");
        let err = client.update("demo", &[vec![0.1]], &[]).unwrap_err();
        assert!(matches!(err, ClientError::Server { .. }), "{err}");
        assert_eq!(client.query("demo", 5).unwrap().version, 2);

        // Querying the deleted focal yields a friendly server error.
        let err = client.query("demo", 0).unwrap_err();
        match err {
            ClientError::Server { message, .. } => {
                assert!(message.contains("deleted"), "{message}")
            }
            other => panic!("expected server error, got {other}"),
        }
        server.shutdown();
    }

    #[test]
    fn client_subscribe_notify_round_trip() {
        let server = demo_server();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let ack = client.subscribe("demo", 5, Algorithm::Auto, 0).unwrap();
        assert_eq!(ack.k_star, 3);
        assert_eq!(ack.version, 0);
        assert_eq!(ack.algorithm, "aa2d");
        assert_eq!(ack.orders.len(), ack.region_count);

        // An unaffected update produces no NOTIFY — the wait times out.
        let mut updater = Client::connect(server.local_addr()).unwrap();
        updater.update("demo", &[vec![0.05, 0.05]], &[]).unwrap();
        assert_eq!(
            client
                .wait_notify(Some(Duration::from_millis(600)))
                .unwrap(),
            None
        );
        let stats = updater.stats().unwrap();
        assert_eq!(stats.get("mrq_subscriptions_active"), Some(1));
        assert_eq!(
            stats.get("mrq_subscription_unaffected_skips_total"),
            Some(1)
        );
        assert!(
            stats.get("mrq_cache_evictions_stale_total").unwrap()
                <= stats.get("mrq_cache_evictions_total").unwrap() + 1
        );

        // A dominating insert must push a change with the new version.
        updater.update("demo", &[vec![0.95, 0.95]], &[]).unwrap();
        let notification = client
            .wait_notify(Some(Duration::from_secs(5)))
            .unwrap()
            .expect("a change NOTIFY");
        match notification {
            Notification::Changed(reply) => {
                assert_eq!(reply.subscription, ack.subscription);
                assert_eq!(reply.version, 2);
                assert_eq!(reply.k_star, 4);
                assert_eq!(reply.orders.len(), reply.region_count);
            }
            other => panic!("expected change, got {other:?}"),
        }

        // Deleting the focal cancels the subscription.
        updater.update("demo", &[], &[5]).unwrap();
        let notification = client
            .wait_notify(Some(Duration::from_secs(5)))
            .unwrap()
            .expect("a cancellation NOTIFY");
        match notification {
            Notification::Cancelled {
                reason, version, ..
            } => {
                assert!(reason.contains("deleted"), "{reason}");
                assert_eq!(version, 3);
            }
            other => panic!("expected cancellation, got {other:?}"),
        }
        assert_eq!(
            updater.stats().unwrap().get("mrq_subscriptions_active"),
            Some(0)
        );

        // The connection still answers ordinary requests afterwards.
        client.ping().unwrap();
        server.shutdown();
    }

    #[test]
    fn client_unsubscribe_round_trip() {
        let server = demo_server();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let ack = client.subscribe("demo", 5, Algorithm::Auto, 1).unwrap();
        client.unsubscribe(ack.subscription).unwrap();
        // A second unsubscribe of the same id is a server error.
        let err = client.unsubscribe(ack.subscription).unwrap_err();
        match err {
            ClientError::Server { message, .. } => {
                assert!(message.contains("unknown subscription"), "{message}")
            }
            other => panic!("expected server error, got {other}"),
        }
        // No NOTIFY arrives for an affecting update once unsubscribed.
        client.update("demo", &[vec![0.95, 0.95]], &[]).unwrap();
        assert_eq!(
            client
                .wait_notify(Some(Duration::from_millis(600)))
                .unwrap(),
            None
        );
        server.shutdown();
    }

    #[test]
    fn wait_notify_deadline_covers_only_the_start_of_a_frame() {
        // A raw listener stands in for the server, to control the timing of
        // every byte.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = Client::connect(listener.local_addr().unwrap()).unwrap();
        let (mut peer, _) = listener.accept().unwrap();

        // Silence past the deadline: no frame.
        let start = Instant::now();
        let got = client.wait_notify(Some(Duration::from_millis(50))).unwrap();
        assert_eq!(got, None);
        assert!(
            start.elapsed() < Duration::from_millis(180),
            "wait_notify overran its deadline: {:?}",
            start.elapsed()
        );

        // A frame that starts inside the deadline and ends after it comes
        // back whole.
        let payload = "{\"notify\":true,\"cancelled\":true,\"subscription\":3,\
                       \"dataset\":\"demo\",\"focal\":5,\"version\":7,\"reason\":\"gone\"}";
        let sender = std::thread::spawn(move || {
            let (head, tail) = payload.split_at(10);
            write!(peer, "{}\n{head}", payload.len()).unwrap();
            std::thread::sleep(Duration::from_millis(150));
            peer.write_all(tail.as_bytes()).unwrap();
            peer
        });
        let got = client
            .wait_notify(Some(Duration::from_millis(250)))
            .unwrap()
            .expect("a frame that started in time");
        assert_eq!(
            got,
            Notification::Cancelled {
                subscription: 3,
                dataset: "demo".into(),
                focal: 5,
                version: 7,
                reason: "gone".into(),
            }
        );
        drop(sender.join().unwrap());
    }

    #[test]
    fn a_timed_out_wait_leaves_no_timeout_on_the_next_round_trip() {
        // `wait_notify` arms the socket's read timeout (after a round trip
        // has cleared it once); the round trip after it must wait without
        // one, however late the reply comes.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = Client::connect(listener.local_addr().unwrap()).unwrap();
        let (peer, _) = listener.accept().unwrap();
        let responder = std::thread::spawn(move || {
            let mut writer = peer.try_clone().unwrap();
            let mut reader = BufReader::new(peer);
            for delay in [0, 200] {
                let request = read_frame(&mut reader).unwrap().expect("request frame");
                assert!(request.contains("\"ping\""), "{request}");
                std::thread::sleep(Duration::from_millis(delay));
                write_frame(&mut writer, "{\"ok\":true,\"pong\":true}").unwrap();
            }
            reader
        });
        client.ping().unwrap();
        let got = client.wait_notify(Some(Duration::from_millis(50))).unwrap();
        assert_eq!(got, None);
        client.ping().unwrap();
        drop(responder.join().unwrap());
    }

    #[test]
    fn update_with_request_id_is_exactly_once() {
        let server = demo_server();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let first = client
            .update_with_id("demo", &[vec![0.9, 0.9]], &[], Some("op-1"))
            .unwrap();
        // The "retry": same id, same connection — the server must replay the
        // receipt, not apply the batch again.
        let second = client
            .update_with_id("demo", &[vec![0.9, 0.9]], &[], Some("op-1"))
            .unwrap();
        assert_eq!(first, second);
        assert_eq!(client.query("demo", 5).unwrap().version, first.version);
        let stats = client.stats().unwrap();
        assert_eq!(stats.get("mrq_update_dedup_hits_total"), Some(1));
        server.shutdown();
    }

    #[test]
    fn retrying_client_rides_out_server_busy_sheds() {
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
            crate::server::ServerConfig {
                max_connections: 1,
                ..crate::server::ServerConfig::default()
            },
        )
        .unwrap();
        // One connection hogs the single slot…
        let mut holder = Client::connect(server.local_addr()).unwrap();
        holder.ping().unwrap();
        // …and releases it shortly, while the retrying client backs off.
        let release = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(300));
            drop(holder);
        });
        let mut client = Client::connect_with_retry(
            server.local_addr(),
            RetryPolicy {
                max_retries: 20,
                base_backoff: Duration::from_millis(25),
                max_backoff: Duration::from_millis(200),
                seed: 7,
            },
        )
        .unwrap();
        client.ping().expect("retries must outlast the busy spell");
        assert!(client.retries_performed() >= 1);
        assert!(
            server.service().stats().reliability.connections_shed >= 1,
            "the busy spell must have shed at least one attempt"
        );
        release.join().unwrap();
        server.shutdown();
    }

    #[test]
    fn non_retryable_errors_fail_fast_even_with_policy() {
        let server = demo_server();
        let mut client = Client::connect_with_retry(
            server.local_addr(),
            RetryPolicy {
                max_retries: 5,
                base_backoff: Duration::from_millis(5),
                max_backoff: Duration::from_millis(10),
                seed: 3,
            },
        )
        .unwrap();
        let err = client.query("demo", 99).unwrap_err();
        assert!(
            matches!(
                err,
                ClientError::Server {
                    retryable: false,
                    ..
                }
            ),
            "{err}"
        );
        assert_eq!(client.retries_performed(), 0);
        server.shutdown();
    }

    #[test]
    fn client_shutdown_round_trip() {
        let server = demo_server();
        let mut client = Client::connect(server.local_addr()).unwrap();
        client.shutdown_server().unwrap();
        server.wait();
    }
}
