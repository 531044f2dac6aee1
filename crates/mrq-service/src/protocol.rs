//! The wire protocol: length-prefixed frames carrying one-line JSON-ish
//! payloads, plus the request/response vocabulary.
//!
//! # Frame grammar
//!
//! ```text
//! frame   := length "\n" payload
//! length  := ASCII decimal byte count of payload (<= 16 MiB)
//! payload := a JSON object, UTF-8, no trailing newline required
//! ```
//!
//! The length prefix makes framing trivial and the newline keeps a captured
//! byte stream human-readable (`nc` output looks like lines).  The payload
//! is a strict subset of JSON — objects, arrays, strings, finite numbers,
//! booleans, `null` — implemented in [`json`] with no external crates.
//! Every sender here hands a frame to the socket in one write, so it
//! usually crosses loopback as one segment; [`read_frame`] accepts any
//! segmentation.
//!
//! # Requests
//!
//! ```text
//! {"cmd":"query","dataset":"hotels","focal":17,"algorithm":"auto","tau":0,
//!  "timeout_ms":5000,"no_cache":false,"max_regions":16,"threads":4}
//! {"cmd":"update","dataset":"hotels","insert":[[0.4,0.7,0.2,0.9]],"delete":[17]}
//! {"cmd":"subscribe","dataset":"hotels","focal":17,"algorithm":"auto","tau":0}
//! {"cmd":"unsubscribe","subscription":3}
//! {"cmd":"metrics"}   {"cmd":"list"}   {"cmd":"ping"}   {"cmd":"shutdown"}
//! ```
//!
//! Only `dataset` and `focal` are required for `query`; `max_regions` caps
//! how many regions the response carries (default: all), and `threads` asks
//! the server to shard the within-leaf cell enumeration of this one request
//! (default 1; the server clamps the value).  `update` carries at least one
//! of `insert` (rows) / `delete` (record ids); the batch is applied
//! atomically and in order (inserts first as listed, then deletes).
//!
//! # Responses
//!
//! Every response object carries `"ok"`.  Errors: `{"ok":false,"error":m}`.
//! `query` answers carry `k_star`, `tau`, `algorithm`, `region_count`,
//! `cached`, `version`, `io_reads`, `cpu_us` and per-region `orders` /
//! `witnesses` (the representative full-dimensional preference vectors);
//! `update` answers carry the new `version`, the live `records` count, the
//! assigned `inserted` ids and the `deleted` count.
//!
//! # Server push
//!
//! A connection that subscribed may additionally receive `NOTIFY` frames —
//! the only frames a server sends unprompted.  They use the same frame
//! grammar but carry `"notify":true` instead of `"ok"`, which is how
//! clients separate them from the reply to an in-flight request.  The
//! server only emits them between request/response exchanges of the
//! connection, never inside one.
//!
//! The complete wire-format specification — framing, every verb, every
//! error, the `threads` clamp and the pool semantics — lives in
//! `docs/PROTOCOL.md`.

use crate::error::ServiceError;
use crate::registry::UpdateOutcome;
use crate::service::QueryAnswer;
use crate::subscriptions::{NotifyEvent, NotifyKind, Subscription};
use json::Json;
use mrq_core::{Algorithm, MaxRankResult};
use mrq_data::{RecordId, Update};
use std::io::{BufRead, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::Instant;

/// Maximum accepted payload size (defends the server against bogus prefixes).
pub const MAX_FRAME_BYTES: usize = 16 * 1024 * 1024;

/// Maximum accepted frame-header (length prefix + newline) size.  A peer
/// that streams bytes without ever sending the newline must not be able to
/// grow the header buffer without bound.
pub const MAX_HEADER_BYTES: usize = 32;

/// Writes one frame with a single `write_all`, so over a `TCP_NODELAY`
/// socket it leaves as one segment rather than one per piece.
pub fn write_frame(w: &mut impl Write, payload: &str) -> std::io::Result<()> {
    let mut frame = Vec::with_capacity(payload.len() + 8);
    encode_frame(&mut frame, payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Appends one frame, `length "\n" payload`, to `buf`.
pub(crate) fn encode_frame(buf: &mut Vec<u8>, payload: &str) {
    buf.extend_from_slice(payload.len().to_string().as_bytes());
    buf.push(b'\n');
    buf.extend_from_slice(payload.as_bytes());
}

/// Reads one frame; `Ok(None)` on clean EOF before any byte of a frame.
///
/// This is the one frame decoder: the server, the client and the tests all
/// read through it.  A malformed frame is `InvalidData`, a stream that ends
/// inside a frame is `UnexpectedEof`; over a socket read with a deadline,
/// an expired deadline surfaces as `TimedOut`.
pub fn read_frame(r: &mut impl BufRead) -> std::io::Result<Option<String>> {
    let mut header = Vec::new();
    r.by_ref()
        .take(MAX_HEADER_BYTES as u64)
        .read_until(b'\n', &mut header)?;
    if header.is_empty() {
        return Ok(None);
    }
    if header.last() != Some(&b'\n') {
        return Err(if header.len() >= MAX_HEADER_BYTES {
            bad_data("frame length prefix too long")
        } else {
            truncated("truncated frame header")
        });
    }
    let text = std::str::from_utf8(&header)
        .map_err(|_| bad_data("frame length prefix is not UTF-8"))?
        .trim();
    let len: usize = text
        .parse()
        .map_err(|_| bad_data(&format!("bad frame length prefix '{text}'")))?;
    if len > MAX_FRAME_BYTES {
        return Err(bad_data(&format!("frame of {len} bytes exceeds limit")));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload).map_err(|e| match e.kind() {
        ErrorKind::UnexpectedEof => truncated("truncated frame payload"),
        _ => e,
    })?;
    String::from_utf8(payload)
        .map(Some)
        .map_err(|_| bad_data("frame payload is not UTF-8"))
}

fn bad_data(msg: &str) -> std::io::Error {
    std::io::Error::new(ErrorKind::InvalidData, msg)
}

fn truncated(msg: &str) -> std::io::Error {
    std::io::Error::new(ErrorKind::UnexpectedEof, msg)
}

/// A writer that keeps its bytes and counts its `write` calls, for tests
/// that pin how many writes (and so segments) a message takes.
#[cfg(test)]
#[derive(Debug, Default)]
pub(crate) struct CountingWriter {
    pub(crate) bytes: Vec<u8>,
    pub(crate) writes: usize,
}

#[cfg(test)]
impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.writes += 1;
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A socket whose reads share one deadline: each `read` arms the socket's
/// read timeout with whatever time is left, so the deadline bounds the
/// whole sequence of reads rather than each one.  Once it has passed, a
/// read fails with `TimedOut` without touching the socket.  `None` blocks
/// without limit.  Behind a `BufReader`, reads the buffer can serve never
/// reach the socket at all.
///
/// The stream remembers whether the socket's timeout is known to be off,
/// so a deadline-free read makes no `setsockopt` call unless a read with a
/// deadline armed the timeout since the last one cleared it.  An idle wait
/// therefore never inherits an expired timeout.
#[derive(Debug)]
pub(crate) struct DeadlineStream {
    stream: TcpStream,
    pub(crate) deadline: Option<Instant>,
    /// The socket's read timeout is known to be off.
    timeout_clear: bool,
}

impl DeadlineStream {
    /// Wraps `stream`, whose read timeout is not assumed to be off: the
    /// first deadline-free read clears it.
    pub(crate) fn new(stream: TcpStream, deadline: Option<Instant>) -> Self {
        Self {
            stream,
            deadline,
            timeout_clear: false,
        }
    }
}

impl Read for DeadlineStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self.deadline {
            None if self.timeout_clear => {}
            None => {
                self.stream.set_read_timeout(None)?;
                self.timeout_clear = true;
            }
            Some(deadline) => {
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    return Err(ErrorKind::TimedOut.into());
                }
                self.timeout_clear = false;
                self.stream.set_read_timeout(Some(left))?;
            }
        }
        // An expired socket timeout reads as `WouldBlock` on some platforms.
        self.stream.read(buf).map_err(|e| match e.kind() {
            ErrorKind::WouldBlock => ErrorKind::TimedOut.into(),
            _ => e,
        })
    }
}

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Evaluate MaxRank / iMaxRank for a focal record.
    Query {
        /// Registered dataset name.
        dataset: String,
        /// Focal record id.
        focal: RecordId,
        /// Requested algorithm.
        algorithm: Algorithm,
        /// iMaxRank slack.
        tau: usize,
        /// Optional per-request deadline in milliseconds.
        timeout_ms: Option<u64>,
        /// Bypass the result cache.
        no_cache: bool,
        /// Cap on the number of regions in the response (None = all).
        max_regions: Option<usize>,
        /// Threads for the within-leaf cell enumeration (1 = sequential).
        threads: usize,
    },
    /// Mutate a dataset: insert rows and/or delete records, atomically.
    Update {
        /// Registered dataset name.
        dataset: String,
        /// Rows to insert (each must match the dataset dimensionality).
        inserts: Vec<Vec<f64>>,
        /// Ids of live records to delete.
        deletes: Vec<RecordId>,
        /// Optional client-generated idempotency key: a retry carrying the
        /// same id replays the original receipt instead of re-applying (see
        /// `registry::DEDUP_WINDOW`).
        request_id: Option<String>,
    },
    /// Register a standing query: the server keeps the focal's result
    /// resident, maintains it under updates and pushes `NOTIFY` frames on
    /// change.
    Subscribe {
        /// Registered dataset name.
        dataset: String,
        /// Focal record id.
        focal: RecordId,
        /// Requested algorithm (used for the initial evaluation and every
        /// re-enumeration).
        algorithm: Algorithm,
        /// iMaxRank slack.
        tau: usize,
    },
    /// Cancel a standing query by its server-assigned id.
    Unsubscribe {
        /// Subscription id from the `subscribe` acknowledgement.
        subscription: u64,
    },
    /// Registered dataset names and shapes.
    List,
    /// Liveness probe.
    Ping,
    /// Ask the server to shut down gracefully.
    Shutdown,
    /// Fetch every counter as Prometheus-format text (the protocol-level
    /// twin of the `--metrics-port` HTTP endpoint).  `{"cmd":"stats"}`
    /// parses to this verb too.
    Metrics,
}

impl Request {
    /// Encodes the request as a payload string.
    pub fn encode(&self) -> String {
        let mut obj: Vec<(String, Json)> = Vec::new();
        let cmd = match self {
            Request::Query {
                dataset,
                focal,
                algorithm,
                tau,
                timeout_ms,
                no_cache,
                max_regions,
                threads,
            } => {
                obj.push(("dataset".into(), Json::Str(dataset.clone())));
                obj.push(("focal".into(), Json::Num(*focal as f64)));
                obj.push(("algorithm".into(), Json::Str(algorithm.name().into())));
                obj.push(("tau".into(), Json::Num(*tau as f64)));
                if let Some(ms) = timeout_ms {
                    obj.push(("timeout_ms".into(), Json::Num(*ms as f64)));
                }
                if *no_cache {
                    obj.push(("no_cache".into(), Json::Bool(true)));
                }
                if let Some(m) = max_regions {
                    obj.push(("max_regions".into(), Json::Num(*m as f64)));
                }
                if *threads > 1 {
                    obj.push(("threads".into(), Json::Num(*threads as f64)));
                }
                "query"
            }
            Request::Update {
                dataset,
                inserts,
                deletes,
                request_id,
            } => {
                obj.push(("dataset".into(), Json::Str(dataset.clone())));
                if let Some(id) = request_id {
                    obj.push(("request_id".into(), Json::Str(id.clone())));
                }
                if !inserts.is_empty() {
                    obj.push((
                        "insert".into(),
                        Json::Arr(
                            inserts
                                .iter()
                                .map(|row| Json::Arr(row.iter().copied().map(Json::Num).collect()))
                                .collect(),
                        ),
                    ));
                }
                if !deletes.is_empty() {
                    obj.push((
                        "delete".into(),
                        Json::Arr(deletes.iter().map(|id| Json::Num(*id as f64)).collect()),
                    ));
                }
                "update"
            }
            Request::Subscribe {
                dataset,
                focal,
                algorithm,
                tau,
            } => {
                obj.push(("dataset".into(), Json::Str(dataset.clone())));
                obj.push(("focal".into(), Json::Num(*focal as f64)));
                obj.push(("algorithm".into(), Json::Str(algorithm.name().into())));
                obj.push(("tau".into(), Json::Num(*tau as f64)));
                "subscribe"
            }
            Request::Unsubscribe { subscription } => {
                obj.push(("subscription".into(), Json::Num(*subscription as f64)));
                "unsubscribe"
            }
            Request::List => "list",
            Request::Ping => "ping",
            Request::Shutdown => "shutdown",
            Request::Metrics => "metrics",
        };
        obj.insert(0, ("cmd".into(), Json::Str(cmd.into())));
        Json::Obj(obj).to_string()
    }

    /// Parses a payload string.
    pub fn parse(payload: &str) -> Result<Request, String> {
        let value = json::parse(payload)?;
        let cmd = value
            .get("cmd")
            .and_then(Json::as_str)
            .ok_or("request needs a string 'cmd' field")?;
        match cmd {
            "list" => Ok(Request::List),
            "ping" => Ok(Request::Ping),
            "shutdown" => Ok(Request::Shutdown),
            "metrics" | "stats" => Ok(Request::Metrics),
            "query" => {
                let (dataset, focal, algorithm, tau) = focal_fields(&value, cmd)?;
                let timeout_ms = match value.get("timeout_ms") {
                    None => None,
                    Some(v) => Some(
                        v.as_usize()
                            .ok_or("'timeout_ms' must be a non-negative integer")?
                            as u64,
                    ),
                };
                let no_cache = match value.get("no_cache") {
                    None => false,
                    Some(v) => v.as_bool().ok_or("'no_cache' must be a boolean")?,
                };
                let max_regions = match value.get("max_regions") {
                    None => None,
                    Some(v) => Some(
                        v.as_usize()
                            .ok_or("'max_regions' must be a non-negative integer")?,
                    ),
                };
                let threads = match value.get("threads") {
                    None => 1,
                    Some(v) => v
                        .as_usize()
                        .filter(|&t| t >= 1)
                        .ok_or("'threads' must be a positive integer")?,
                };
                Ok(Request::Query {
                    dataset,
                    focal,
                    algorithm,
                    tau,
                    timeout_ms,
                    no_cache,
                    max_regions,
                    threads,
                })
            }
            "subscribe" => {
                let (dataset, focal, algorithm, tau) = focal_fields(&value, cmd)?;
                Ok(Request::Subscribe {
                    dataset,
                    focal,
                    algorithm,
                    tau,
                })
            }
            "unsubscribe" => {
                let subscription = value
                    .get("subscription")
                    .and_then(Json::as_usize)
                    .ok_or("unsubscribe needs a non-negative integer 'subscription'")?;
                Ok(Request::Unsubscribe {
                    subscription: subscription as u64,
                })
            }
            "update" => {
                let dataset = value
                    .get("dataset")
                    .and_then(Json::as_str)
                    .ok_or("update needs a string 'dataset'")?
                    .to_string();
                let inserts = match value.get("insert") {
                    None => Vec::new(),
                    Some(v) => v
                        .as_array()
                        .ok_or("'insert' must be an array of rows")?
                        .iter()
                        .map(|row| {
                            row.as_array()
                                .ok_or("'insert' rows must be arrays of numbers")?
                                .iter()
                                .map(|x| {
                                    x.as_f64().ok_or("'insert' rows must be arrays of numbers")
                                })
                                .collect::<Result<Vec<f64>, _>>()
                        })
                        .collect::<Result<Vec<Vec<f64>>, _>>()
                        .map_err(str::to_string)?,
                };
                let deletes = match value.get("delete") {
                    None => Vec::new(),
                    Some(v) => v
                        .as_array()
                        .ok_or("'delete' must be an array of record ids")?
                        .iter()
                        .map(|x| {
                            x.as_usize()
                                .filter(|&id| id <= RecordId::MAX as usize)
                                .map(|id| id as RecordId)
                                .ok_or("'delete' entries must be record ids")
                        })
                        .collect::<Result<Vec<RecordId>, _>>()
                        .map_err(str::to_string)?,
                };
                if inserts.is_empty() && deletes.is_empty() {
                    return Err("update needs at least one insert or delete".into());
                }
                let request_id = match value.get("request_id") {
                    None => None,
                    Some(v) => {
                        let id = v.as_str().ok_or("'request_id' must be a string")?;
                        if id.is_empty() {
                            return Err("'request_id' must not be empty".into());
                        }
                        if id.len() > 128 {
                            return Err("'request_id' must be at most 128 bytes".into());
                        }
                        Some(id.to_string())
                    }
                };
                Ok(Request::Update {
                    dataset,
                    inserts,
                    deletes,
                    request_id,
                })
            }
            other => Err(format!("unknown command '{other}'")),
        }
    }
}

/// Parses the `dataset`, `focal`, `algorithm` and `tau` fields shared by the
/// `query` and `subscribe` verbs; `verb` names the request in error messages.
fn focal_fields(value: &Json, verb: &str) -> Result<(String, RecordId, Algorithm, usize), String> {
    let dataset = value
        .get("dataset")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{verb} needs a string 'dataset'"))?
        .to_string();
    let focal = value
        .get("focal")
        .and_then(Json::as_usize)
        .ok_or_else(|| format!("{verb} needs a non-negative integer 'focal'"))?;
    if focal > RecordId::MAX as usize {
        return Err(format!("focal {focal} exceeds the record id range"));
    }
    let algorithm = match value.get("algorithm") {
        None => Algorithm::Auto,
        Some(v) => {
            let name = v.as_str().ok_or("'algorithm' must be a string")?;
            Algorithm::from_name(name).ok_or_else(|| format!("unknown algorithm '{name}'"))?
        }
    };
    let tau = match value.get("tau") {
        None => 0,
        Some(v) => v.as_usize().ok_or("'tau' must be a non-negative integer")?,
    };
    Ok((dataset, focal as RecordId, algorithm, tau))
}

/// Renders an error response payload.  Every error carries its
/// `retryable` classification (see [`ServiceError::retryable`]); capacity
/// errors additionally carry a `retry_after_ms` backoff hint.
pub fn error_payload(err: &ServiceError) -> String {
    let mut obj = vec![
        ("ok".into(), Json::Bool(false)),
        ("error".into(), Json::Str(err.to_string())),
        ("retryable".into(), Json::Bool(err.retryable())),
    ];
    if let Some(ms) = err.retry_after_ms() {
        obj.push(("retry_after_ms".into(), Json::Num(ms as f64)));
    }
    Json::Obj(obj).to_string()
}

/// Renders a `query` answer payload.
pub fn query_payload(answer: &QueryAnswer, max_regions: Option<usize>) -> String {
    let result = &answer.result;
    let (orders, witnesses) = region_arrays(result, max_regions);
    Json::Obj(vec![
        ("ok".into(), Json::Bool(true)),
        ("k_star".into(), Json::Num(result.k_star as f64)),
        ("tau".into(), Json::Num(result.tau as f64)),
        (
            "algorithm".into(),
            Json::Str(answer.algorithm.name().into()),
        ),
        (
            "region_count".into(),
            Json::Num(result.region_count() as f64),
        ),
        ("cached".into(), Json::Bool(answer.cached)),
        ("version".into(), Json::Num(answer.version as f64)),
        ("io_reads".into(), Json::Num(result.stats.io_reads as f64)),
        (
            "cpu_us".into(),
            Json::Num(result.stats.cpu_time.as_micros() as f64),
        ),
        ("orders".into(), orders),
        ("witnesses".into(), witnesses),
    ])
    .to_string()
}

/// The per-region `orders` and `witnesses` arrays, over at most `cap`
/// regions (`None` = all).
fn region_arrays(result: &MaxRankResult, cap: Option<usize>) -> (Json, Json) {
    let (orders, witnesses) = result
        .regions
        .iter()
        .take(cap.unwrap_or(usize::MAX))
        .map(|region| {
            let witness = region.representative_query().into_iter().map(Json::Num);
            (Json::Num(region.order as f64), Json::Arr(witness.collect()))
        })
        .unzip();
    (Json::Arr(orders), Json::Arr(witnesses))
}

/// The result-describing fields shared by `subscribe` acknowledgements and
/// `NOTIFY` frames: `k_star`, `tau`, `algorithm`, `region_count` and the
/// per-region `orders` / `witnesses`.
fn result_fields(result: &MaxRankResult, algorithm: Algorithm) -> Vec<(String, Json)> {
    let (orders, witnesses) = region_arrays(result, None);
    vec![
        ("k_star".into(), Json::Num(result.k_star as f64)),
        ("tau".into(), Json::Num(result.tau as f64)),
        ("algorithm".into(), Json::Str(algorithm.name().into())),
        (
            "region_count".into(),
            Json::Num(result.region_count() as f64),
        ),
        ("orders".into(), orders),
        ("witnesses".into(), witnesses),
    ]
}

/// Renders a `subscribe` acknowledgement: the assigned subscription id plus
/// the initial result at the registration version.
pub fn subscribed_payload(sub: &Subscription) -> String {
    let (result, version) = sub.snapshot();
    let mut obj = vec![
        ("ok".into(), Json::Bool(true)),
        ("subscription".into(), Json::Num(sub.id() as f64)),
        ("dataset".into(), Json::Str(sub.dataset().into())),
        ("focal".into(), Json::Num(sub.focal() as f64)),
        ("version".into(), Json::Num(version as f64)),
    ];
    obj.extend(result_fields(&result, sub.algorithm()));
    Json::Obj(obj).to_string()
}

/// Renders an `unsubscribe` acknowledgement.
pub fn unsubscribed_payload(subscription: u64) -> String {
    Json::Obj(vec![
        ("ok".into(), Json::Bool(true)),
        ("unsubscribed".into(), Json::Num(subscription as f64)),
    ])
    .to_string()
}

/// Renders one server-push `NOTIFY` frame.  These are *not* responses: the
/// marker field `"notify"` (instead of `"ok"`) is how clients tell them
/// apart from the reply to whatever request may be in flight.
pub fn notify_payload(event: &NotifyEvent) -> String {
    let mut obj = vec![
        ("notify".into(), Json::Bool(true)),
        ("subscription".into(), Json::Num(event.subscription as f64)),
        ("dataset".into(), Json::Str(event.dataset.clone())),
        ("focal".into(), Json::Num(event.focal as f64)),
        ("version".into(), Json::Num(event.version as f64)),
    ];
    match &event.kind {
        NotifyKind::Changed { result, algorithm } => {
            obj.extend(result_fields(result, *algorithm));
        }
        NotifyKind::Cancelled { reason } => {
            obj.push(("cancelled".into(), Json::Bool(true)));
            obj.push(("reason".into(), Json::Str(reason.clone())));
        }
    }
    Json::Obj(obj).to_string()
}

/// Renders an `update` acknowledgement from the applied outcome.
pub fn update_payload(outcome: &UpdateOutcome) -> String {
    Json::Obj(vec![
        ("ok".into(), Json::Bool(true)),
        ("version".into(), Json::Num(outcome.version as f64)),
        ("records".into(), Json::Num(outcome.records as f64)),
        (
            "inserted".into(),
            Json::Arr(
                outcome
                    .inserted
                    .iter()
                    .map(|id| Json::Num(*id as f64))
                    .collect(),
            ),
        ),
        ("deleted".into(), Json::Num(outcome.deleted as f64)),
    ])
    .to_string()
}

/// Converts a parsed `update` request body into the `mrq_data` update batch
/// the service applies: the inserts in listed order, then the deletes.
pub fn update_batch(inserts: &[Vec<f64>], deletes: &[RecordId]) -> Vec<Update> {
    inserts
        .iter()
        .map(|row| Update::Insert(row.clone()))
        .chain(deletes.iter().map(|id| Update::Delete(*id)))
        .collect()
}

/// Renders a `list` payload from `(name, records, dims)` triples.
pub fn list_payload(datasets: &[(String, usize, usize)]) -> String {
    Json::Obj(vec![
        ("ok".into(), Json::Bool(true)),
        (
            "datasets".into(),
            Json::Arr(
                datasets
                    .iter()
                    .map(|(name, n, d)| {
                        Json::Obj(vec![
                            ("name".into(), Json::Str(name.clone())),
                            ("records".into(), Json::Num(*n as f64)),
                            ("dims".into(), Json::Num(*d as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
    .to_string()
}

/// Renders the `metrics` reply: the Prometheus exposition text embedded as
/// a JSON *string*, so the integer-exact rendering survives the wire (JSON
/// numbers go through f64 and lose exactness past 2^53; strings do not).
pub fn metrics_payload(text: &str) -> String {
    Json::Obj(vec![
        ("ok".into(), Json::Bool(true)),
        ("metrics".into(), Json::Str(text.to_string())),
    ])
    .to_string()
}

/// Renders the `ping` reply.
pub fn pong_payload() -> String {
    Json::Obj(vec![
        ("ok".into(), Json::Bool(true)),
        ("pong".into(), Json::Bool(true)),
    ])
    .to_string()
}

/// Renders the `shutdown` acknowledgement.
pub fn bye_payload() -> String {
    Json::Obj(vec![
        ("ok".into(), Json::Bool(true)),
        ("bye".into(), Json::Bool(true)),
    ])
    .to_string()
}

/// A minimal JSON subset: objects, arrays, strings, finite `f64` numbers,
/// booleans and `null`.  Object key order is preserved.  This exists because
/// the container has no route to crates.io (see the workspace `Cargo.toml`);
/// it intentionally implements only what the protocol needs.
pub mod json {
    use std::fmt;

    /// A JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Json {
        /// `null` (also produced for non-finite numbers on write).
        Null,
        /// `true` / `false`.
        Bool(bool),
        /// A finite double.
        Num(f64),
        /// A string.
        Str(String),
        /// An array.
        Arr(Vec<Json>),
        /// An object with preserved key order.
        Obj(Vec<(String, Json)>),
    }

    impl Json {
        /// Object field lookup.
        pub fn get(&self, key: &str) -> Option<&Json> {
            match self {
                Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        /// The string value, if this is a string.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Json::Str(s) => Some(s),
                _ => None,
            }
        }

        /// The numeric value, if this is a number.
        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Json::Num(n) => Some(*n),
                _ => None,
            }
        }

        /// The value as a non-negative integer, if it is one exactly.
        pub fn as_usize(&self) -> Option<usize> {
            let n = self.as_f64()?;
            (n >= 0.0 && n.fract() == 0.0 && n <= usize::MAX as f64).then_some(n as usize)
        }

        /// The boolean value, if this is a boolean.
        pub fn as_bool(&self) -> Option<bool> {
            match self {
                Json::Bool(b) => Some(*b),
                _ => None,
            }
        }

        /// The elements, if this is an array.
        pub fn as_array(&self) -> Option<&[Json]> {
            match self {
                Json::Arr(items) => Some(items),
                _ => None,
            }
        }
    }

    impl fmt::Display for Json {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                Json::Null => write!(f, "null"),
                Json::Bool(b) => write!(f, "{b}"),
                Json::Num(n) => {
                    if n.is_finite() {
                        // Rust's shortest round-trip float formatting; never
                        // scientific notation, so it stays in our grammar.
                        write!(f, "{n}")
                    } else {
                        write!(f, "null")
                    }
                }
                Json::Str(s) => write_escaped(f, s),
                Json::Arr(items) => {
                    write!(f, "[")?;
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            write!(f, ",")?;
                        }
                        write!(f, "{item}")?;
                    }
                    write!(f, "]")
                }
                Json::Obj(fields) => {
                    write!(f, "{{")?;
                    for (i, (k, v)) in fields.iter().enumerate() {
                        if i > 0 {
                            write!(f, ",")?;
                        }
                        write_escaped(f, k)?;
                        write!(f, ":{v}")?;
                    }
                    write!(f, "}}")
                }
            }
        }
    }

    fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
        write!(f, "\"")?;
        for c in s.chars() {
            match c {
                '"' => write!(f, "\\\"")?,
                '\\' => write!(f, "\\\\")?,
                '\n' => write!(f, "\\n")?,
                '\r' => write!(f, "\\r")?,
                '\t' => write!(f, "\\t")?,
                c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                c => write!(f, "{c}")?,
            }
        }
        write!(f, "\"")
    }

    /// Parses a payload into a [`Json`] value (must consume the whole input).
    pub fn parse(input: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(value)
    }

    /// Maximum container nesting the parser accepts (the protocol itself
    /// needs 3 levels; the cap only exists to bound recursion).
    const MAX_DEPTH: usize = 64;

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
        depth: usize,
    }

    impl Parser<'_> {
        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn skip_ws(&mut self) {
            while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                self.pos += 1;
            }
        }

        fn expect(&mut self, byte: u8) -> Result<(), String> {
            if self.peek() == Some(byte) {
                self.pos += 1;
                Ok(())
            } else {
                Err(format!("expected '{}' at byte {}", byte as char, self.pos))
            }
        }

        fn literal(&mut self, text: &str, value: Json) -> Result<Json, String> {
            if self.bytes[self.pos..].starts_with(text.as_bytes()) {
                self.pos += text.len();
                Ok(value)
            } else {
                Err(format!("invalid literal at byte {}", self.pos))
            }
        }

        fn value(&mut self) -> Result<Json, String> {
            match self.peek() {
                None => Err("unexpected end of input".into()),
                Some(b'n') => self.literal("null", Json::Null),
                Some(b't') => self.literal("true", Json::Bool(true)),
                Some(b'f') => self.literal("false", Json::Bool(false)),
                Some(b'"') => self.string().map(Json::Str),
                Some(b'[') => self.nested(Parser::array),
                Some(b'{') => self.nested(Parser::object),
                Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
                Some(c) => Err(format!("unexpected byte '{}' at {}", c as char, self.pos)),
            }
        }

        /// The parser recurses once per nesting level; without a cap a tiny
        /// hostile frame like `"[".repeat(50_000)` would overflow the
        /// connection thread's stack and abort the whole server.
        fn nested(&mut self, f: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
            if self.depth >= MAX_DEPTH {
                return Err(format!("nesting deeper than {MAX_DEPTH} levels"));
            }
            self.depth += 1;
            let result = f(self);
            self.depth -= 1;
            result
        }

        fn array(&mut self) -> Result<Json, String> {
            self.expect(b'[')?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                self.skip_ws();
                items.push(self.value()?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
                }
            }
        }

        fn object(&mut self) -> Result<Json, String> {
            self.expect(b'{')?;
            let mut fields = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                self.skip_ws();
                let value = self.value()?;
                fields.push((key, value));
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
                }
            }
        }

        fn string(&mut self) -> Result<String, String> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                let start = self.pos;
                // Fast path: run of plain bytes.
                while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\') {
                    self.pos += 1;
                }
                out.push_str(
                    std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| "invalid UTF-8 in string".to_string())?,
                );
                match self.peek() {
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        match self.peek() {
                            Some(b'"') => out.push('"'),
                            Some(b'\\') => out.push('\\'),
                            Some(b'/') => out.push('/'),
                            Some(b'n') => out.push('\n'),
                            Some(b'r') => out.push('\r'),
                            Some(b't') => out.push('\t'),
                            Some(b'u') => {
                                let code = self.hex4()?;
                                let c = if (0xD800..0xDC00).contains(&code) {
                                    // High surrogate: conforming encoders
                                    // (e.g. json.dumps) emit non-BMP chars as
                                    // \uD8xx\uDCxx pairs — combine them.
                                    if self.bytes.get(self.pos + 1..self.pos + 3)
                                        != Some(b"\\u".as_slice())
                                    {
                                        return Err("unpaired high surrogate".into());
                                    }
                                    self.pos += 2;
                                    let low = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&low) {
                                        return Err("unpaired high surrogate".into());
                                    }
                                    let combined =
                                        0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                    char::from_u32(combined).expect("valid surrogate pair")
                                } else {
                                    // Rejects lone low surrogates.
                                    char::from_u32(code)
                                        .ok_or("\\u escape is not a scalar value")?
                                };
                                out.push(c);
                            }
                            _ => return Err(format!("bad escape at byte {}", self.pos)),
                        }
                        self.pos += 1;
                    }
                    None => return Err("unterminated string".into()),
                    _ => unreachable!("loop stops only on quote or backslash"),
                }
            }
        }

        /// Reads the 4 hex digits of a `\u` escape (cursor on the `u` or on
        /// the second `u` of a pair), leaving the cursor on the last digit.
        fn hex4(&mut self) -> Result<u32, String> {
            let hex = self
                .bytes
                .get(self.pos + 1..self.pos + 5)
                .ok_or("truncated \\u escape")?;
            let code = u32::from_str_radix(
                std::str::from_utf8(hex).map_err(|_| "bad \\u escape".to_string())?,
                16,
            )
            .map_err(|_| "bad \\u escape".to_string())?;
            self.pos += 4;
            Ok(code)
        }

        fn number(&mut self) -> Result<Json, String> {
            let start = self.pos;
            if self.peek() == Some(b'-') {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit() || c == b'.' || c == b'e' || c == b'E' || c == b'+' || c == b'-')
            {
                self.pos += 1;
            }
            let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII");
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| format!("bad number '{text}' at byte {start}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::json::{parse, Json};
    use super::*;
    use std::io::BufReader;

    #[test]
    fn json_round_trips() {
        let value = Json::Obj(vec![
            ("a".into(), Json::Num(1.5)),
            ("b".into(), Json::Str("x \"y\"\nz\\".into())),
            (
                "c".into(),
                Json::Arr(vec![Json::Null, Json::Bool(true), Json::Num(-0.25)]),
            ),
            ("d".into(), Json::Obj(vec![])),
        ]);
        let text = value.to_string();
        assert_eq!(parse(&text).unwrap(), value);
    }

    #[test]
    fn json_float_precision_round_trips() {
        for x in [0.1 + 0.2, 1.0 / 3.0, f64::MIN_POSITIVE, 1e300, -12345.678] {
            let text = Json::Num(x).to_string();
            assert_eq!(parse(&text).unwrap().as_f64().unwrap(), x, "{text}");
        }
    }

    #[test]
    fn json_rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1} x").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn json_depth_is_bounded() {
        // A deep-but-legal document parses…
        let deep = format!("{}1{}", "[".repeat(60), "]".repeat(60));
        assert!(parse(&deep).is_ok());
        // …while a hostile 50k-bracket frame errors instead of overflowing
        // the connection thread's stack.
        let hostile = "[".repeat(50_000);
        assert!(parse(&hostile).unwrap_err().contains("nesting"));
    }

    #[test]
    fn json_parses_whitespace_and_escapes() {
        let v = parse(" { \"k\" : [ 1 , \"a\\u0041\" ] } ").unwrap();
        let arr = v.get("k").unwrap().as_array().unwrap();
        assert_eq!(arr[0].as_usize(), Some(1));
        assert_eq!(arr[1].as_str(), Some("aA"));
    }

    #[test]
    fn json_surrogate_pairs() {
        // Conforming encoders (json.dumps, ensure_ascii=True) send non-BMP
        // characters as surrogate pairs.
        assert_eq!(
            parse("\"\\ud83d\\ude00\"").unwrap().as_str(),
            Some("\u{1F600}")
        );
        assert_eq!(
            parse("\"a\\uD83D\\uDE00b\"").unwrap().as_str(),
            Some("a\u{1F600}b")
        );
        assert!(parse("\"\\ud83d\"").is_err(), "unpaired high surrogate");
        assert!(
            parse("\"\\ud83dxx\"").is_err(),
            "high surrogate without \\u"
        );
        assert!(parse("\"\\ud83d\\u0041\"").is_err(), "high + non-low");
        assert!(parse("\"\\ude00\"").is_err(), "lone low surrogate");
        // Raw (unescaped) non-BMP text round-trips through the writer.
        let text = Json::Str("emoji \u{1F600}".into()).to_string();
        assert_eq!(parse(&text).unwrap().as_str(), Some("emoji \u{1F600}"));
    }

    #[test]
    fn frame_round_trips() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "{\"cmd\":\"ping\"}").unwrap();
        write_frame(&mut buf, "").unwrap();
        let mut reader = BufReader::new(buf.as_slice());
        assert_eq!(
            read_frame(&mut reader).unwrap().as_deref(),
            Some("{\"cmd\":\"ping\"}")
        );
        assert_eq!(read_frame(&mut reader).unwrap().as_deref(), Some(""));
        assert_eq!(read_frame(&mut reader).unwrap(), None);
    }

    #[test]
    fn a_frame_is_one_write_of_the_same_bytes() {
        for payload in ["{\"cmd\":\"ping\"}", "", "{\"s\":\"\u{1F600}\"}"] {
            let mut w = CountingWriter::default();
            write_frame(&mut w, payload).unwrap();
            assert_eq!(w.writes, 1, "{payload:?}");
            assert_eq!(w.bytes, format!("{}\n{payload}", payload.len()).as_bytes());
        }
    }

    #[test]
    fn frame_rejects_bad_prefix_and_oversize() {
        let mut reader = BufReader::new(&b"xyz\n{}"[..]);
        assert!(read_frame(&mut reader).is_err());
        let huge = format!("{}\n", MAX_FRAME_BYTES + 1);
        let mut reader = BufReader::new(huge.as_bytes());
        assert!(read_frame(&mut reader).is_err());
    }

    #[test]
    fn request_round_trips() {
        let requests = [
            Request::Query {
                dataset: "hotels".into(),
                focal: 17,
                algorithm: Algorithm::AdvancedApproach,
                tau: 2,
                timeout_ms: Some(5000),
                no_cache: true,
                max_regions: Some(4),
                threads: 8,
            },
            Request::Query {
                dataset: "d".into(),
                focal: 0,
                algorithm: Algorithm::Auto,
                tau: 0,
                timeout_ms: None,
                no_cache: false,
                max_regions: None,
                threads: 1,
            },
            Request::Update {
                dataset: "hotels".into(),
                inserts: vec![vec![0.25, 0.5], vec![1.0, 0.0]],
                deletes: vec![3, 17],
                request_id: None,
            },
            Request::Update {
                dataset: "d".into(),
                inserts: Vec::new(),
                deletes: vec![0],
                request_id: Some("client-7-42".into()),
            },
            Request::Update {
                dataset: "d".into(),
                inserts: vec![vec![0.5, 0.5]],
                deletes: Vec::new(),
                request_id: None,
            },
            Request::Subscribe {
                dataset: "hotels".into(),
                focal: 17,
                algorithm: Algorithm::BasicApproach,
                tau: 1,
            },
            Request::Subscribe {
                dataset: "d".into(),
                focal: 0,
                algorithm: Algorithm::Auto,
                tau: 0,
            },
            Request::Unsubscribe { subscription: 3 },
            Request::List,
            Request::Ping,
            Request::Shutdown,
            Request::Metrics,
        ];
        for req in requests {
            assert_eq!(Request::parse(&req.encode()).unwrap(), req);
        }
        // `stats` is an alias of `metrics`.
        assert_eq!(
            Request::parse("{\"cmd\":\"stats\"}").unwrap(),
            Request::Metrics
        );
    }

    #[test]
    fn subscribe_parse_errors() {
        assert!(Request::parse("{\"cmd\":\"subscribe\"}").is_err());
        assert!(Request::parse("{\"cmd\":\"subscribe\",\"dataset\":\"d\"}").is_err());
        assert!(Request::parse("{\"cmd\":\"subscribe\",\"dataset\":\"d\",\"focal\":-1}").is_err());
        assert!(Request::parse(
            "{\"cmd\":\"subscribe\",\"dataset\":\"d\",\"focal\":1,\"algorithm\":\"qp\"}"
        )
        .is_err());
        assert!(
            Request::parse("{\"cmd\":\"subscribe\",\"dataset\":\"d\",\"focal\":1,\"tau\":-2}")
                .is_err()
        );
        assert!(Request::parse("{\"cmd\":\"unsubscribe\"}").is_err());
        assert!(Request::parse("{\"cmd\":\"unsubscribe\",\"subscription\":1.5}").is_err());
        assert!(Request::parse("{\"cmd\":\"unsubscribe\",\"subscription\":-1}").is_err());
    }

    #[test]
    fn notify_payload_shapes() {
        use crate::subscriptions::{NotifyEvent, NotifyKind};
        use mrq_core::{MaxRankConfig, MaxRankQuery};
        use mrq_data::Dataset;
        use mrq_index::RStarTree;

        let data = Dataset::from_rows(
            2,
            &[
                vec![0.8, 0.9],
                vec![0.2, 0.7],
                vec![0.9, 0.4],
                vec![0.7, 0.2],
                vec![0.4, 0.3],
                vec![0.5, 0.5],
            ],
        );
        let tree = RStarTree::bulk_load(&data);
        let result =
            std::sync::Arc::new(MaxRankQuery::new(&data, &tree).evaluate(5, &MaxRankConfig::new()));
        let changed = NotifyEvent {
            subscription: 2,
            dataset: "demo".into(),
            focal: 5,
            version: 4,
            kind: NotifyKind::Changed {
                result,
                algorithm: Algorithm::AdvancedApproach2D,
            },
        };
        let v = parse(&notify_payload(&changed)).unwrap();
        assert_eq!(v.get("notify").unwrap().as_bool(), Some(true));
        assert!(v.get("ok").is_none(), "a notify frame is not a response");
        assert_eq!(v.get("subscription").unwrap().as_usize(), Some(2));
        assert_eq!(v.get("version").unwrap().as_usize(), Some(4));
        assert_eq!(v.get("k_star").unwrap().as_usize(), Some(3));
        assert_eq!(v.get("orders").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(v.get("witnesses").unwrap().as_array().unwrap().len(), 2);

        let cancelled = NotifyEvent {
            subscription: 2,
            dataset: "demo".into(),
            focal: 5,
            version: 5,
            kind: NotifyKind::Cancelled {
                reason: "focal 5 was deleted".into(),
            },
        };
        let v = parse(&notify_payload(&cancelled)).unwrap();
        assert_eq!(v.get("cancelled").unwrap().as_bool(), Some(true));
        assert!(v
            .get("reason")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("deleted"));
        assert!(v.get("k_star").is_none());
    }

    #[test]
    fn update_parse_errors() {
        // At least one operation is required.
        assert!(Request::parse("{\"cmd\":\"update\",\"dataset\":\"d\"}").is_err());
        assert!(Request::parse(
            "{\"cmd\":\"update\",\"dataset\":\"d\",\"insert\":[],\"delete\":[]}"
        )
        .is_err());
        // Malformed operand shapes.
        assert!(Request::parse("{\"cmd\":\"update\",\"insert\":[[0.1]]}").is_err());
        assert!(Request::parse("{\"cmd\":\"update\",\"dataset\":\"d\",\"insert\":[0.1]}").is_err());
        assert!(
            Request::parse("{\"cmd\":\"update\",\"dataset\":\"d\",\"insert\":[[\"x\"]]}").is_err()
        );
        assert!(Request::parse("{\"cmd\":\"update\",\"dataset\":\"d\",\"delete\":[-1]}").is_err());
        assert!(Request::parse("{\"cmd\":\"update\",\"dataset\":\"d\",\"delete\":[1.5]}").is_err());
        // request_id must be a non-empty, bounded string.
        assert!(Request::parse(
            "{\"cmd\":\"update\",\"dataset\":\"d\",\"delete\":[1],\"request_id\":7}"
        )
        .is_err());
        assert!(Request::parse(
            "{\"cmd\":\"update\",\"dataset\":\"d\",\"delete\":[1],\"request_id\":\"\"}"
        )
        .is_err());
        let long = "x".repeat(129);
        assert!(Request::parse(&format!(
            "{{\"cmd\":\"update\",\"dataset\":\"d\",\"delete\":[1],\"request_id\":\"{long}\"}}"
        ))
        .is_err());
    }

    #[test]
    fn update_payload_and_batch_shape() {
        let outcome = UpdateOutcome {
            version: 7,
            inserted: vec![10, 11],
            deleted: 1,
            records: 42,
        };
        let v = parse(&update_payload(&outcome)).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("version").unwrap().as_usize(), Some(7));
        assert_eq!(v.get("records").unwrap().as_usize(), Some(42));
        assert_eq!(v.get("deleted").unwrap().as_usize(), Some(1));
        assert_eq!(v.get("inserted").unwrap().as_array().unwrap().len(), 2);

        let batch = update_batch(&[vec![0.1, 0.2]], &[4]);
        assert_eq!(
            batch,
            vec![Update::Insert(vec![0.1, 0.2]), Update::Delete(4)]
        );
    }

    #[test]
    fn request_parse_errors() {
        assert!(Request::parse("{}").is_err());
        assert!(Request::parse("{\"cmd\":\"nope\"}").is_err());
        assert!(Request::parse("{\"cmd\":\"query\"}").is_err());
        assert!(Request::parse("{\"cmd\":\"query\",\"dataset\":\"d\",\"focal\":-1}").is_err());
        assert!(
            Request::parse("{\"cmd\":\"query\",\"dataset\":\"d\",\"focal\":1.5}").is_err(),
            "fractional focal must be rejected"
        );
        assert!(Request::parse(
            "{\"cmd\":\"query\",\"dataset\":\"d\",\"focal\":1,\"algorithm\":\"qp\"}"
        )
        .is_err());
        assert!(
            Request::parse("{\"cmd\":\"query\",\"dataset\":\"d\",\"focal\":1,\"threads\":0}")
                .is_err(),
            "zero threads must be rejected"
        );
    }

    #[test]
    fn error_payload_is_parseable() {
        let text = error_payload(&ServiceError::QueueFull);
        let v = parse(&text).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(false));
        assert!(v.get("error").unwrap().as_str().unwrap().contains("queue"));
        assert_eq!(v.get("retryable").unwrap().as_bool(), Some(true));
        assert!(v.get("retry_after_ms").is_none());
    }

    #[test]
    fn error_payload_carries_retry_metadata() {
        let v = parse(&error_payload(&ServiceError::Overloaded {
            retry_after_ms: 40,
        }))
        .unwrap();
        assert_eq!(v.get("retryable").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("retry_after_ms").unwrap().as_usize(), Some(40));

        let v = parse(&error_payload(&ServiceError::DatasetDegraded {
            dataset: "d".into(),
            reason: "disk full".into(),
        }))
        .unwrap();
        assert_eq!(v.get("retryable").unwrap().as_bool(), Some(false));
        assert!(v.get("retry_after_ms").is_none());
    }
}
