//! `maxrank-serve` — the long-lived MaxRank query server.
//!
//! ```text
//! maxrank-serve --demo
//! maxrank-serve --dataset hotels=hotel:scale=0.01 --dataset bench=ind:n=5000,d=3
//! maxrank-serve --dataset opts=csv:path=options.csv,dims=4 \
//!               --listen 127.0.0.1:7171 --workers 8 --cache 4096
//! maxrank-serve --demo --listen 127.0.0.1:0 --port-file /tmp/maxrank.port
//! ```
//!
//! Datasets are loaded and indexed **once** at startup; queries then stream
//! through the worker pool and result cache.  `--listen 127.0.0.1:0` picks an
//! ephemeral port; `--port-file` writes the bound port number to a file so
//! scripts (CI, tests) can find it.  The server runs until a client sends the
//! `SHUTDOWN` command, then drains accepted work and exits cleanly.
//!
//! With `--data-dir DIR` every dataset becomes **durable**: its records live
//! in a binary snapshot plus a write-ahead log under `DIR/NAME/`, every
//! `UPDATE` batch is fsynced to the log before it is acknowledged, and a
//! restart recovers the committed state (replaying the log over the
//! snapshot, discarding a torn tail left by a crash).  A clean shutdown
//! checkpoints each dataset so the next start is a pure snapshot load.
//!
//! Besides one-shot `QUERY` requests the server maintains **standing
//! queries**: a client that sends `SUBSCRIBE` gets its focal's result kept
//! resident and incrementally repaired across every `UPDATE` batch, with
//! server-push `NOTIFY` frames whenever it changes (see `maxrank-client
//! subscribe --watch`).
//!
//! See `docs/ARCHITECTURE.md` ("The serving layer", "Standing queries",
//! "Persistence and recovery") for the protocol grammar and the threading
//! model.

use maxrank::service::{
    DatasetRegistry, DatasetSpec, DurabilityOptions, MetricsServer, MrqService, Server,
    ServerConfig, ServiceConfig,
};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

struct Args {
    listen: String,
    port_file: Option<String>,
    datasets: Vec<(String, DatasetSpec)>,
    workers: Option<usize>,
    queue: Option<usize>,
    cache: Option<usize>,
    deadline_ms: Option<u64>,
    data_dir: Option<PathBuf>,
    checkpoint_wal_bytes: Option<u64>,
    metrics_port: Option<u16>,
    metrics_port_file: Option<String>,
    max_connections: Option<usize>,
    idle_timeout_ms: Option<u64>,
}

fn usage() -> String {
    "usage: maxrank-serve (--demo | --dataset NAME=SPEC)... [--listen HOST:PORT] \
     [--port-file PATH] [--workers N] [--queue N] [--cache N] [--deadline-ms MS] \
     [--data-dir DIR] [--checkpoint-wal-bytes N] [--metrics-port PORT] \
     [--metrics-port-file PATH] [--max-connections N] [--idle-timeout-ms MS]\n\
     SPEC: demo | ind:n=1000,d=3,seed=42 | cor:... | anti:... | \
     hotel:scale=0.01,seed=1 | house:... | nba:... | pitch:... | bat:... | \
     csv:path=FILE,dims=D\n\
     --data-dir makes every dataset durable (snapshot + WAL under DIR/NAME/, \
     recovered on restart)\n\
     --metrics-port serves Prometheus text on http://127.0.0.1:PORT/metrics \
     (0 = ephemeral; --metrics-port-file writes the bound port)\n\
     --max-connections sheds arrivals above N with a retryable 'server busy' \
     error; --idle-timeout-ms disconnects clients stalled mid-frame \
     (0 = never)"
        .to_string()
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        listen: "127.0.0.1:7171".to_string(),
        port_file: None,
        datasets: Vec::new(),
        workers: None,
        queue: None,
        cache: None,
        deadline_ms: None,
        data_dir: None,
        checkpoint_wal_bytes: None,
        metrics_port: None,
        metrics_port_file: None,
        max_connections: None,
        idle_timeout_ms: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--demo" => args.datasets.push(("demo".to_string(), DatasetSpec::Demo)),
            "--dataset" => {
                let raw = it.next().ok_or("--dataset needs NAME=SPEC")?;
                let (name, spec) = raw
                    .split_once('=')
                    .ok_or_else(|| format!("--dataset '{raw}' is not NAME=SPEC"))?;
                let spec =
                    DatasetSpec::parse(spec).map_err(|e| format!("--dataset {name}: {e}"))?;
                args.datasets.push((name.to_string(), spec));
            }
            "--listen" => args.listen = it.next().ok_or("--listen needs HOST:PORT")?,
            "--port-file" => args.port_file = Some(it.next().ok_or("--port-file needs a path")?),
            "--workers" => {
                let n = parse_num(&mut it, "--workers")?;
                if n == 0 {
                    return Err("--workers must be at least 1".into());
                }
                args.workers = Some(n);
            }
            "--queue" => {
                let n = parse_num(&mut it, "--queue")?;
                if n == 0 {
                    return Err("--queue must be at least 1".into());
                }
                args.queue = Some(n);
            }
            "--cache" => {
                args.cache = Some(parse_num(&mut it, "--cache")?);
            }
            "--deadline-ms" => {
                args.deadline_ms = Some(parse_num(&mut it, "--deadline-ms")? as u64);
            }
            "--data-dir" => {
                args.data_dir = Some(PathBuf::from(it.next().ok_or("--data-dir needs a path")?));
            }
            "--checkpoint-wal-bytes" => {
                let n = parse_num(&mut it, "--checkpoint-wal-bytes")? as u64;
                if n == 0 {
                    return Err("--checkpoint-wal-bytes must be at least 1".into());
                }
                args.checkpoint_wal_bytes = Some(n);
            }
            "--metrics-port" => {
                let n = parse_num(&mut it, "--metrics-port")?;
                let port = u16::try_from(n).map_err(|_| "--metrics-port: not a port number")?;
                args.metrics_port = Some(port);
            }
            "--metrics-port-file" => {
                args.metrics_port_file = Some(it.next().ok_or("--metrics-port-file needs a path")?);
            }
            "--max-connections" => {
                let n = parse_num(&mut it, "--max-connections")?;
                if n == 0 {
                    return Err("--max-connections must be at least 1".into());
                }
                args.max_connections = Some(n);
            }
            "--idle-timeout-ms" => {
                args.idle_timeout_ms = Some(parse_num(&mut it, "--idle-timeout-ms")? as u64);
            }
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown argument '{other}'\n{}", usage())),
        }
    }
    if args.datasets.is_empty() {
        return Err(format!(
            "no datasets: pass --demo or --dataset NAME=SPEC\n{}",
            usage()
        ));
    }
    Ok(args)
}

fn parse_num(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<usize, String> {
    it.next()
        .ok_or_else(|| format!("{flag} needs a value"))?
        .parse()
        .map_err(|e| format!("{flag}: {e}"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    let durability = DurabilityOptions {
        checkpoint_wal_bytes: args
            .checkpoint_wal_bytes
            .unwrap_or(DurabilityOptions::default().checkpoint_wal_bytes),
    };
    let registry = Arc::new(DatasetRegistry::new());
    for (name, spec) in &args.datasets {
        let start = std::time::Instant::now();
        let outcome = match &args.data_dir {
            None => registry.register(name, spec).map(|entry| (entry, None)),
            Some(dir) => registry.register_durable(name, spec, dir, durability),
        };
        match outcome {
            Ok((entry, None)) => {
                println!(
                    "dataset '{name}': {} records × {} attributes, index built in {:.2}s{}",
                    entry.data().len(),
                    entry.data().dims(),
                    start.elapsed().as_secs_f64(),
                    if args.data_dir.is_some() {
                        " (durable, fresh store)"
                    } else {
                        ""
                    }
                );
            }
            Ok((entry, Some(report))) => {
                println!(
                    "dataset '{name}': recovered at version {} ({} live records, \
                     {} WAL batches replayed, {} torn bytes discarded, {} pages read) \
                     in {:.2}s",
                    report.version,
                    entry.data().live_len(),
                    report.batches_replayed,
                    report.torn_bytes_discarded,
                    report.pages_read,
                    start.elapsed().as_secs_f64()
                );
            }
            Err(e) => {
                eprintln!("failed to load dataset '{name}': {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let defaults = ServiceConfig::default();
    let config = ServiceConfig {
        workers: args.workers.unwrap_or(defaults.workers),
        queue_capacity: args.queue.unwrap_or(defaults.queue_capacity),
        cache_capacity: args.cache.unwrap_or(defaults.cache_capacity),
        default_deadline: args.deadline_ms.map(Duration::from_millis),
    };
    let service = Arc::new(MrqService::new(Arc::clone(&registry), config));
    let server_defaults = ServerConfig::default();
    let server_config = ServerConfig {
        max_connections: args
            .max_connections
            .unwrap_or(server_defaults.max_connections),
        // 0 disables the reaper; any other value overrides the default.
        idle_timeout: match args.idle_timeout_ms {
            None => server_defaults.idle_timeout,
            Some(0) => None,
            Some(ms) => Some(Duration::from_millis(ms)),
        },
    };
    let server = match Server::start_with(Arc::clone(&service), args.listen.as_str(), server_config)
    {
        Ok(s) => s,
        Err(e) => {
            eprintln!("failed to bind {}: {e}", args.listen);
            return ExitCode::FAILURE;
        }
    };
    let addr = server.local_addr();
    println!(
        "listening on {addr} ({} workers, queue {}, cache {}, max {} connections)",
        config.workers, config.queue_capacity, config.cache_capacity, server_config.max_connections
    );
    if let Some(path) = &args.port_file {
        if let Err(e) = std::fs::write(path, format!("{}\n", addr.port())) {
            eprintln!("failed to write --port-file {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    let metrics = match args.metrics_port {
        None => None,
        Some(port) => {
            // Loopback only: the scrape endpoint has no auth and no TLS.
            match MetricsServer::start(Arc::clone(&service), ("127.0.0.1", port)) {
                Ok(m) => {
                    println!("metrics on http://{}/metrics", m.local_addr());
                    if let Some(path) = &args.metrics_port_file {
                        if let Err(e) = std::fs::write(path, format!("{}\n", m.local_addr().port()))
                        {
                            eprintln!("failed to write --metrics-port-file {path}: {e}");
                            return ExitCode::FAILURE;
                        }
                    }
                    Some(m)
                }
                Err(e) => {
                    eprintln!("failed to bind metrics port {port}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    };

    // Runs until a client sends SHUTDOWN; then drain and exit cleanly.
    server.wait();
    if let Some(metrics) = metrics {
        metrics.shutdown();
    }
    if args.data_dir.is_some() {
        // A final checkpoint makes the next start a pure snapshot load.
        match registry.checkpoint_all() {
            Ok(n) => println!("checkpointed {n} dataset(s)"),
            Err(e) => {
                eprintln!("shutdown checkpoint failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!("shut down cleanly");
    ExitCode::SUCCESS
}
