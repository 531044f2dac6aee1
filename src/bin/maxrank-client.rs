//! `maxrank-client` — command-line client for `maxrank-serve`.
//!
//! ```text
//! maxrank-client --port 7171 --dataset demo --focal 5
//! maxrank-client --addr 127.0.0.1:7171 --dataset bench --focal 17 --tau 2 --algorithm aa
//! maxrank-client --port 7171 --dataset bench update --insert 0.4,0.7,0.2 --delete 17
//! maxrank-client --port 7171 --dataset demo subscribe --focal 5 --watch --count 1
//! maxrank-client --port 7171 --stats
//! maxrank-client --port 7171 --metrics
//! maxrank-client --port 7171 --list
//! maxrank-client --port 7171 --ping
//! maxrank-client --port 7171 --shutdown
//! ```
//!
//! `update` sends one atomic `UPDATE` batch: every `--insert x,y,...` row
//! (repeatable) followed by every `--delete ID` (repeatable).  The server
//! answers with the dataset's new version and the ids assigned to the
//! inserted rows; see `docs/PROTOCOL.md` for the wire format.
//!
//! `--stats` prints every counter sample as `series value<TAB># help`;
//! `--metrics` prints the raw Prometheus text the same counters come from.
//!
//! `subscribe` registers a standing query and prints the initial result.
//! With `--watch` it then blocks printing server-push `NOTIFY` lines as the
//! maintained result changes; `--count N` exits after N notifications and
//! `--timeout-ms MS` bounds each wait (`no NOTIFY within MS ms` and a clean
//! exit when nothing arrives — the negative-test hook).

use maxrank::service::{Client, Notification, QueryOptions};
use mrq_core::Algorithm;
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    addr: String,
    dataset: Option<String>,
    focal: Option<u32>,
    algorithm: Algorithm,
    tau: usize,
    timeout_ms: Option<u64>,
    no_cache: bool,
    threads: usize,
    regions_shown: usize,
    update: bool,
    inserts: Vec<Vec<f64>>,
    deletes: Vec<u32>,
    subscribe: bool,
    watch: bool,
    count: Option<u64>,
    stats: bool,
    metrics: bool,
    list: bool,
    ping: bool,
    shutdown: bool,
}

fn usage() -> String {
    "usage: maxrank-client (--addr HOST:PORT | --port P) \
     (--dataset NAME --focal ID [--algorithm auto|fca|ba|aa|aa2d] [--tau T] \
     [--timeout-ms MS] [--no-cache] [--threads N] [--regions N] \
     | --dataset NAME update (--insert x,y,..)* (--delete ID)* \
     | --dataset NAME subscribe --focal ID [--algorithm A] [--tau T] \
     [--watch] [--count N] [--timeout-ms MS] \
     | --stats | --metrics | --list | --ping | --shutdown)"
        .to_string()
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7171".to_string(),
        dataset: None,
        focal: None,
        algorithm: Algorithm::Auto,
        tau: 0,
        timeout_ms: None,
        no_cache: false,
        threads: 1,
        regions_shown: 10,
        update: false,
        inserts: Vec::new(),
        deletes: Vec::new(),
        subscribe: false,
        watch: false,
        count: None,
        stats: false,
        metrics: false,
        list: false,
        ping: false,
        shutdown: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => args.addr = it.next().ok_or("--addr needs HOST:PORT")?,
            "--port" => {
                let port: u16 = it
                    .next()
                    .ok_or("--port needs a value")?
                    .parse()
                    .map_err(|e| format!("--port: {e}"))?;
                args.addr = format!("127.0.0.1:{port}");
            }
            "--dataset" => args.dataset = Some(it.next().ok_or("--dataset needs a name")?),
            "--focal" => {
                args.focal = Some(
                    it.next()
                        .ok_or("--focal needs a record id")?
                        .parse()
                        .map_err(|e| format!("--focal: {e}"))?,
                )
            }
            "--algorithm" => {
                let name = it.next().ok_or("--algorithm needs a name")?;
                args.algorithm = Algorithm::from_name(&name)
                    .ok_or_else(|| format!("unknown algorithm '{name}'"))?;
            }
            "--tau" => {
                args.tau = it
                    .next()
                    .ok_or("--tau needs a value")?
                    .parse()
                    .map_err(|e| format!("--tau: {e}"))?
            }
            "--timeout-ms" => {
                args.timeout_ms = Some(
                    it.next()
                        .ok_or("--timeout-ms needs a value")?
                        .parse()
                        .map_err(|e| format!("--timeout-ms: {e}"))?,
                )
            }
            "--no-cache" => args.no_cache = true,
            "--threads" => {
                args.threads = it
                    .next()
                    .ok_or("--threads needs a value")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?;
                if args.threads == 0 {
                    return Err("--threads must be at least 1".into());
                }
            }
            "--regions" => {
                args.regions_shown = it
                    .next()
                    .ok_or("--regions needs a value")?
                    .parse()
                    .map_err(|e| format!("--regions: {e}"))?
            }
            "update" | "--update" => args.update = true,
            "subscribe" | "--subscribe" => args.subscribe = true,
            "--watch" => args.watch = true,
            "--count" => {
                args.count = Some(
                    it.next()
                        .ok_or("--count needs a value")?
                        .parse()
                        .map_err(|e| format!("--count: {e}"))?,
                )
            }
            "--insert" => {
                let raw = it.next().ok_or("--insert needs comma-separated values")?;
                let row: Result<Vec<f64>, _> = raw.split(',').map(|c| c.trim().parse()).collect();
                args.inserts
                    .push(row.map_err(|e| format!("--insert: {e}"))?);
            }
            "--delete" => {
                args.deletes.push(
                    it.next()
                        .ok_or("--delete needs a record id")?
                        .parse()
                        .map_err(|e| format!("--delete: {e}"))?,
                );
            }
            "--stats" => args.stats = true,
            "--metrics" => args.metrics = true,
            "--list" => args.list = true,
            "--ping" => args.ping = true,
            "--shutdown" => args.shutdown = true,
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown argument '{other}'\n{}", usage())),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    let mut client = match Client::connect(args.addr.as_str()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("failed to connect to {}: {e}", args.addr);
            return ExitCode::FAILURE;
        }
    };

    let outcome = if args.ping {
        client.ping().map(|()| println!("pong"))
    } else if args.stats {
        // One line per sample: the series and its value, then a tab and
        // the family's help text.
        client.stats().map(|snapshot| {
            for (series, value, help) in snapshot.samples() {
                println!("{series} {value}\t# {help}");
            }
        })
    } else if args.metrics {
        // Raw Prometheus exposition text, exactly what a scrape would get.
        client.metrics().map(|text| print!("{text}"))
    } else if args.list {
        client.list().map(|datasets| {
            for (name, records, dims) in datasets {
                println!("{name}: {records} records × {dims} attributes");
            }
        })
    } else if args.shutdown {
        client
            .shutdown_server()
            .map(|()| println!("server shut down"))
    } else if args.subscribe {
        let (Some(dataset), Some(focal)) = (&args.dataset, args.focal) else {
            eprintln!("subscribe needs --dataset NAME --focal ID\n{}", usage());
            return ExitCode::FAILURE;
        };
        let wait = args.timeout_ms.map(Duration::from_millis);
        client
            .subscribe(dataset, focal, args.algorithm, args.tau)
            .and_then(|ack| {
                println!("subscription      : {}", ack.subscription);
                println!("dataset           : {} (focal {})", ack.dataset, ack.focal);
                println!("algorithm         : {}", ack.algorithm);
                if ack.tau > 0 {
                    println!("tau               : {}", ack.tau);
                }
                println!("dataset version   : {}", ack.version);
                println!("k* (best rank)    : {}", ack.k_star);
                println!("result regions    : {}", ack.region_count);
                if !args.watch {
                    return Ok(());
                }
                let mut remaining = args.count;
                loop {
                    match client.wait_notify(wait)? {
                        None => {
                            println!(
                                "no NOTIFY within {} ms",
                                wait.map(|t| t.as_millis()).unwrap_or_default()
                            );
                            return Ok(());
                        }
                        Some(Notification::Changed(reply)) => {
                            println!(
                                "NOTIFY change     : version {}, k* {}, {} regions",
                                reply.version, reply.k_star, reply.region_count
                            );
                        }
                        Some(Notification::Cancelled {
                            version, reason, ..
                        }) => {
                            println!("NOTIFY cancelled  : version {version} ({reason})");
                            return Ok(());
                        }
                    }
                    if let Some(count) = &mut remaining {
                        *count = count.saturating_sub(1);
                        if *count == 0 {
                            return Ok(());
                        }
                    }
                }
            })
    } else if args.update {
        let Some(dataset) = &args.dataset else {
            eprintln!("update needs --dataset NAME\n{}", usage());
            return ExitCode::FAILURE;
        };
        if args.inserts.is_empty() && args.deletes.is_empty() {
            eprintln!(
                "update needs at least one --insert or --delete\n{}",
                usage()
            );
            return ExitCode::FAILURE;
        }
        client
            .update(dataset, &args.inserts, &args.deletes)
            .map(|reply| {
                println!("dataset           : {dataset}");
                println!("version           : {}", reply.version);
                println!("live records      : {}", reply.records);
                if !reply.inserted.is_empty() {
                    println!("inserted ids      : {:?}", reply.inserted);
                }
                if reply.deleted > 0 {
                    println!("deleted records   : {}", reply.deleted);
                }
            })
    } else {
        let (Some(dataset), Some(focal)) = (&args.dataset, args.focal) else {
            eprintln!(
                "nothing to do: pass --dataset/--focal, --stats, --metrics, --list, --ping or --shutdown\n{}",
                usage()
            );
            return ExitCode::FAILURE;
        };
        client
            .query_with(
                dataset,
                focal,
                QueryOptions {
                    algorithm: args.algorithm,
                    tau: args.tau,
                    timeout: args.timeout_ms.map(Duration::from_millis),
                    no_cache: args.no_cache,
                    max_regions: Some(args.regions_shown),
                    threads: args.threads,
                },
            )
            .map(|reply| {
                println!("k* (best rank)    : {}", reply.k_star);
                if reply.tau > 0 {
                    println!("tau               : {}", reply.tau);
                }
                println!("algorithm         : {}", reply.algorithm);
                println!("result regions    : {}", reply.region_count);
                println!("cached            : {}", reply.cached);
                println!("dataset version   : {}", reply.version);
                println!("page reads (I/O)  : {}", reply.io_reads);
                println!("cpu time          : {:.3}s", reply.cpu_us as f64 / 1e6);
                for (i, (order, w)) in reply.orders.iter().zip(&reply.witnesses).enumerate() {
                    let rounded: Vec<f64> = w
                        .iter()
                        .map(|x| (x * 10_000.0).round() / 10_000.0)
                        .collect();
                    println!(
                        "  region {:>3}: rank {order}  example weights {rounded:?}",
                        i + 1
                    );
                }
                if reply.region_count > reply.orders.len() {
                    println!(
                        "  … {} more regions (use --regions to show more)",
                        reply.region_count - reply.orders.len()
                    );
                }
            })
    };

    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
