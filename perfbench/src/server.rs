//! The server under test: a spawned `maxrank-serve` process, or an in-thread
//! [`mrq_service::Server`] for smoke tests (nothing is spawned, so set-up
//! time, memory and CPU time are not measured).

use crate::workload::{Workload, DATASET};
use mrq_service::{Client, DatasetRegistry, DatasetSpec, DurabilityOptions, MrqService, Server};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a spawned server may take to answer its first `LIST`.
const START_TIMEOUT: Duration = Duration::from_secs(60);
/// How long a graceful shutdown may take before the process is killed.
const STOP_TIMEOUT: Duration = Duration::from_secs(10);
/// Timed starts of a spawned server; `setup_s` is their median.
const SETUPS: usize = 9;
/// How often start-up polls for the port file and the first `LIST`.
const START_POLL: Duration = Duration::from_micros(100);

/// Where the server under test comes from.
#[derive(Debug, Clone)]
pub enum Target {
    /// Spawn this `maxrank-serve` binary.
    Spawn(PathBuf),
    /// Serve from a thread of this process.
    InThread,
}

/// One timed start of a spawned server.
#[derive(Debug, Clone, Copy)]
pub struct Setup {
    /// Spawn to the port file, seconds: the server writes it once it has
    /// loaded and indexed the dataset and bound its socket.
    pub seconds: f64,
    /// Spawn to the first successful `LIST`, seconds.  This adds the wait
    /// for the accept loop, which sleeps 50 ms when idle.
    pub list_seconds: f64,
    /// Resident memory at the first successful `LIST`, KiB.
    pub rss_kib: u64,
}

/// A running server under test.
pub enum Running {
    /// A child process (killed on drop if still alive).
    Process(ServerProcess),
    /// An in-thread server.
    Thread(Server),
}

impl Running {
    /// Starts the server for `w` over the CSV at `csv`: spawned processes
    /// are started [`SETUPS`] times (each one timed from spawn to its port
    /// file and to the first successful `LIST`) and the last one is kept.
    /// Returns the set-up measurements, empty for an in-thread server.
    pub fn start(
        target: &Target,
        w: &Workload,
        csv: &Path,
        work: &Path,
    ) -> Result<(Running, Vec<Setup>), String> {
        match target {
            Target::Spawn(bin) => {
                let mut times = Vec::with_capacity(SETUPS);
                let mut kept = None;
                for i in 0..SETUPS {
                    // A durable server starts from a fresh store every time.
                    let data_dir = w.durable.then(|| work.join(format!("store-{i}")));
                    let args = w.server_args(csv, data_dir.as_deref());
                    let (process, bound, listed) =
                        ServerProcess::spawn(bin, &args, &work.join(format!("port-{i}")))?;
                    times.push(Setup {
                        seconds: bound.as_secs_f64(),
                        list_seconds: listed.as_secs_f64(),
                        rss_kib: process.status_kib("VmRSS")?,
                    });
                    // Set-up-only servers are killed; only the kept one
                    // serves the workload.
                    if let Some(previous) = kept.replace(process) {
                        drop(previous);
                    }
                }
                Ok((Running::Process(kept.expect("at least one server")), times))
            }
            Target::InThread => {
                let registry = Arc::new(DatasetRegistry::new());
                let spec = DatasetSpec::Csv {
                    path: csv.to_path_buf(),
                    dims: w.dims,
                };
                if w.durable {
                    registry.register_durable(
                        DATASET,
                        &spec,
                        &work.join("store-0"),
                        DurabilityOptions::default(),
                    )?;
                } else {
                    registry.register(DATASET, &spec)?;
                }
                let service = Arc::new(MrqService::new(registry, w.service_config()));
                let server =
                    Server::start(service, "127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
                Ok((Running::Thread(server), Vec::new()))
            }
        }
    }

    /// The address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        match self {
            Running::Process(p) => p.addr,
            Running::Thread(s) => s.local_addr(),
        }
    }

    /// Per-thread CPU time of a spawned server, nanoseconds by thread id.
    pub fn cpu_ns(&self) -> Option<HashMap<u32, u64>> {
        match self {
            Running::Process(p) => p.cpu_ns().ok(),
            Running::Thread(_) => None,
        }
    }

    /// Peak resident set (`VmHWM`) of a spawned server, KiB.
    pub fn peak_rss_kib(&self) -> Option<u64> {
        match self {
            Running::Process(p) => p.status_kib("VmHWM").ok(),
            Running::Thread(_) => None,
        }
    }

    /// Graceful shutdown; waits until the server has stopped.
    pub fn shutdown(self) -> Result<(), String> {
        match self {
            Running::Process(p) => p.shutdown(),
            Running::Thread(s) => {
                s.shutdown();
                Ok(())
            }
        }
    }
}

/// A spawned `maxrank-serve`.
pub struct ServerProcess {
    child: Child,
    /// The address it listens on.
    pub addr: SocketAddr,
}

impl ServerProcess {
    /// Spawns the server on an ephemeral loopback port and waits for its
    /// first successful `LIST`; returns the process and the times from
    /// spawn to its port file and to that `LIST`.
    pub fn spawn(
        bin: &Path,
        args: &[String],
        port_file: &Path,
    ) -> Result<(ServerProcess, Duration, Duration), String> {
        let _ = std::fs::remove_file(port_file);
        let started = Instant::now();
        let child = Command::new(bin)
            .args(args)
            .args(["--listen", "127.0.0.1:0", "--port-file"])
            .arg(port_file)
            .stdin(Stdio::null())
            // The server's banner must not reach the benchmark's stdout.
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut process = ServerProcess {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let mut bound = None;
        loop {
            if let Ok(Some(status)) = process.child.try_wait() {
                return Err(format!(
                    "{} exited during start-up: {status}",
                    bin.display()
                ));
            }
            if started.elapsed() > START_TIMEOUT {
                return Err(format!("{} did not answer LIST in time", bin.display()));
            }
            // The port file may be caught half-written; retry until it parses.
            let port = std::fs::read_to_string(port_file)
                .ok()
                .and_then(|s| s.trim().parse::<u16>().ok());
            if let Some(port) = port {
                let bound_after = *bound.get_or_insert_with(|| started.elapsed());
                process.addr = SocketAddr::from(([127, 0, 0, 1], port));
                let listed = Client::connect(process.addr)
                    .ok()
                    .and_then(|mut c| c.list().ok());
                if listed.is_some_and(|l| l.iter().any(|(name, _, _)| name == DATASET)) {
                    return Ok((process, bound_after, started.elapsed()));
                }
            }
            std::thread::sleep(START_POLL);
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// CPU time of every live thread, from `/proc/PID/task/*/schedstat`
    /// (nanosecond resolution, unlike the 10 ms ticks of `/proc/PID/stat`).
    fn cpu_ns(&self) -> Result<HashMap<u32, u64>, String> {
        let dir = format!("/proc/{}/task", self.pid());
        let mut out = HashMap::new();
        for entry in std::fs::read_dir(&dir).map_err(|e| format!("{dir}: {e}"))? {
            let entry = entry.map_err(|e| e.to_string())?;
            let Ok(tid) = entry.file_name().to_string_lossy().parse::<u32>() else {
                continue;
            };
            // A thread may exit between the listing and the read.
            if let Ok(text) = std::fs::read_to_string(entry.path().join("schedstat")) {
                if let Some(ns) = text.split_whitespace().next().and_then(|v| v.parse().ok()) {
                    out.insert(tid, ns);
                }
            }
        }
        Ok(out)
    }

    /// A `kB` field of `/proc/PID/status`.
    fn status_kib(&self, field: &str) -> Result<u64, String> {
        let path = format!("/proc/{}/status", self.pid());
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        text.lines()
            .find_map(|line| {
                let rest = line.strip_prefix(field)?.strip_prefix(':')?;
                rest.split_whitespace().next()?.parse().ok()
            })
            .ok_or_else(|| format!("{path}: no {field}"))
    }

    /// Sends `SHUTDOWN` and waits for the process to exit; kills it if it
    /// does not stop in time.
    pub fn shutdown(mut self) -> Result<(), String> {
        let asked = Client::connect(self.addr)
            .map_err(|e| e.to_string())
            .and_then(|mut c| c.shutdown_server().map_err(|e| e.to_string()));
        let deadline = Instant::now() + STOP_TIMEOUT;
        while asked.is_ok() && Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(e) => return Err(e.to_string()),
            }
        }
        Err(match asked {
            Ok(()) => "server did not stop after SHUTDOWN".to_string(),
            Err(e) => format!("SHUTDOWN failed: {e}"),
        })
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// CPU nanoseconds spent between two [`Running::cpu_ns`] readings by the
/// threads alive at the second one (a thread born in between counts from
/// zero; one that ended in between is not counted).
pub fn cpu_delta_ns(before: &HashMap<u32, u64>, after: &HashMap<u32, u64>) -> u64 {
    after
        .iter()
        .map(|(tid, ns)| ns.saturating_sub(before.get(tid).copied().unwrap_or(0)))
        .sum()
}
