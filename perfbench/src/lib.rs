//! The serving benchmark of the MaxRank server.
//!
//! Each workload ([`Workload`]) starts `maxrank-serve` as a
//! separate process, drives it over TCP with an open-loop schedule drawn
//! from the seed, from at most two threads and two connections, checks the
//! answers against in-process evaluation, and reports end-to-end metrics:
//! set-up time, query latency (measured from each operation's scheduled
//! send), server CPU time per operation and memory.
//!
//! A traced run also replays the schedule in-process and each layer's calls
//! sequentially on private copies, with spans around every call into a
//! layer's public functions, and reports per-layer metrics.  All spans are
//! recorded by this package: the server itself is measured from outside.

mod check;
mod drive;
mod layers;
mod replay;
mod run;
mod server;
mod stats;
mod trace;
mod workload;

pub use run::{run_workload, Metric, RunConfig, RunOutcome, END_TO_END, PER_LAYER};
pub use server::Target;
pub use workload::Workload;
