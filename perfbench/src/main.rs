//! `perfbench` — runs the serving benchmark against a spawned
//! `maxrank-serve`.  Normally started through `perfbench/run.py`, which
//! builds both binaries first.
//!
//! ```text
//! perfbench --server-bin PATH [--workload NAME] [--seed N] [--seconds S]
//!           [--trace 0|1] [--out DIR]
//! ```
//!
//! Without `--workload` every workload runs in turn.  Each workload prints
//! one `workload metric value unit [n=samples]` line per metric and then its
//! JSON result line; the process exits non-zero if an operation failed or
//! an answer was wrong.

use perfbench::{run_workload, RunConfig, Target, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    server_bin: PathBuf,
    workloads: Vec<Workload>,
    config: RunConfig,
}

fn usage() -> String {
    format!(
        "usage: perfbench --server-bin PATH [--workload NAME] [--seed N] [--seconds S] \
         [--trace 0|1] [--out DIR]\nworkloads: {}",
        Workload::all()
            .iter()
            .map(|w| w.name)
            .collect::<Vec<_>>()
            .join(", ")
    )
}

fn value<T: std::str::FromStr>(
    it: &mut impl Iterator<Item = String>,
    flag: &str,
) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    it.next()
        .ok_or_else(|| format!("{flag} needs a value"))?
        .parse()
        .map_err(|e| format!("{flag}: {e}"))
}

fn parse_args() -> Result<Args, String> {
    let mut server_bin = None;
    let mut workload: Option<String> = None;
    let mut config = RunConfig {
        seed: 2015,
        seconds: 20.0,
        trace: false,
        out: PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or(".bench_build".into()))
            .join("perfbench-out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--server-bin" => server_bin = Some(PathBuf::from(value::<String>(&mut it, &arg)?)),
            "--workload" => workload = Some(value(&mut it, &arg)?),
            "--seed" => config.seed = value(&mut it, &arg)?,
            "--seconds" => config.seconds = value(&mut it, &arg)?,
            "--trace" => config.trace = value::<u8>(&mut it, &arg)? != 0,
            "--out" => config.out = PathBuf::from(value::<String>(&mut it, &arg)?),
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown argument '{other}'\n{}", usage())),
        }
    }
    if !(config.seconds.is_finite() && config.seconds >= 1.0) {
        return Err("--seconds must be at least 1".into());
    }
    let workloads = match workload {
        None => Workload::all(),
        Some(name) => vec![Workload::by_name(&name)
            .ok_or_else(|| format!("unknown workload '{name}'\n{}", usage()))?],
    };
    Ok(Args {
        server_bin: server_bin.ok_or_else(|| format!("--server-bin is required\n{}", usage()))?,
        workloads,
        config,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let target = Target::Spawn(args.server_bin);
    let mut all_correct = true;
    for w in &args.workloads {
        let outcome = match run_workload(w, &target, &args.config) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("perfbench {}: {e}", w.name);
                return ExitCode::FAILURE;
            }
        };
        for p in outcome.problems.iter().take(10) {
            eprintln!("perfbench {}: {p}", w.name);
        }
        all_correct &= outcome.correct;
        print!("{}", outcome.lines());
        println!("{}", outcome.result_json());
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
