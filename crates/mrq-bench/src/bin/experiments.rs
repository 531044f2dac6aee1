//! Command-line entry point regenerating every table and figure of the
//! paper's evaluation.
//!
//! ```text
//! cargo run --release -p mrq-bench --bin experiments -- [--exp NAME] [--scale quick|default|paper]
//!                                                       [--queries N] [--seed S] [--list]
//!                                                       [--json PATH]
//!                                                       [--baseline PATH [--max-regression F]]
//! ```
//!
//! With no arguments every experiment runs at the `quick` scale.  The output
//! of a full run is what EXPERIMENTS.md is based on.  `--json PATH` (e.g.
//! `--json BENCH_pr5.json`) additionally writes a machine-readable summary —
//! per-experiment wall time, the median of every per-query CPU latency
//! column, and the full metric rows — so successive runs can be diffed as a
//! perf trajectory.  `--baseline PATH` compares the run against a previously
//! written artifact and exits non-zero when any experiment's median CPU
//! latency regressed more than `--max-regression` times (default 3.0) — the
//! CI bench-regression gate.

use mrq_bench::baseline::{check_regression, median_cpu};
use mrq_bench::experiments::ALL;
use mrq_bench::{Row, Scale};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale_name = "quick".to_string();
    let mut exp_filter: Option<String> = None;
    let mut queries: Option<usize> = None;
    let mut seed: Option<u64> = None;
    let mut json_path: Option<String> = None;
    let mut baseline_path: Option<String> = None;
    let mut max_regression = 3.0f64;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--list" => {
                println!("available experiments:");
                for (name, _) in ALL {
                    println!("  {name}");
                }
                return ExitCode::SUCCESS;
            }
            "--exp" => {
                i += 1;
                exp_filter = args.get(i).cloned();
            }
            "--scale" => {
                i += 1;
                scale_name = args.get(i).cloned().unwrap_or_else(|| "quick".into());
            }
            "--queries" => {
                i += 1;
                queries = args.get(i).and_then(|v| v.parse().ok());
            }
            "--seed" => {
                i += 1;
                seed = args.get(i).and_then(|v| v.parse().ok());
            }
            "--json" => {
                i += 1;
                match args.get(i) {
                    Some(path) => json_path = Some(path.clone()),
                    None => {
                        eprintln!("--json needs an output path (e.g. BENCH_pr5.json)");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--baseline" => {
                i += 1;
                match args.get(i) {
                    Some(path) => baseline_path = Some(path.clone()),
                    None => {
                        eprintln!("--baseline needs the checked-in artifact path");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--max-regression" => {
                i += 1;
                max_regression = match args.get(i).and_then(|v| v.parse::<f64>().ok()) {
                    Some(f) if f >= 1.0 => f,
                    _ => {
                        eprintln!("--max-regression needs a factor >= 1.0");
                        return ExitCode::FAILURE;
                    }
                };
            }
            "--help" | "-h" => {
                print_usage();
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument: {other}");
                print_usage();
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }

    let Some(mut scale) = Scale::by_name(&scale_name) else {
        eprintln!("unknown scale '{scale_name}' (expected quick, default or paper)");
        return ExitCode::FAILURE;
    };
    if let Some(q) = queries {
        scale.queries = q.max(1);
    }
    if let Some(s) = seed {
        scale.seed = s;
    }

    println!("MaxRank reproduction — experiment harness");
    println!(
        "scale preset: {} (base n = {}, base d = {}, {} focal records per measurement, seed {})",
        scale.name, scale.base_n, scale.base_d, scale.queries, scale.seed
    );

    // `--exp` accepts a single name, a comma-separated list, or `all` (the
    // CI gate runs a bounded subset this way).  Every listed name must
    // exist: a typo that silently skipped an experiment would also silently
    // remove it from the regression gate.
    if let Some(filter) = &exp_filter {
        if filter != "all" {
            for requested in filter.split(',').map(str::trim) {
                if !ALL.iter().any(|(name, _)| *name == requested) {
                    eprintln!("unknown experiment '{requested}' — use --list");
                    return ExitCode::FAILURE;
                }
            }
        }
    }

    let mut ran = 0;
    let mut completed: Vec<(&str, f64, Vec<Row>)> = Vec::new();
    for (name, f) in ALL {
        if let Some(filter) = &exp_filter {
            if filter != "all" && !filter.split(',').any(|f| f.trim() == *name) {
                continue;
            }
        }
        let start = std::time::Instant::now();
        let (table, rows) = f(&scale);
        print!("{table}");
        let wall_s = start.elapsed().as_secs_f64();
        println!("[{name} completed in {wall_s:.1}s]");
        completed.push((name, wall_s, rows));
        ran += 1;
    }
    if ran == 0 {
        eprintln!(
            "no experiment matched '{}' — use --list",
            exp_filter.as_deref().unwrap_or("")
        );
        return ExitCode::FAILURE;
    }
    if let Some(path) = json_path {
        let json = render_json(&scale, &completed);
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote machine-readable summary to {path}");
    }
    if let Some(path) = baseline_path {
        let artifact = match std::fs::read_to_string(&path) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("failed to read baseline {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let current: Vec<(String, Option<f64>)> = completed
            .iter()
            .map(|(name, _, rows)| (name.to_string(), median_cpu(rows)))
            .collect();
        match check_regression(&artifact, &current, max_regression) {
            Ok(report) => {
                println!("bench-regression gate vs {path} (max {max_regression}x):");
                for c in &report {
                    println!(
                        "  {:<10} {:.6}s vs {:.6}s ({:.2}x)",
                        c.name, c.current_s, c.baseline_s, c.ratio
                    );
                }
                println!("gate passed");
            }
            Err(msg) => {
                eprintln!("{msg}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// Renders the run as JSON.  String escaping and finite-number formatting
/// are delegated to `mrq_service::protocol::json` (the workspace's one JSON
/// implementation — no serde in the container); only the indentation layout
/// is laid out by hand so rows stay one-per-line and diff cleanly.
fn render_json(scale: &Scale, completed: &[(&str, f64, Vec<Row>)]) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"maxrank-bench-v1\",\n");
    out.push_str(&format!(
        "  \"scale\": {{\"name\": {}, \"base_n\": {}, \"base_d\": {}, \"queries\": {}, \"seed\": {}}},\n",
        json_str(scale.name),
        scale.base_n,
        scale.base_d,
        scale.queries,
        scale.seed
    ));
    out.push_str("  \"experiments\": [\n");
    for (e, (name, wall_s, rows)) in completed.iter().enumerate() {
        // The perf-trajectory headline: the median over every per-query CPU
        // latency cell of the experiment ("... cpu_s" columns), NaN-filtered.
        let median_cpu = match median_cpu(rows) {
            Some(m) => json_num(m),
            None => "null".to_string(),
        };
        out.push_str(&format!(
            "    {{\"name\": {}, \"wall_s\": {}, \"median_cpu_s\": {}, \"rows\": [\n",
            json_str(name),
            json_num(*wall_s),
            median_cpu
        ));
        for (r, row) in rows.iter().enumerate() {
            let metrics: Vec<String> = row
                .values
                .iter()
                .map(|(name, v)| format!("{}: {}", json_str(name), json_num(*v)))
                .collect();
            out.push_str(&format!(
                "      {{\"label\": {}, \"metrics\": {{{}}}}}{}\n",
                json_str(&row.label),
                metrics.join(", "),
                if r + 1 < rows.len() { "," } else { "" }
            ));
        }
        out.push_str(&format!(
            "    ]}}{}\n",
            if e + 1 < completed.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn json_str(s: &str) -> String {
    mrq_service::protocol::json::Json::Str(s.to_string()).to_string()
}

/// Finite numbers in Rust's round-trip format; NaN/inf (e.g. the "BA did not
/// run at this n" sentinel) become JSON null.
fn json_num(v: f64) -> String {
    mrq_service::protocol::json::Json::Num(v).to_string()
}

fn print_usage() {
    println!(
        "usage: experiments [--exp NAME[,NAME..]|all] [--scale quick|default|paper] [--queries N] [--seed S] \
         [--json PATH] [--baseline PATH] [--max-regression F] [--list]"
    );
}
