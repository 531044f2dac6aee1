//! Smoke test of the benchmark itself: every workload of `BENCHMARK.json`
//! at tiny scale, on two seeds, against an in-thread server on
//! 127.0.0.1:0.  Nothing is spawned, so set-up time, memory and server CPU
//! time are not measured; every other end-to-end metric must be.

use mrq_service::protocol::json::{self, Json};
use perfbench::{run_workload, RunConfig, Target, Workload, END_TO_END, PER_LAYER};
use std::path::PathBuf;

/// End-to-end metrics that need a spawned server process.
const PROCESS_ONLY: &[&str] = &["setup_s", "rss_mb", "cpu_ms_per_op"];

fn benchmark() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every entry of a BENCHMARK.json list.
fn entries(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no '{key}' list"))
        .iter()
        .map(|e| {
            let field = |k: &str| e.get(k).and_then(Json::as_str).unwrap_or("").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn benchmark_json_lists_what_perfbench_reports() {
    let doc = benchmark();
    assert_eq!(entries(&doc, "end_to_end"), owned(END_TO_END));
    assert_eq!(entries(&doc, "per_layer"), owned(PER_LAYER));
    let names: Vec<String> = entries(&doc, "workloads")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    let ours: Vec<String> = Workload::all().iter().map(|w| w.name.to_string()).collect();
    assert_eq!(names, ours);
}

#[test]
fn every_workload_runs_checks_and_traces() {
    let doc = benchmark();
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("suite_smoke");
    for (name, _) in entries(&doc, "workloads") {
        let w = Workload::by_name(&name)
            .expect("workload known to perfbench")
            .tiny();
        for (seed, trace) in [(1, false), (2, true)] {
            let cfg = RunConfig {
                seed,
                seconds: 4.0,
                trace,
                out: out.clone(),
            };
            let o = run_workload(&w, &Target::InThread, &cfg)
                .unwrap_or_else(|e| panic!("{name} seed {seed}: {e}"));
            assert!(o.correct, "{name} seed {seed}: {:?}", o.problems);
            assert_eq!(o.failed, 0, "{name} seed {seed}: {:?}", o.problems);
            let report = std::fs::read_to_string(out.join(&name).join("report.json")).unwrap();
            let report = json::parse(&report).expect("report.json parses");
            let evaluated = report
                .get("checks")
                .and_then(|c| c.get("evaluated"))
                .and_then(Json::as_usize);
            assert!(
                evaluated.is_some_and(|n| n > 0),
                "{name}: the answer check did not run"
            );
            let lines = o.lines();
            for (metric, unit) in END_TO_END {
                if PROCESS_ONLY.contains(metric) {
                    continue;
                }
                let line = format!("{name} {metric} ");
                let found = lines
                    .lines()
                    .find(|l| l.starts_with(&line))
                    .unwrap_or_else(|| panic!("{name}: no {metric} line in\n{lines}"));
                assert!(found.split_whitespace().nth(3) == Some(unit), "{found}");
            }
            if !trace {
                continue;
            }
            let spans = std::fs::read_to_string(out.join(&name).join("trace.json")).unwrap();
            let spans = json::parse(&spans).expect("trace.json parses");
            let table: Vec<String> = spans
                .get("table")
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .filter_map(|r| r.get("name").and_then(Json::as_str).map(str::to_string))
                .collect();
            for (metric, unit) in PER_LAYER {
                let m = o
                    .per_layer
                    .iter()
                    .find(|m| m.name == *metric)
                    .unwrap_or_else(|| panic!("{name}: no per-layer {metric}"));
                assert_eq!(m.unit, *unit);
                // A timed per-layer metric comes from a span of the same layer call.
                if ["us", "ms"].contains(unit) && !metric.starts_with("driver.") {
                    let span = metric.rsplit_once('_').unwrap().0;
                    let span = match span {
                        "core.eval_ms" => "core.evaluate",
                        "core.residual" => "core.evaluate",
                        "pool.wait_ms" => "service.wait",
                        "server.tcp_overhead" => "service.wait",
                        other => other,
                    };
                    assert!(
                        table.iter().any(|t| t == span),
                        "{name}: no span for {metric}"
                    );
                }
            }
        }
    }
}
