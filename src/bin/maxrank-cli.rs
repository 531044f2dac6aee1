//! `maxrank-cli` — run MaxRank / iMaxRank queries over a CSV file.
//!
//! ```text
//! maxrank-cli --data options.csv --dims 4 --focal 17 [--tau 2] [--algorithm aa|ba|fca|aa2d]
//!             [--threads 4] [--verbose]
//! maxrank-cli --data options.csv --dims 4 --point 0.4,0.7,0.2,0.9
//! maxrank-cli --data options.csv --dims 4 --focals 3,17,29,41 --threads 4
//! maxrank-cli --data options.csv --dims 4 --insert 0.4,0.7,0.2,0.9 --delete 3 --focal 17
//! maxrank-cli --data-dir /var/lib/maxrank --dataset hotels --focal 17
//! maxrank-cli --demo                       # run the paper's Figure 1 example
//! ```
//!
//! The CSV is plain comma-separated numeric values, one record per line (an
//! optional header line is skipped automatically); all attributes are
//! interpreted as "larger is better", as in the paper.
//!
//! Multi-focal invocations (`--focals`) run through the `mrq-service` worker
//! pool — `--threads N` picks the pool size — so a what-if study over many
//! focal records shares one index and evaluates in parallel.  For
//! single-focal runs `--threads N` instead shards the within-leaf cell
//! enumeration of that one query (BA / AA); `--verbose` adds the pruning and
//! throughput counters (cells/sec, events pruned) to the report.
//!
//! `--insert x,y,...` (repeatable) and `--delete ID` (repeatable) mutate the
//! dataset after loading, *through* the update machinery: each change goes
//! through `Dataset::apply` and the R\*-tree's incremental insert/delete
//! rather than a reload, exactly as the `UPDATE` verb of `maxrank-serve`
//! does.  Inserts are applied first (ids continue after the loaded records),
//! then deletes; a `--focal`/`--focals` id that was deleted is a friendly
//! error, since its record no longer participates in the ranking.
//!
//! `--data-dir DIR --dataset NAME` loads the durable store a
//! `maxrank-serve --data-dir DIR` process left under `DIR/NAME/` instead of
//! a CSV: the snapshot is read, the write-ahead log is replayed over it
//! (exactly the server's recovery path), and the query runs against the
//! recovered state.  The CLI never writes the store — `--insert`/`--delete`
//! stay in-memory what-ifs — and a damaged store produces a diagnostic, not
//! a panic; see the unit tests, which pin one message per failure mode.

use maxrank::prelude::*;
use mrq_data::io::read_csv;
use mrq_data::storage::{DatasetStore, RecoveryReport, SNAPSHOT_FILE};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

struct Args {
    data: Option<PathBuf>,
    data_dir: Option<PathBuf>,
    dataset: Option<String>,
    dims: Option<usize>,
    focal: Option<u32>,
    focals: Vec<u32>,
    point: Option<Vec<f64>>,
    inserts: Vec<Vec<f64>>,
    deletes: Vec<u32>,
    tau: usize,
    algorithm: Algorithm,
    regions_shown: usize,
    threads: usize,
    verbose: bool,
    demo: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        data: None,
        data_dir: None,
        dataset: None,
        dims: None,
        focal: None,
        focals: Vec::new(),
        point: None,
        inserts: Vec::new(),
        deletes: Vec::new(),
        tau: 0,
        algorithm: Algorithm::Auto,
        regions_shown: 10,
        threads: 1,
        verbose: false,
        demo: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--data" => args.data = Some(PathBuf::from(it.next().ok_or("--data needs a path")?)),
            "--data-dir" => {
                args.data_dir = Some(PathBuf::from(it.next().ok_or("--data-dir needs a path")?))
            }
            "--dataset" => args.dataset = Some(it.next().ok_or("--dataset needs a name")?),
            "--dims" => {
                args.dims = Some(
                    it.next()
                        .ok_or("--dims needs a value")?
                        .parse()
                        .map_err(|e| format!("--dims: {e}"))?,
                )
            }
            "--focal" => {
                args.focal = Some(
                    it.next()
                        .ok_or("--focal needs a record id")?
                        .parse()
                        .map_err(|e| format!("--focal: {e}"))?,
                )
            }
            "--focals" => {
                let raw = it
                    .next()
                    .ok_or("--focals needs comma-separated record ids")?;
                let ids: Result<Vec<u32>, _> = raw.split(',').map(|c| c.trim().parse()).collect();
                args.focals = ids.map_err(|e| format!("--focals: {e}"))?;
                if args.focals.is_empty() {
                    return Err("--focals needs at least one record id".into());
                }
            }
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
            "--point" => {
                let raw = it
                    .next()
                    .ok_or("--point needs comma-separated coordinates")?;
                let coords: Result<Vec<f64>, _> =
                    raw.split(',').map(|c| c.trim().parse()).collect();
                args.point = Some(coords.map_err(|e| format!("--point: {e}"))?);
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
            "--tau" => {
                args.tau = it
                    .next()
                    .ok_or("--tau needs a value")?
                    .parse()
                    .map_err(|e| format!("--tau: {e}"))?
            }
            "--algorithm" => {
                args.algorithm = match it.next().ok_or("--algorithm needs a name")?.as_str() {
                    "auto" => Algorithm::Auto,
                    "fca" => Algorithm::Fca,
                    "ba" => Algorithm::BasicApproach,
                    "aa" => Algorithm::AdvancedApproach,
                    "aa2d" => Algorithm::AdvancedApproach2D,
                    other => return Err(format!("unknown algorithm '{other}'")),
                }
            }
            "--regions" => {
                args.regions_shown = it
                    .next()
                    .ok_or("--regions needs a value")?
                    .parse()
                    .map_err(|e| format!("--regions: {e}"))?
            }
            "--verbose" => args.verbose = true,
            "--demo" => args.demo = true,
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown argument '{other}'\n{}", usage())),
        }
    }
    Ok(args)
}

fn usage() -> String {
    "usage: maxrank-cli (--data FILE.csv --dims D | --data-dir DIR --dataset NAME) \
     (--focal ID | --focals ID,ID,.. | --point x1,..,xD) \
     [--insert x1,..,xD]* [--delete ID]* \
     [--tau T] [--algorithm auto|fca|ba|aa|aa2d] [--regions N] [--threads N] [--verbose]\n       \
     maxrank-cli --demo\n       \
     --data-dir loads a durable store written by `maxrank-serve --data-dir` \
     (snapshot + WAL replay)"
        .to_string()
}

/// Loads the durable store `maxrank-serve --data-dir DIR` keeps under
/// `DIR/NAME/`, replaying the write-ahead log over the snapshot — the same
/// recovery the server performs on restart.  The store is opened read-only
/// from the CLI's point of view (it is dropped immediately, nothing is
/// appended), and every failure mode maps to a human-readable message
/// instead of a panic: a missing store, a file that is not a MaxRank
/// snapshot, an on-disk format this build does not read, a checksum
/// mismatch, and a WAL that disagrees with the snapshot's dimensionality
/// are each pinned by a unit test below.
fn load_store(dir: &Path, name: &str) -> Result<(Dataset, RecoveryReport), String> {
    let store_dir = dir.join(name);
    if !DatasetStore::exists(&store_dir) {
        return Err(format!(
            "no dataset store named '{name}' under {} (expected {}; durable stores \
             are created by `maxrank-serve --data-dir`)",
            dir.display(),
            store_dir.join(SNAPSHOT_FILE).display()
        ));
    }
    let (_store, data, report) =
        DatasetStore::open(&store_dir).map_err(|e| format!("cannot load dataset '{name}': {e}"))?;
    Ok((data, report))
}

/// Applies every `--insert` row and then every `--delete` id through the
/// mutation machinery, mirroring the service's `UPDATE` path:
/// `Dataset::apply` plus — when a tree is given — the R\*-tree's incremental
/// insert/delete (never a reload).  The `--focals` path passes no tree: the
/// service registry bulk-loads its own index over the mutated dataset, so
/// maintaining one here would only duplicate the build.
fn apply_updates(
    data: &mut Dataset,
    mut tree: Option<&mut RStarTree>,
    args: &Args,
) -> Result<(), String> {
    for row in &args.inserts {
        let applied = data
            .apply(&Update::Insert(row.clone()))
            .map_err(|e| format!("--insert {}: {e}", fmt_row(row)))?;
        if let Some(tree) = tree.as_deref_mut() {
            tree.insert(applied.inserted.expect("insert assigns an id"), row);
        }
    }
    for &id in &args.deletes {
        data.apply(&Update::Delete(id))
            .map_err(|e| format!("--delete {id}: {e}"))?;
        if let Some(tree) = tree.as_deref_mut() {
            // A tombstoned slot still exposes its coordinates for the search.
            let found = tree.delete(id, data.record(id));
            debug_assert!(found, "dataset and index disagree on id {id}");
        }
    }
    if !args.inserts.is_empty() || !args.deletes.is_empty() {
        println!(
            "updates applied   : +{} inserted, -{} deleted → {} live records (version {})",
            args.inserts.len(),
            args.deletes.len(),
            data.live_len(),
            data.version()
        );
    }
    Ok(())
}

fn fmt_row(row: &[f64]) -> String {
    row.iter().map(f64::to_string).collect::<Vec<_>>().join(",")
}

/// Evaluates every `--focals` record through the `mrq-service` worker pool
/// (shared index, `--threads` workers) and prints one summary row per focal.
fn run_multi_focal(data: Dataset, args: &Args) -> ExitCode {
    let n = data.len();
    for &id in &args.focals {
        if id as usize >= n {
            eprintln!("--focals {id} out of range (dataset has {n} record ids)");
            return ExitCode::FAILURE;
        }
        if !data.is_live(id) {
            eprintln!(
                "--focals {id} refers to a deleted record (removed by --delete); \
                 pick live focal ids"
            );
            return ExitCode::FAILURE;
        }
    }
    let registry = Arc::new(DatasetRegistry::new());
    if let Err(e) = registry.register_loaded("cli", data) {
        eprintln!("failed to index the dataset: {e}");
        return ExitCode::FAILURE;
    }
    let service = MrqService::new(
        registry,
        ServiceConfig {
            workers: args.threads,
            cache_capacity: args.focals.len(),
            ..ServiceConfig::default()
        },
    );
    // Enqueue everything first so the pool actually runs in parallel, then
    // collect in input order.
    let pending: Result<Vec<_>, _> = args
        .focals
        .iter()
        .map(|&focal| {
            service.enqueue(&QueryRequest {
                algorithm: args.algorithm,
                tau: args.tau,
                ..QueryRequest::new("cli", focal)
            })
        })
        .collect();
    let pending = match pending {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{} focal records over {} worker threads",
        args.focals.len(),
        args.threads
    );
    println!(
        "{:>8}  {:>6}  {:>8}  {:>10}  {:>8}",
        "focal", "k*", "|T|", "cpu_s", "io"
    );
    for (&focal, answer) in args.focals.iter().zip(pending) {
        match answer.wait() {
            Ok(a) => println!(
                "{:>8}  {:>6}  {:>8}  {:>10.4}  {:>8}",
                focal,
                a.result.k_star,
                a.result.region_count(),
                a.result.stats.cpu_time.as_secs_f64(),
                a.result.stats.io_reads
            ),
            Err(e) => {
                eprintln!("focal {focal}: {e}");
                service.shutdown();
                return ExitCode::FAILURE;
            }
        }
    }
    service.shutdown();
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    let data = if args.demo {
        // The same Figure-1 dataset `maxrank-serve --demo` registers.
        DatasetSpec::Demo
            .materialize()
            .expect("the demo dataset is embedded")
    } else if let Some(dir) = &args.data_dir {
        if args.data.is_some() {
            eprintln!("--data and --data-dir are mutually exclusive\n{}", usage());
            return ExitCode::FAILURE;
        }
        let Some(name) = &args.dataset else {
            eprintln!("--data-dir needs --dataset NAME\n{}", usage());
            return ExitCode::FAILURE;
        };
        match load_store(dir, name) {
            Ok((data, report)) => {
                println!(
                    "store '{name}'    : recovered at version {} ({} WAL batches replayed, \
                     {} torn bytes discarded, {} pages read)",
                    report.version,
                    report.batches_replayed,
                    report.torn_bytes_discarded,
                    report.pages_read
                );
                data
            }
            Err(msg) => {
                eprintln!("{msg}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        let Some(path) = &args.data else {
            eprintln!(
                "--data is required (or use --data-dir or --demo)\n{}",
                usage()
            );
            return ExitCode::FAILURE;
        };
        let Some(dims) = args.dims else {
            eprintln!("--dims is required\n{}", usage());
            return ExitCode::FAILURE;
        };
        match read_csv(path, dims) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("failed to read {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    };

    if args.algorithm.requires_2d() && data.dims() != 2 {
        eprintln!(
            "--algorithm {} only supports 2-dimensional data (the dataset has {} attributes); \
             use auto, ba or aa",
            args.algorithm.name(),
            data.dims()
        );
        return ExitCode::FAILURE;
    }

    let mut data = data;

    if !args.focals.is_empty() {
        // The service registry bulk-loads the index over the final dataset
        // state, so the updates only need to reach the dataset here.
        if let Err(msg) = apply_updates(&mut data, None, &args) {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
        return run_multi_focal(data, &args);
    }

    // Single-focal/point path: bulk-load once, then mutate the index
    // incrementally — the same insert/delete path the server's UPDATE uses.
    let mut tree = RStarTree::bulk_load(&data);
    if let Err(msg) = apply_updates(&mut data, Some(&mut tree), &args) {
        eprintln!("{msg}");
        return ExitCode::FAILURE;
    }

    let (focal_point, focal_id) = if args.demo {
        (vec![0.5, 0.5], Some(5u32))
    } else {
        match (&args.point, args.focal) {
            (Some(p), _) => {
                if p.len() != data.dims() {
                    eprintln!(
                        "--point has {} coordinates, expected {}",
                        p.len(),
                        data.dims()
                    );
                    return ExitCode::FAILURE;
                }
                (p.clone(), None)
            }
            (None, Some(id)) => {
                if id as usize >= data.len() {
                    eprintln!(
                        "--focal {id} out of range (dataset has {} record ids)",
                        data.len()
                    );
                    return ExitCode::FAILURE;
                }
                (data.record(id).to_vec(), Some(id))
            }
            (None, None) => {
                eprintln!(
                    "one of --focal, --focals or --point is required\n{}",
                    usage()
                );
                return ExitCode::FAILURE;
            }
        }
    };

    if let Some(id) = focal_id {
        if !data.is_live(id) {
            eprintln!(
                "--focal {id} refers to a deleted record (removed by --delete); \
                 pick a live focal or evaluate it as a what-if --point"
            );
            return ExitCode::FAILURE;
        }
    }

    let engine = MaxRankQuery::new(&data, &tree);
    let config = MaxRankConfig {
        tau: args.tau,
        algorithm: args.algorithm,
        threads: args.threads,
        ..MaxRankConfig::new()
    };
    let result = match focal_id {
        Some(id) => engine.evaluate(id, &config),
        None => engine.evaluate_point(&focal_point, &config),
    };

    println!(
        "dataset           : {} records × {} attributes",
        data.live_len(),
        data.dims()
    );
    println!("focal             : {focal_point:?}");
    println!("k* (best rank)    : {}", result.k_star);
    if args.tau > 0 {
        println!("tau               : {}", args.tau);
    }
    println!("result regions    : {}", result.region_count());
    println!("dominators        : {}", result.stats.dominators);
    println!("records accessed  : {}", result.stats.halfspaces_inserted);
    println!("page reads (I/O)  : {}", result.stats.io_reads);
    println!(
        "cpu time          : {:.3}s",
        result.stats.cpu_time.as_secs_f64()
    );
    if args.verbose {
        let secs = result.stats.cpu_time.as_secs_f64();
        let cells_per_sec = if secs > 0.0 {
            result.stats.cells_tested as f64 / secs
        } else {
            0.0
        };
        println!("threads           : {}", args.threads);
        println!("iterations        : {}", result.stats.iterations);
        println!(
            "cells tested      : {} ({:.0} cells/sec)",
            result.stats.cells_tested, cells_per_sec
        );
        println!(
            "LP calls          : {} (simplex solves: candidates + pair conditions)",
            result.stats.lp_calls
        );
        println!(
            "witness hits      : {} (cells proven non-empty without an LP)",
            result.stats.witness_hits
        );
        println!(
            "subtrees pruned   : {} (combination-search cuts)",
            result.stats.subtrees_pruned
        );
        println!(
            "events pruned     : {} (2-d sweep expansion skips)",
            result.stats.events_pruned
        );
        println!(
            "bitstrings pruned : {} (pairwise containment)",
            result.stats.bitstrings_pruned
        );
        println!("leaves processed  : {}", result.stats.leaves_processed);
    }
    for (i, region) in result.regions.iter().take(args.regions_shown).enumerate() {
        let q = region.representative_query();
        let rounded: Vec<f64> = q
            .iter()
            .map(|w| (w * 10_000.0).round() / 10_000.0)
            .collect();
        println!(
            "  region {:>3}: rank {}  example weights {:?}",
            i + 1,
            region.order,
            rounded
        );
    }
    if result.region_count() > args.regions_shown {
        println!(
            "  … {} more regions (use --regions to show more)",
            result.region_count() - args.regions_shown
        );
    }
    ExitCode::SUCCESS
}

/// One test per `--data-dir` failure mode: the CLI must turn every way a
/// store can be damaged into a specific diagnostic, never a panic.
#[cfg(test)]
mod tests {
    use super::*;
    use mrq_data::storage::WAL_FILE;
    use std::fs;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("maxrank-cli-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    fn sample_dataset() -> Dataset {
        let rows: Vec<Vec<f64>> = (0..16)
            .map(|i| {
                let x = (i as f64 + 1.0) / 17.0;
                vec![x, 1.0 - x, (x * 7.0) % 1.0]
            })
            .collect();
        Dataset::from_rows(3, &rows)
    }

    #[test]
    fn loads_a_healthy_store() {
        let dir = temp_dir("healthy");
        let data = sample_dataset();
        DatasetStore::create(&dir.join("bench"), &data).expect("create store");
        let (loaded, report) = load_store(&dir, "bench").expect("healthy store loads");
        assert_eq!(loaded.live_len(), data.live_len());
        assert_eq!(report.version, data.version());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_store_names_the_expected_path() {
        let dir = temp_dir("missing");
        let msg = load_store(&dir, "nope").unwrap_err();
        assert!(msg.contains("no dataset store named 'nope'"), "{msg}");
        assert!(msg.contains(SNAPSHOT_FILE), "{msg}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn non_snapshot_file_reports_bad_magic() {
        let dir = temp_dir("magic");
        let store = dir.join("bench");
        fs::create_dir_all(&store).unwrap();
        fs::write(store.join(SNAPSHOT_FILE), b"definitely not a snapshot").unwrap();
        let msg = load_store(&dir, "bench").unwrap_err();
        assert!(msg.contains("cannot load dataset 'bench'"), "{msg}");
        assert!(msg.contains("not a MaxRank snapshot file"), "{msg}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn future_format_version_reports_the_mismatch() {
        let dir = temp_dir("version");
        let store = dir.join("bench");
        fs::create_dir_all(&store).unwrap();
        let mut buf = Vec::new();
        buf.extend_from_slice(b"MRQSNAP\0");
        buf.extend_from_slice(&99u32.to_le_bytes());
        fs::write(store.join(SNAPSHOT_FILE), &buf).unwrap();
        let msg = load_store(&dir, "bench").unwrap_err();
        assert!(msg.contains("format version 99 is not supported"), "{msg}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flipped_snapshot_reports_a_checksum_mismatch() {
        let dir = temp_dir("corrupt");
        let store = dir.join("bench");
        DatasetStore::create(&store, &sample_dataset()).expect("create store");
        let path = store.join(SNAPSHOT_FILE);
        let mut buf = fs::read(&path).unwrap();
        let mid = buf.len() / 2; // inside the values region, after the header
        buf[mid] ^= 0xFF;
        fs::write(&path, &buf).unwrap();
        let msg = load_store(&dir, "bench").unwrap_err();
        assert!(msg.contains("is corrupt"), "{msg}");
        assert!(msg.contains("checksum mismatch"), "{msg}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wal_with_wrong_dimensionality_is_rejected() {
        let dir = temp_dir("dims");
        let store = dir.join("bench");
        DatasetStore::create(&store, &sample_dataset()).expect("create store");
        let path = store.join(WAL_FILE);
        let mut buf = fs::read(&path).unwrap();
        // WAL header layout: 8 magic bytes, u32 format version, u32 dims.
        buf[12..16].copy_from_slice(&4u32.to_le_bytes());
        fs::write(&path, &buf).unwrap();
        let msg = load_store(&dir, "bench").unwrap_err();
        assert!(msg.contains("WAL header says 4 attributes"), "{msg}");
        let _ = fs::remove_dir_all(&dir);
    }
}
