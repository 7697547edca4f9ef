//! `csp-bar` — the benchmark barometer CLI.
//!
//! ```text
//! csp-bar run   [--defs F] [--out F] [run options]   measure the matrix, append records
//! csp-bar diff  A.bar [B.bar]                        compare two record sets cell by cell
//! csp-bar rank  F.bar                                rank engines per workload (latest run)
//! csp-bar history CELL [F.bar]                       one cell's trajectory across runs
//! csp-bar check [--defs F] [--trajectory F] [opts]   run a reduced matrix, gate vs history
//! csp-bar prune --keep-last N [F.bar]                drop all but each cell's newest N records
//! ```
//!
//! Run options (also honored by `check`):
//!
//! ```text
//!   --scale S        workload scale factor      (default: from definitions)
//!   --seed N         suite seed                 (default: from definitions)
//!   --warmup N       untimed passes per cell    (default: from definitions)
//!   --iters N        timed passes per cell      (default: from definitions)
//!   --shards N       sharded-engine workers     (default: from definitions)
//!   --cache-dir DIR  trace cache directory      (default: results/trace-cache)
//!   --no-cache       generate the suite in memory
//! ```
//!
//! Exit codes: 0 success, 1 runtime or gate failure, 2 usage.

#![forbid(unsafe_code)]

use csp_bar::record::{
    append_records_file, prune_records_file, read_records_file, require_fingerprint,
};
use csp_bar::runner::RunMeta;
use csp_bar::{check, diff, history, rank, run_matrix, BarDefs, BarError, BarRecord, CellKey};
use csp_harness::{CacheOutcome, Suite, TraceCache};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Default committed definitions file.
const DEFAULT_DEFS: &str = "benchmarks.bar";
/// Default committed trajectory file.
const DEFAULT_TRAJECTORY: &str = "results/bar/trajectory.bar";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        return usage_error("missing subcommand");
    };
    let result = match cmd.as_str() {
        "run" => cmd_run(rest),
        "diff" => cmd_diff(rest),
        "rank" => cmd_rank(rest),
        "history" => cmd_history(rest),
        "check" => cmd_check(rest),
        "prune" => cmd_prune(rest),
        "--help" | "-h" | "help" => {
            print_usage();
            return ExitCode::SUCCESS;
        }
        other => return usage_error(&format!("unknown subcommand {other:?}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(msg)) => usage_error(&msg),
        Err(CliError::Runtime(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

enum CliError {
    Usage(String),
    Runtime(BarError),
}

impl From<BarError> for CliError {
    fn from(e: BarError) -> Self {
        CliError::Runtime(e)
    }
}

fn usage(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

/// Flags shared by `run` and `check`; `None` defers to the definitions.
#[derive(Default)]
struct RunFlags {
    defs: Option<PathBuf>,
    out: Option<PathBuf>,
    trajectory: Option<PathBuf>,
    scale: Option<f64>,
    seed: Option<u64>,
    warmup: Option<usize>,
    iters: Option<usize>,
    shards: Option<usize>,
    cache_dir: Option<PathBuf>,
    no_cache: bool,
    keep_last: Option<usize>,
    positional: Vec<String>,
}

fn parse_flags(args: &[String]) -> Result<RunFlags, CliError> {
    let mut flags = RunFlags {
        cache_dir: Some(PathBuf::from("results/trace-cache")),
        ..RunFlags::default()
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| usage(format!("{name} needs a value")))
        };
        match arg.as_str() {
            "--defs" => flags.defs = Some(PathBuf::from(value("--defs")?)),
            "--out" => flags.out = Some(PathBuf::from(value("--out")?)),
            "--trajectory" => flags.trajectory = Some(PathBuf::from(value("--trajectory")?)),
            "--scale" => flags.scale = Some(parse_value(&value("--scale")?, "--scale")?),
            "--seed" => flags.seed = Some(parse_value(&value("--seed")?, "--seed")?),
            "--warmup" => flags.warmup = Some(parse_value(&value("--warmup")?, "--warmup")?),
            "--iters" => flags.iters = Some(parse_value(&value("--iters")?, "--iters")?),
            "--shards" => flags.shards = Some(parse_value(&value("--shards")?, "--shards")?),
            "--cache-dir" => flags.cache_dir = Some(PathBuf::from(value("--cache-dir")?)),
            "--no-cache" => flags.no_cache = true,
            "--keep-last" => {
                flags.keep_last = Some(parse_value(&value("--keep-last")?, "--keep-last")?)
            }
            other if other.starts_with('-') => {
                return Err(usage(format!("unknown flag {other:?}")))
            }
            positional => flags.positional.push(positional.to_string()),
        }
    }
    Ok(flags)
}

fn parse_value<T: std::str::FromStr>(raw: &str, name: &str) -> Result<T, CliError> {
    raw.parse()
        .map_err(|_| usage(format!("{name} got invalid value {raw:?}")))
}

/// Loads the definitions: `--defs` path, the committed default, or the
/// built-in matrix when neither exists; then applies flag overrides.
fn load_defs(flags: &RunFlags) -> Result<BarDefs, CliError> {
    let mut defs = match &flags.defs {
        Some(path) => parse_defs_file(path)?,
        None if Path::new(DEFAULT_DEFS).exists() => parse_defs_file(Path::new(DEFAULT_DEFS))?,
        None => {
            eprintln!("no {DEFAULT_DEFS}; using built-in definitions");
            BarDefs::builtin()
        }
    };
    if let Some(v) = flags.scale {
        defs.scale = v;
    }
    if let Some(v) = flags.seed {
        defs.seed = v;
    }
    if let Some(v) = flags.warmup {
        defs.warmup = v;
    }
    if let Some(v) = flags.iters {
        defs.iters = v;
    }
    if let Some(v) = flags.shards {
        defs.shards = v;
    }
    Ok(defs)
}

fn parse_defs_file(path: &Path) -> Result<BarDefs, CliError> {
    let text = std::fs::read_to_string(path).map_err(|e| BarError::io(path, e))?;
    let defs = BarDefs::parse(&text).map_err(|e| match e {
        BarError::Defs { line, detail } => BarError::Defs {
            line,
            detail: format!("{}: {detail}", path.display()),
        },
        other => other,
    })?;
    Ok(defs)
}

/// Builds the suite, through the trace cache unless `--no-cache`.
fn load_suite(defs: &BarDefs, flags: &RunFlags) -> Suite {
    match (&flags.cache_dir, flags.no_cache) {
        (Some(dir), false) => {
            eprintln!(
                "loading benchmark suite (scale {}, seed {}, cache {})...",
                defs.scale,
                defs.seed,
                dir.display()
            );
            let cache = TraceCache::new(dir);
            match cache.load_suite(defs.scale, defs.seed) {
                Ok((suite, outcomes)) => {
                    let hits = outcomes.iter().filter(|&&o| o == CacheOutcome::Hit).count();
                    eprintln!("  cache: {hits}/{} hits", outcomes.len());
                    suite
                }
                Err(e) => {
                    eprintln!("  cache unavailable ({e}); generating in memory");
                    Suite::generate(defs.scale, defs.seed)
                }
            }
        }
        _ => {
            eprintln!(
                "generating benchmark suite (scale {}, seed {})...",
                defs.scale, defs.seed
            );
            Suite::generate(defs.scale, defs.seed)
        }
    }
}

fn measure(defs: &BarDefs, flags: &RunFlags) -> Result<(RunMeta, Vec<BarRecord>), CliError> {
    let suite = load_suite(defs, flags);
    let meta = RunMeta::capture();
    eprintln!(
        "run {} on {} ({} workloads x {} schemes x {} engines, warmup {}, iters {})",
        meta.run,
        meta.host,
        defs.workloads.len(),
        defs.schemes.len(),
        defs.engines.len(),
        defs.warmup,
        defs.iters,
    );
    let records = run_matrix(&suite, defs, &meta, |line| eprintln!("  {line}"))?;
    Ok((meta, records))
}

fn cmd_run(args: &[String]) -> Result<(), CliError> {
    let flags = parse_flags(args)?;
    if !flags.positional.is_empty() {
        return Err(usage(format!(
            "run takes no positionals, got {:?}",
            flags.positional
        )));
    }
    let defs = load_defs(&flags)?;
    let (meta, records) = measure(&defs, &flags)?;
    let out = flags
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from(DEFAULT_TRAJECTORY));
    append_records_file(&out, &records)?;
    println!(
        "appended {} records (run {}) to {}",
        records.len(),
        meta.run,
        out.display()
    );
    Ok(())
}

fn cmd_diff(args: &[String]) -> Result<(), CliError> {
    let flags = parse_flags(args)?;
    let report = match flags.positional.as_slice() {
        [a, b] => {
            let ra = read_records_file(Path::new(a))?;
            let rb = read_records_file(Path::new(b))?;
            diff(&ra, &rb)
        }
        [single] => {
            // One file: compare its latest two run batches.
            let records = read_records_file(Path::new(single))?;
            let groups = csp_bar::report::runs(&records);
            let [.., prev, last] = groups.as_slice() else {
                return Err(BarError::Record {
                    detail: format!("{single} holds fewer than two runs; nothing to diff"),
                }
                .into());
            };
            println!("diffing run {} (A) against run {} (B)", prev.run, last.run);
            let a: Vec<BarRecord> = prev.records.iter().map(|r| (*r).clone()).collect();
            let b: Vec<BarRecord> = last.records.iter().map(|r| (*r).clone()).collect();
            diff(&a, &b)
        }
        _ => return Err(usage("diff takes one trajectory or two record files")),
    };
    print!("{report}");
    Ok(())
}

fn cmd_rank(args: &[String]) -> Result<(), CliError> {
    let flags = parse_flags(args)?;
    let [file] = flags.positional.as_slice() else {
        return Err(usage("rank takes exactly one record file"));
    };
    let records = read_records_file(Path::new(file))?;
    if records.is_empty() {
        return Err(BarError::Record {
            detail: format!("{file} holds no records"),
        }
        .into());
    }
    print!("{}", rank(&records));
    Ok(())
}

/// `csp-bar history ENGINE/WORKLOAD/SCHEME [F.bar]` — one cell's
/// committed throughput trajectory: sparkline plus a p50/p99 table.
/// Reads the default trajectory when no file is given. Deliberately no
/// fingerprint requirement: history spans matrix reshapes; records key
/// by cell strings, so old-shape runs that covered the cell still show.
fn cmd_history(args: &[String]) -> Result<(), CliError> {
    let flags = parse_flags(args)?;
    let (cell_arg, file) = match flags.positional.as_slice() {
        [cell] => (cell, PathBuf::from(DEFAULT_TRAJECTORY)),
        [cell, file] => (cell, PathBuf::from(file)),
        _ => {
            return Err(usage(
                "history takes a cell (engine/workload/scheme) and optionally a record file",
            ))
        }
    };
    let mut parts = cell_arg.splitn(3, '/');
    let (Some(engine), Some(workload), Some(scheme)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(usage(format!(
            "cell {cell_arg:?} must be engine/workload/scheme (e.g. simd/water/last(pid+pc8)1[direct])"
        )));
    };
    let records = read_records_file(&file)?;
    let cell = CellKey {
        engine: engine.to_string(),
        workload: workload.to_string(),
        scheme: scheme.to_string(),
    };
    let report = history(&records, &cell);
    if report.points.is_empty() {
        return Err(BarError::Record {
            detail: format!("{}: no runs in {} cover this cell", cell, file.display()),
        }
        .into());
    }
    println!("{report}");
    Ok(())
}

fn cmd_check(args: &[String]) -> Result<(), CliError> {
    let flags = parse_flags(args)?;
    if !flags.positional.is_empty() {
        return Err(usage(format!(
            "check takes no positionals, got {:?}",
            flags.positional
        )));
    }
    let defs = load_defs(&flags)?;
    let trajectory_path = flags
        .trajectory
        .clone()
        .unwrap_or_else(|| PathBuf::from(DEFAULT_TRAJECTORY));
    let trajectory = if trajectory_path.exists() {
        let records = read_records_file(&trajectory_path)?;
        // History measured under a different matrix shape must never
        // gate this one.
        require_fingerprint(&records, defs.fingerprint())?;
        records
    } else {
        eprintln!(
            "no trajectory at {} — gating ratio floors on the current run only",
            trajectory_path.display()
        );
        Vec::new()
    };
    let (_, current) = measure(&defs, &flags)?;
    let report = check(&defs, &trajectory, &current);
    println!("{report}");
    if report.ok() {
        Ok(())
    } else {
        Err(BarError::Gate {
            failures: report.failures.clone(),
        }
        .into())
    }
}

/// `csp-bar prune --keep-last N [F.bar]` — rewrites the trajectory
/// keeping only each cell's newest N records. The rewrite is atomic
/// (tmp + rename), so an interrupted prune leaves the file untouched;
/// `--keep-last 0` is refused rather than silently emptying history.
fn cmd_prune(args: &[String]) -> Result<(), CliError> {
    let flags = parse_flags(args)?;
    let path = match flags.positional.as_slice() {
        [] => PathBuf::from(DEFAULT_TRAJECTORY),
        [file] => PathBuf::from(file),
        _ => return Err(usage("prune takes at most one trajectory file")),
    };
    let Some(keep_last) = flags.keep_last else {
        return Err(usage("prune needs --keep-last N"));
    };
    if keep_last == 0 {
        return Err(usage(
            "--keep-last 0 would erase the whole trajectory; delete the file if you mean that",
        ));
    }
    let (kept, dropped) = prune_records_file(&path, keep_last)?;
    println!(
        "pruned {}: kept {kept} record(s), dropped {dropped} (newest {keep_last} per cell)",
        path.display()
    );
    Ok(())
}

fn usage_error(err: &str) -> ExitCode {
    eprintln!("error: {err}\n");
    print_usage();
    ExitCode::from(2)
}

fn print_usage() {
    eprintln!("csp-bar — benchmark barometer (see crates/bar/FORMAT.md)");
    eprintln!();
    eprintln!("usage:");
    eprintln!("  csp-bar run   [--defs F] [--out F] [run options]");
    eprintln!("  csp-bar diff  A.bar [B.bar]");
    eprintln!("  csp-bar rank  F.bar");
    eprintln!("  csp-bar history ENGINE/WORKLOAD/SCHEME [F.bar]");
    eprintln!("  csp-bar check [--defs F] [--trajectory F] [run options]");
    eprintln!("  csp-bar prune --keep-last N [F.bar]");
    eprintln!();
    eprintln!("run options:");
    eprintln!("  --scale S        workload scale factor      (default: from definitions)");
    eprintln!("  --seed N         suite seed                 (default: from definitions)");
    eprintln!("  --warmup N       untimed passes per cell    (default: from definitions)");
    eprintln!("  --iters N        timed passes per cell      (default: from definitions)");
    eprintln!("  --shards N       sharded-engine workers     (default: from definitions)");
    eprintln!("  --cache-dir DIR  trace cache directory      (default: results/trace-cache)");
    eprintln!("  --no-cache       generate the suite in memory");
    eprintln!();
    eprintln!("defaults: --defs {DEFAULT_DEFS}, trajectory {DEFAULT_TRAJECTORY}");
}
