//! `csp-repro` — regenerate every table and figure of Kaxiras & Young
//! (HPCA 2000) from the synthetic benchmark suite.
//!
//! ```text
//! csp-repro [--scale S] [--seed N] [--out DIR] [EXPERIMENT...]
//!
//!   EXPERIMENT: table3..table11, fig6..fig9, extA, extC, ext-depth,
//!               ext-field, ext-sticky, ext-confidence, ext-cosmos,
//!               ext-degree, or `all` (default)
//!   --scale S         workload scale factor (default 1.0)
//!   --seed N          suite seed (default 1)
//!   --out DIR         additionally write each report to DIR/<experiment>.txt
//!   --cache-dir DIR   trace cache location (default results/trace-cache)
//!   --no-cache        generate the suite in memory, bypassing the cache
//!   --checkpoint FILE resume the tables 8-11 design-space sweep from FILE
//!   --sweep-tsv FILE  dump the full design-space sweep as TSV and exit
//!   --verify-serve    replay the suite through the online sharded engine
//!                     (csp-serve) and verify bit-identical statistics
//! ```
//!
//! Engine timing lives in the `csp-bar` barometer (see
//! `crates/bar/FORMAT.md`).
//!
//! Exit codes: 0 success; 1 runtime failure (I/O, corruption, worker
//! panics — diagnostics on stderr, no usage text); 2 usage error (bad
//! flags — usage text on stderr).

use csp_harness::experiments::{top_tables, top_tables_checkpointed, ExperimentId, TopTables};
use csp_harness::runner::dump_sweep_tsv;
use csp_harness::{CacheOutcome, HarnessError, Suite, TraceCache};
use std::path::PathBuf;
use std::process::ExitCode;

/// Everything the command line selects.
struct Options {
    scale: f64,
    seed: u64,
    out_dir: Option<PathBuf>,
    cache_dir: Option<PathBuf>,
    checkpoint: Option<PathBuf>,
    sweep_tsv: Option<PathBuf>,
    verify_serve: bool,
    requested: Vec<ExperimentId>,
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => return usage_error(&msg),
    };
    match run(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        // Runtime failures are not usage mistakes: report the error alone
        // (no usage text) and exit with a distinct code.
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        scale: 1.0,
        seed: 1,
        out_dir: None,
        cache_dir: Some(PathBuf::from("results/trace-cache")),
        checkpoint: None,
        sweep_tsv: None,
        verify_serve: false,
        requested: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => match args.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(v) if v > 0.0 => opts.scale = v,
                _ => return Err("--scale needs a positive number".into()),
            },
            "--seed" => match args.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(v) => opts.seed = v,
                _ => return Err("--seed needs an integer".into()),
            },
            "--out" => match args.next() {
                Some(dir) => opts.out_dir = Some(PathBuf::from(dir)),
                None => return Err("--out needs a directory".into()),
            },
            "--cache-dir" => match args.next() {
                Some(dir) => opts.cache_dir = Some(PathBuf::from(dir)),
                None => return Err("--cache-dir needs a directory".into()),
            },
            "--no-cache" => opts.cache_dir = None,
            "--checkpoint" => match args.next() {
                Some(f) => opts.checkpoint = Some(PathBuf::from(f)),
                None => return Err("--checkpoint needs a file path".into()),
            },
            "--sweep-tsv" => match args.next() {
                Some(f) => opts.sweep_tsv = Some(PathBuf::from(f)),
                None => return Err("--sweep-tsv needs a file path".into()),
            },
            "--verify-serve" => opts.verify_serve = true,
            "--help" | "-h" => {
                print_usage();
                std::process::exit(0);
            }
            "all" => opts.requested.extend(ExperimentId::ALL),
            name => match ExperimentId::from_name(name) {
                Some(e) => opts.requested.push(e),
                None => return Err(format!("unknown experiment {name:?}")),
            },
        }
    }
    if opts.requested.is_empty() {
        opts.requested.extend(ExperimentId::ALL);
    }
    Ok(opts)
}

fn run(opts: &Options) -> Result<(), HarnessError> {
    let t0 = std::time::Instant::now();
    let suite = load_suite(opts)?;
    for b in suite.traces() {
        eprintln!(
            "  {:9} {:>8} events, {:>7} blocks, prevalence {:.2}%",
            b.benchmark.name(),
            b.trace.len(),
            b.stats.lines_touched,
            b.trace.prevalence() * 100.0
        );
    }
    eprintln!("suite ready in {:.1?}\n", t0.elapsed());

    if opts.verify_serve {
        return verify_serve(&suite);
    }

    if let Some(path) = &opts.sweep_tsv {
        eprintln!("dumping full design-space sweep to {}...", path.display());
        let file = std::fs::File::create(path).map_err(|e| HarnessError::io(path, e))?;
        return dump_sweep_tsv(&suite, std::io::BufWriter::new(file))
            .map_err(|e| HarnessError::io(path, e));
    }

    // Tables 8-11 share one expensive sweep; compute it once if more than
    // one of them was requested, or if a checkpoint should back it.
    let search_ids = [
        ExperimentId::Table8,
        ExperimentId::Table9,
        ExperimentId::Table10,
        ExperimentId::Table11,
    ];
    let wants_search = opts
        .requested
        .iter()
        .filter(|e| search_ids.contains(e))
        .count();
    let tops: Option<TopTables> =
        if wants_search > 1 || (wants_search > 0 && opts.checkpoint.is_some()) {
            eprintln!("running design-space sweep for tables 8-11...");
            let t = std::time::Instant::now();
            let tops = match &opts.checkpoint {
                Some(path) => top_tables_checkpointed(&suite, path)?,
                None => top_tables(&suite),
            };
            eprintln!("sweep done in {:.1?}\n", t.elapsed());
            Some(tops)
        } else {
            None
        };

    for &e in &opts.requested {
        let t = std::time::Instant::now();
        let report = match (&tops, e) {
            (Some(t), ExperimentId::Table8) => t.table8.clone(),
            (Some(t), ExperimentId::Table9) => t.table9.clone(),
            (Some(t), ExperimentId::Table10) => t.table10.clone(),
            (Some(t), ExperimentId::Table11) => t.table11.clone(),
            _ => e.run(&suite),
        };
        println!("{report}");
        if let Some(dir) = &opts.out_dir {
            if let Err(err) = std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::write(dir.join(format!("{e}.txt")), &report))
            {
                eprintln!("warning: could not write {e}.txt: {err}");
            }
        }
        eprintln!("[{e} in {:.1?}]\n", t.elapsed());
    }
    Ok(())
}

/// Replays the suite through the online sharded engine (`csp-serve`) for
/// every scheme in the verification grid and checks the screening
/// statistics are bit-identical to the reference evaluator.
fn verify_serve(suite: &Suite) -> Result<(), HarnessError> {
    use csp_harness::serve::{verification_schemes, verify_online_equivalence};

    const SHARDS: usize = 4;
    let schemes = verification_schemes();
    println!(
        "verifying online (sharded x{SHARDS}) == offline across {} schemes x {} benchmarks",
        schemes.len(),
        suite.traces().len()
    );
    let t0 = std::time::Instant::now();
    let divergences = verify_online_equivalence(suite, &schemes, SHARDS);
    for scheme in &schemes {
        let diverged: Vec<_> = divergences.iter().filter(|d| d.scheme == *scheme).collect();
        if diverged.is_empty() {
            println!("  {scheme:<28} online == offline (bit-identical)");
        } else {
            for d in diverged {
                println!("  DIVERGED: {d}");
            }
        }
    }
    println!("verified in {:.1?}", t0.elapsed());
    if divergences.is_empty() {
        Ok(())
    } else {
        Err(HarnessError::ServeDivergence {
            count: divergences.len(),
            first: divergences[0].to_string(),
        })
    }
}

/// Builds the suite, through the trace cache unless `--no-cache`.
fn load_suite(opts: &Options) -> Result<Suite, HarnessError> {
    match &opts.cache_dir {
        None => {
            eprintln!(
                "generating benchmark suite (scale {}, seed {})...",
                opts.scale, opts.seed
            );
            Ok(Suite::generate(opts.scale, opts.seed))
        }
        Some(dir) => {
            eprintln!(
                "loading benchmark suite (scale {}, seed {}, cache {})...",
                opts.scale,
                opts.seed,
                dir.display()
            );
            let cache = TraceCache::new(dir);
            let (suite, outcomes) = cache.load_suite(opts.scale, opts.seed)?;
            let hits = outcomes.iter().filter(|&&o| o == CacheOutcome::Hit).count();
            let quarantined = outcomes
                .iter()
                .filter(|&&o| o == CacheOutcome::Quarantined)
                .count();
            if quarantined > 0 {
                eprintln!(
                    "  cache: {hits}/{} hits, {quarantined} corrupt entries regenerated",
                    outcomes.len()
                );
            } else {
                eprintln!("  cache: {hits}/{} hits", outcomes.len());
            }
            Ok(suite)
        }
    }
}

fn usage_error(err: &str) -> ExitCode {
    eprintln!("error: {err}\n");
    print_usage();
    ExitCode::from(2)
}

fn print_usage() {
    eprintln!("usage: csp-repro [OPTIONS] [EXPERIMENT...]");
    eprintln!("options:");
    eprintln!("  --scale S         workload scale factor (default 1.0)");
    eprintln!("  --seed N          suite seed (default 1)");
    eprintln!("  --out DIR         also write each report to DIR/<experiment>.txt");
    eprintln!("  --cache-dir DIR   trace cache location (default results/trace-cache)");
    eprintln!("  --no-cache        generate the suite in memory, bypassing the cache");
    eprintln!("  --checkpoint FILE resume the tables 8-11 sweep from FILE");
    eprintln!("  --sweep-tsv FILE  dump the full design-space sweep as TSV and exit");
    eprintln!("  --verify-serve    verify the online sharded engine reproduces offline stats");
    eprintln!("experiments:");
    for e in ExperimentId::ALL {
        eprintln!("  {e}");
    }
    eprintln!("  all (default)");
}
