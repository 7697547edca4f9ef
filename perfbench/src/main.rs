//! `csp-perfbench`: the repository benchmark.
//!
//! One command generates the inputs for a seed, checks that the outputs
//! are correct, and prints every metric by name with its unit. The last
//! line of standard output is one JSON object; a run whose correctness
//! check fails exits 1 without printing it. See `README.md` beside this
//! crate for the workloads, the metrics and how to read a traced run.

mod loadgen;
mod offline;
mod report;
mod sampler;
mod served;
mod spans;
mod stats;
#[cfg(test)]
mod tests;

use report::Report;
use spans::Recorder;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Fewest set-ups a run times; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// The quantile over a run's passes its timings are reported at: the
/// lower quartile of times and the upper quartile of rates, which a host
/// stall during a few passes does not move.
const PASS_QUANTILE: f64 = 0.25;

/// How far a traced run's breakdown may stray from the untraced
/// end-to-end time, as a share of it, before the run flags that its
/// layers do not account for that time.
const ACCOUNT_TOLERANCE: f64 = 0.25;

/// Where traced runs write their span dumps and the served workloads
/// their journals and audit logs, relative to the working directory.
const OUT_DIR: &str = ".perfbench";

const WORKLOADS: [&str; 4] = ["design_sweep", "scheme_grid", "serve_query", "serve_ingest"];

const USAGE: &str = "usage: csp-perfbench \
                     --workload <design_sweep|scheme_grid|serve_query|serve_ingest> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// The parsed command line.
pub struct Args {
    /// Which workload to run.
    pub workload: String,
    /// The seed every input is generated from.
    pub seed: u64,
    /// Length of the measured window, in seconds.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics).
    pub trace: bool,
    /// Suite scale overriding the workload's own; only the tests set it,
    /// to run on tiny suites.
    pub scale: Option<f64>,
    /// Perturbs one expected result, so the correctness check must fail;
    /// only the tests set it.
    pub corrupt_expected: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
                "--workload" => return Err(format!("unknown workload {value}")),
                "--seed" => {
                    seed = Some(
                        value
                            .parse::<u64>()
                            .map_err(|_| format!("--seed must be an integer, got {value}"))?,
                    )
                }
                "--seconds" => {
                    seconds = Some(
                        value
                            .parse::<f64>()
                            .ok()
                            .filter(|x| x.is_finite() && *x > 0.0)
                            .ok_or_else(|| format!("--seconds must be positive, got {value}"))?,
                    )
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            scale: None,
            corrupt_expected: false,
        })
    }

    /// The measured window.
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// Runs one workload: its report, or why it printed none.
pub fn run(args: &Args) -> Result<Report, String> {
    match args.workload.as_str() {
        "design_sweep" => offline::design_sweep(args),
        "scheme_grid" => offline::scheme_grid(args),
        "serve_query" => served::serve_query(args),
        _ => served::serve_ingest(args),
    }
}

/// Times a workload's set-up: once before the first pass, then again
/// after every pass, so that `setup_s`, the median of all of them,
/// samples the whole run. Set-ups made back to back at the start of a
/// run all land in whatever burst of host load is under way then.
pub struct Setup<F> {
    make: F,
    times: Vec<f64>,
}

impl<T, F: FnMut() -> Result<T, String>> Setup<F> {
    /// Sets up once, timed, and returns what the run keeps.
    pub fn first(mut make: F) -> Result<(T, Self), String> {
        let started = Instant::now();
        let kept = make()?;
        let times = vec![started.elapsed().as_secs_f64()];
        Ok((kept, Setup { make, times }))
    }

    /// Sets up once more, timed; the result is dropped untimed.
    pub fn again(&mut self) -> Result<(), String> {
        let started = Instant::now();
        let made = (self.make)()?;
        self.times.push(started.elapsed().as_secs_f64());
        drop(made);
        Ok(())
    }

    /// Tops the set-ups up to `SETUP_REPS` and returns their median.
    pub fn median(&mut self) -> Result<f64, String> {
        while self.times.len() < SETUP_REPS {
            self.again()?;
        }
        eprintln!("[perfbench] set-ups: {:.4?} s", self.times);
        Ok(stats::median(&self.times))
    }
}

/// The per-layer figures every traced run takes from its spans: span
/// totals, how much of the breakdown its layer spans cover, and
/// `accounted`, the breakdown's blocking-path time over the untraced
/// end-to-end time. Flags a run whose layers do not account for the
/// end-to-end time within `ACCOUNT_TOLERANCE`. Also prints the self-time
/// table and writes the span dump.
pub fn span_metrics(
    report: &mut Report,
    rec: &Recorder,
    args: &Args,
    accounted: f64,
) -> Result<(), String> {
    let all = rec.spans();
    let totals = spans::totals_by_name(&all);
    let coverage = spans::coverage(&all, "breakdown");
    report.set("trace.spans", all.len() as f64);
    report.set("trace.coverage", coverage);
    report.set("trace.accounted_frac", accounted);
    if (accounted - 1.0).abs() > ACCOUNT_TOLERANCE || coverage < 1.0 - ACCOUNT_TOLERANCE {
        eprintln!(
            "[perfbench] warning: the breakdown accounts for {accounted:.3} of the untraced \
             end-to-end time and its layer spans cover {coverage:.3} of it; outside the \
             {ACCOUNT_TOLERANCE} tolerance"
        );
    }
    eprint!("{}", spans::table(&totals));
    eprintln!(
        "[perfbench] {} seed {}: dominant layer {}",
        args.workload,
        args.seed,
        spans::dominant(&totals)
    );
    let path = Path::new(OUT_DIR).join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    rec.write_jsonl(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("[perfbench] spans written to {}", path.display());
    Ok(())
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let line = run(&args).and_then(|report| {
        eprint!("{}", report.summary(args.trace));
        report.to_json(args.trace)
    });
    match line {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
