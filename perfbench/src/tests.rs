//! Every workload on a tiny suite: a corrupted expected result must
//! suppress the report, and clean runs must report exactly the metrics
//! `BENCHMARK.json` lists, with the bypass counts exact.

use crate::{run, Args, WORKLOADS};

/// One tiny-suite, short run.
fn args(workload: &str, trace: bool, corrupt_expected: bool) -> Args {
    Args {
        workload: workload.to_string(),
        seed: 3,
        seconds: 0.5,
        trace,
        scale: Some(0.02),
        corrupt_expected,
    }
}

/// The metric names `BENCHMARK.json` lists under `section`.
fn listed(section: &str) -> Vec<String> {
    let spec = include_str!("../../BENCHMARK.json");
    let start = spec
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &spec[start..];
    let body = &body[..body.find(']').expect("section closed")];
    body.split("\"name\": \"")
        .skip(1)
        .filter_map(|s| s.split('"').next())
        .map(str::to_string)
        .collect()
}

/// A metric's value in a result line.
fn value(line: &str, name: &str) -> f64 {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line
        .find(&key)
        .unwrap_or_else(|| panic!("{name} in {line}"))
        + key.len()..];
    rest[..rest.find(',').expect("value ends")]
        .parse()
        .expect("a number")
}

#[test]
fn a_corrupted_expected_result_suppresses_the_report() {
    for workload in WORKLOADS {
        let outcome = run(&args(workload, false, true));
        assert!(
            outcome.is_err(),
            "{workload} reported despite a corrupted expectation"
        );
    }
}

#[test]
fn clean_runs_report_every_listed_metric_and_the_bypass_counts() {
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let names = listed(section);
        for workload in WORKLOADS {
            let report = run(&args(workload, trace, false))
                .unwrap_or_else(|e| panic!("{workload} trace {trace}: {e}"));
            let line = report.to_json(trace).expect("a result line");
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{line}"
            );
            for name in &names {
                value(&line, name);
            }
            assert_eq!(line.matches("\"value\"").count(), names.len(), "{line}");
            if !trace {
                continue;
            }
            let served = workload.starts_with("serve_");
            assert_eq!(
                value(&line, "serve.shard_threads") > 0.0,
                served,
                "{workload}"
            );
            match workload {
                "design_sweep" => {
                    assert_eq!(value(&line, "core.scheme_evals"), 0.0);
                    assert!(value(&line, "core.family_passes") > 0.0);
                }
                "scheme_grid" => {
                    assert_eq!(value(&line, "core.family_passes"), 0.0);
                    assert!(value(&line, "core.scheme_evals") > 0.0);
                }
                "serve_query" => {
                    assert_eq!(value(&line, "replication.journal_bytes"), 0.0);
                    assert_eq!(value(&line, "audit.records"), 0.0);
                    assert!(value(&line, "wire.frames") > 0.0);
                }
                _ => {
                    assert!(value(&line, "replication.journal_bytes") > 0.0);
                    assert!(value(&line, "audit.records") > 0.0);
                }
            }
        }
    }
}
