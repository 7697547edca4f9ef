//! End-to-end proof of the telemetry pipeline: drive a live server with
//! the load generator, fetch the `Metrics` wire frame, and hold the
//! registry to *exact* agreement with the client's own accounting — the
//! per-shard query counters (and the service-time histogram counts,
//! which the shard worker records once per answered probe) must sum to
//! precisely the number of probes the client got answers for.

use csp_obs::{parse_text, sum_counter, Sample};
use csp_serve::{run_load, Client, LoadOptions, Server, ShardedEngine};
use std::io::{BufRead, BufReader, Lines};
use std::process::{Child, ChildStderr, Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

const SCHEME: &str = "last(pid+pc8)1[direct]";

fn load_opts() -> LoadOptions {
    LoadOptions {
        batch: 64,
        frames: 50,
        nodes: 16,
        timeout: Some(Duration::from_secs(10)),
        ..LoadOptions::default()
    }
}

/// Sums one histogram family's `_count` samples across all shards.
fn sum_histogram_count(samples: &[Sample], name: &str) -> u64 {
    let count_name = format!("{name}_count");
    samples
        .iter()
        .filter(|s| s.name == count_name)
        .filter_map(Sample::value_u64)
        .sum()
}

#[test]
fn metrics_counters_match_load_exactly() {
    let engine = Arc::new(ShardedEngine::new(SCHEME.parse().unwrap(), 16, 4));
    let server = Server::bind_tcp("127.0.0.1:0", Arc::clone(&engine)).unwrap();
    let addr = server.local_addr().unwrap();
    std::thread::spawn(move || server.run());

    let opts = load_opts();
    let report = run_load(addr, &opts).unwrap();
    assert_eq!(report.timeouts, 0, "loopback load must not time out");
    assert_eq!(report.disconnects, 0);

    let mut client = Client::connect_tcp(addr).unwrap();
    let text = client.metrics().unwrap();
    let samples = parse_text(&text);

    // run_load sends one warm-up frame before the measured ones; every
    // answered probe must appear in the shard query counters, exactly.
    let expected = report.probes + opts.batch as u64;
    assert_eq!(
        sum_counter(&samples, "csp_shard_queries_total"),
        expected,
        "query counters disagree with the client's answered-probe count"
    );
    // The shard worker records query service time once per answered
    // probe, so the histogram count tracks the counter exactly.
    assert_eq!(
        sum_histogram_count(&samples, "csp_shard_query_service_ns"),
        expected
    );
    // And the registry agrees with the engine's own merged stats.
    assert_eq!(engine.stats().queries, expected);

    // The wire-level frame counters saw the ping, the warm-up + measured
    // batches, and this very metrics request.
    let frames_of = |t: &str| {
        samples
            .iter()
            .filter(|s| s.name == "csp_wire_frames_total" && s.label("type") == Some(t))
            .filter_map(Sample::value_u64)
            .sum::<u64>()
    };
    assert_eq!(frames_of("predict_batch"), opts.frames as u64 + 1);
    assert_eq!(frames_of("ping"), 1);
    assert!(frames_of("metrics") >= 1);

    // Structural sanity of the exposition itself.
    assert!(text.contains("# TYPE csp_shard_query_service_ns histogram"));
    assert!(text.contains("# TYPE csp_connections_total counter"));
    assert!(sum_counter(&samples, "csp_connections_total") >= 2);
}

/// Kills the child on drop so a failing assertion never leaks a server.
struct ChildGuard(Child);

impl Drop for ChildGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Starts `csp-served serve` on an ephemeral port with `extra` flags and
/// returns it, its bound address, and the rest of its stderr.
fn spawn_serve(extra: &[&str]) -> (ChildGuard, String, Lines<BufReader<ChildStderr>>) {
    let mut child = ChildGuard(
        Command::new(env!("CARGO_BIN_EXE_csp-served"))
            .args([
                "serve",
                "--scheme",
                SCHEME,
                "--listen",
                "127.0.0.1:0",
                "--stats-every",
                "0",
            ])
            .args(extra)
            .stdin(Stdio::piped())
            .stderr(Stdio::piped())
            .stdout(Stdio::null())
            .spawn()
            .expect("spawn csp-served serve"),
    );

    // The server logs "serving <scheme> on <addr> (...)" once bound.
    let stderr = child.0.stderr.take().unwrap();
    let mut lines = BufReader::new(stderr).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("server exited before binding")
            .expect("read server stderr");
        if let Some(rest) = line.split(" on ").nth(1) {
            if line.starts_with("serving ") {
                break rest.split(' ').next().unwrap().to_string();
            }
        }
    };
    (child, addr, lines)
}

fn scrape(addr: &str) -> Vec<Sample> {
    let scrape = Command::new(env!("CARGO_BIN_EXE_csp-served"))
        .args(["metrics", "--addr", addr])
        .output()
        .expect("run csp-served metrics");
    assert!(
        scrape.status.success(),
        "metrics subcommand failed: {}",
        String::from_utf8_lossy(&scrape.stderr)
    );
    parse_text(&String::from_utf8(scrape.stdout).expect("utf8 scrape"))
}

#[test]
fn metrics_subcommand_scrapes_a_live_server() {
    let (mut child, addr, lines) = spawn_serve(&[]);
    // Keep draining stderr so the child never blocks on a full pipe.
    let drain = std::thread::spawn(move || for _ in lines {});

    let opts = load_opts();
    let report = run_load(addr.as_str(), &opts).expect("load against the real binary");
    assert_eq!(report.timeouts + report.disconnects, 0);

    let samples = scrape(&addr);
    assert_eq!(
        sum_counter(&samples, "csp_shard_queries_total"),
        report.probes + opts.batch as u64
    );

    // Closing stdin asks for a graceful drain; the exit must be clean.
    drop(child.0.stdin.take());
    let status = child.0.wait().expect("wait for csp-served");
    assert!(status.success(), "server exited with {status}");
    drain.join().unwrap();
}

/// The periodic snapshot thread writes through the served store, so its
/// writes show in `csp_snapshot_writes_total` before any shutdown.
#[test]
fn periodic_snapshots_count_in_the_scrape() {
    let dir = std::env::temp_dir().join(format!("csp-metrics-snaps-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let snap_dir = dir.to_str().unwrap();
    let (child, addr, mut lines) =
        spawn_serve(&["--snapshot-dir", snap_dir, "--snapshot-every", "1"]);
    let first = lines
        .find(|line| line.as_ref().is_ok_and(|l| l.starts_with("snapshot seq")))
        .expect("server exited before its first periodic snapshot");
    assert!(first.is_ok());
    assert!(sum_counter(&scrape(&addr), "csp_snapshot_writes_total") >= 1);
    drop(child);
    let _ = std::fs::remove_dir_all(&dir);
}
