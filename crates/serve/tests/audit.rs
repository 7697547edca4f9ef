//! The audit proof, end to end through the real binary: a serving
//! engine records every scored decision to a `--audit-log`, and
//! `csp-served audit verify` replays the same trace through an offline
//! twin and demands the log byte-identical — across every benchmark of
//! the paper's suite, through a SIGKILL mid-record (the torn tail must
//! verify as a clean prefix), and against the shutdown snapshot's end
//! state. Corruption and version-fingerprint mismatches must be typed
//! rejections, a sampled log must verify its deterministic subset, and
//! `audit tail` must stream live records carrying the advertised
//! fingerprint.

#![cfg(unix)]

use csp_core::reference::run_scheme;
use csp_core::Scheme;
use csp_serve::wire::StatsReply;
use csp_serve::Client;
use csp_workloads::generate_suite;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const SCHEME: &str = "union(pid+pc8)2[direct]";
const SHARDS: &str = "3";
const SCALE: f64 = 0.02;
const SEED: u64 = 11;

/// Magic + fingerprint + shards + sample + CRC — the audit log header.
const HEADER_LEN: u64 = 8 + 4 + 2 + 4 + 4;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_csp-served")
}

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("csp-audit-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn arg(p: &Path) -> &str {
    p.to_str().unwrap()
}

/// A served process whose stdin is held open; dropping the guard closes
/// stdin (graceful shutdown) and reaps the child. `kill9` skips the
/// grace and SIGKILLs, like a crashed host.
struct Served {
    child: Child,
    stderr_path: PathBuf,
}

impl Served {
    fn spawn(dir: &TempDir, tag: &str, args: &[&str]) -> Served {
        let stderr_path = dir.path(&format!("{tag}.stderr"));
        let child = Command::new(bin())
            .arg("serve")
            .args(args)
            .stdin(Stdio::piped())
            .stderr(fs::File::create(&stderr_path).unwrap())
            .spawn()
            .unwrap();
        Served { child, stderr_path }
    }

    fn stderr(&self) -> String {
        fs::read_to_string(&self.stderr_path).unwrap_or_default()
    }

    /// SIGKILL — no drain, no snapshot, no flush.
    fn kill9(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Closes stdin and waits for the graceful exit.
    fn shutdown(mut self) -> (bool, String) {
        drop(self.child.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait().unwrap() {
                Some(status) => return (status.success(), self.stderr()),
                None if Instant::now() > deadline => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    panic!(
                        "serve did not exit within 30s of stdin closing:\n{}",
                        self.stderr()
                    );
                }
                None => std::thread::sleep(Duration::from_millis(20)),
            }
        }
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Waits for an `--addr-file` to appear and parses the bound address.
fn wait_addr(path: &Path) -> String {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(s) = fs::read_to_string(path) {
            let s = s.trim().to_string();
            if !s.is_empty() {
                return s;
            }
        }
        assert!(
            Instant::now() < deadline,
            "no address in {}",
            path.display()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn connect(addr: &str) -> Client {
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        match Client::connect_tcp(addr) {
            Ok(mut c) => {
                c.set_timeouts(Some(Duration::from_secs(10)), Some(Duration::from_secs(10)))
                    .unwrap();
                return c;
            }
            Err(e) => {
                assert!(Instant::now() < deadline, "connect {addr}: {e}");
                std::thread::sleep(Duration::from_millis(30));
            }
        }
    }
}

fn stats(addr: &str) -> StatsReply {
    connect(addr).stats().unwrap()
}

/// Polls until `cond` holds over the server's stats, or panics with the
/// last observation.
fn wait_stats(addr: &str, what: &str, cond: impl Fn(&StatsReply) -> bool) -> StatsReply {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let s = stats(addr);
        if cond(&s) {
            return s;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for {what}; last: scored {} updates {} entries {}",
            s.scored,
            s.updates,
            s.entries
        );
        std::thread::sleep(Duration::from_millis(40));
    }
}

fn write_trace(dir: &TempDir, bench_idx: usize) -> (PathBuf, usize, usize) {
    let suite = generate_suite(SCALE, SEED);
    let bench = &suite[bench_idx];
    let path = dir.path(&format!("trace-{bench_idx}.csptrc"));
    let file = fs::File::create(&path).unwrap();
    csp_trace::io::write_trace(std::io::BufWriter::new(file), &bench.trace).unwrap();
    (path, bench.trace.len(), bench.trace.nodes())
}

fn push(addr: &str, trace: &Path) {
    let out = Command::new(bin())
        .args(["push", "--addr", addr, "--scheme", SCHEME])
        .arg(arg(trace))
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "push failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// Runs `csp-served audit verify` and reports (success, stdout, stderr).
fn audit_verify(
    scheme: &str,
    log: &Path,
    snapshot_dir: Option<&Path>,
    trace: &Path,
) -> (bool, String, String) {
    let mut cmd = Command::new(bin());
    cmd.args(["audit", "verify", "--scheme", scheme, "--log", arg(log)]);
    if let Some(dir) = snapshot_dir {
        cmd.args(["--snapshot-dir", arg(dir)]);
    }
    let out = cmd.arg(arg(trace)).output().unwrap();
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Runs `csp-served audit record` into `log` and asserts it succeeds.
fn audit_record(scheme: &str, log: &Path, trace: &Path, extra: &[&str]) -> String {
    let out = Command::new(bin())
        .args(["audit", "record", "--scheme", scheme, "--shards", SHARDS])
        .args(["--log", arg(log)])
        .args(extra)
        .arg(arg(trace))
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "audit record failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// The acceptance proof: for every benchmark of the suite, a live server
/// records its decision log while the trace arrives over the wire, cuts
/// a shutdown snapshot, and the offline verifier must find every logged
/// decision byte-identical to its twin replay — end state included.
#[test]
fn live_logs_verify_byte_identical_across_the_suite() {
    let dir = TempDir::new("suite");
    let scheme: Scheme = SCHEME.parse().unwrap();
    let suite = generate_suite(SCALE, SEED);
    for (bench_idx, bench) in suite.iter().enumerate() {
        let (trace, events, nodes) = write_trace(&dir, bench_idx);
        let offline = run_scheme(&bench.trace, &scheme);
        let nodes_s = nodes.to_string();
        let log = dir.path(&format!("bench-{bench_idx}.cspaud"));
        let snap = dir.path(&format!("bench-{bench_idx}-snap"));
        let addr_file = dir.path(&format!("bench-{bench_idx}.addr"));
        let server = Served::spawn(
            &dir,
            &format!("bench-{bench_idx}"),
            &[
                "--scheme",
                SCHEME,
                "--nodes",
                &nodes_s,
                "--shards",
                SHARDS,
                "--listen",
                "127.0.0.1:0",
                "--snapshot-dir",
                arg(&snap),
                "--audit-log",
                arg(&log),
                "--addr-file",
                arg(&addr_file),
            ],
        );
        let addr = wait_addr(&addr_file);
        push(&addr, &trace);
        // An `IngestAck` only means the ops reached the shard inboxes:
        // wait for the workers to publish every decision, then read the
        // counters once more, after the publish that completed them.
        wait_stats(&addr, "every decision scored", |s| {
            s.scored == events as u64
        });
        let live = stats(&addr);
        assert_eq!(
            live.confusion, offline,
            "bench {bench_idx}: live != offline"
        );
        let (ok, err) = server.shutdown();
        assert!(ok, "bench {bench_idx}: serve failed:\n{err}");

        let (ok, out, err) = audit_verify(SCHEME, &log, Some(&snap), &trace);
        assert!(ok, "bench {bench_idx}: verify failed:\n{out}{err}");
        assert!(
            out.contains("byte-identical") && out.contains("final state matches"),
            "bench {bench_idx}: {out}"
        );
    }
}

/// SIGKILL mid-record: the log on disk is an arbitrary prefix (possibly
/// torn mid-segment), and the verifier must still prove every surviving
/// record byte-identical — journal-before-effect means the log never
/// claims a decision the engine did not publish.
#[test]
fn kill9_mid_record_leaves_a_verifiable_prefix() {
    let dir = TempDir::new("kill9");
    let (trace, _events, nodes) = write_trace(&dir, 0);
    let nodes_s = nodes.to_string();
    let log = dir.path("kill9.cspaud");
    let addr_file = dir.path("kill9.addr");
    let mut server = Served::spawn(
        &dir,
        "kill9",
        &[
            "--scheme",
            SCHEME,
            "--nodes",
            &nodes_s,
            "--shards",
            SHARDS,
            "--listen",
            "127.0.0.1:0",
            "--audit-log",
            arg(&log),
            "--addr-file",
            arg(&addr_file),
        ],
    );
    let addr = wait_addr(&addr_file);

    // Feed the trace from a concurrent producer and pull the rug while
    // records are still streaming to disk.
    let mut pusher = Command::new(bin())
        .args(["push", "--addr", &addr, "--scheme", SCHEME])
        .arg(arg(&trace))
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    wait_stats(&addr, "first audited decisions", |s| s.scored > 0);
    server.kill9();
    let _ = pusher.kill();
    let _ = pusher.wait();

    let (ok, out, err) = audit_verify(SCHEME, &log, None, &trace);
    assert!(ok, "torn prefix must verify:\n{out}{err}");
    assert!(out.contains("byte-identical"), "{out}");
}

/// A flipped byte inside the record stream is corruption, not a tear:
/// the verifier must refuse the log with a typed error instead of
/// silently skipping the damaged segment.
#[test]
fn corrupted_log_is_rejected_with_a_typed_error() {
    let dir = TempDir::new("corrupt");
    let (trace, _events, _nodes) = write_trace(&dir, 0);
    let log = dir.path("corrupt.cspaud");
    audit_record(SCHEME, &log, &trace, &[]);

    let mut bytes = fs::read(&log).unwrap();
    assert!(
        bytes.len() as u64 > HEADER_LEN + 16,
        "log too small to test"
    );
    bytes[HEADER_LEN as usize + 10] ^= 0x20;
    fs::write(&log, &bytes).unwrap();

    let (ok, out, err) = audit_verify(SCHEME, &log, None, &trace);
    assert!(!ok, "corrupted log must be refused:\n{out}");
    assert!(
        err.contains("audit log at byte"),
        "untyped rejection: {err}"
    );
}

/// A log recorded under one scheme must be refused by a verifier running
/// another: the version fingerprints differ, and the error names both.
#[test]
fn fingerprint_mismatch_is_rejected_before_replay() {
    let dir = TempDir::new("fingerprint");
    let (trace, _events, _nodes) = write_trace(&dir, 0);
    let log = dir.path("fp.cspaud");
    audit_record(SCHEME, &log, &trace, &[]);

    let (ok, out, err) = audit_verify("last(pid+pc8)1[direct]", &log, None, &trace);
    assert!(!ok, "fingerprint mismatch must be refused:\n{out}");
    assert!(err.contains("fingerprint"), "untyped rejection: {err}");
}

/// `--audit-sample 1/4` keeps a deterministic key subset: the log holds
/// fewer records than decisions, and the verifier — applying the same
/// pure key predicate — still proves the kept subset byte-identical.
#[test]
fn sampled_log_verifies_its_deterministic_subset() {
    let dir = TempDir::new("sample");
    let (trace, _events, _nodes) = write_trace(&dir, 0);
    let log = dir.path("sampled.cspaud");
    let recorded = audit_record(SCHEME, &log, &trace, &["--audit-sample", "1/4"]);
    assert!(recorded.contains("sample 1/4"), "{recorded}");

    let (ok, out, err) = audit_verify(SCHEME, &log, None, &trace);
    assert!(ok, "sampled log must verify:\n{out}{err}");
    // Parse "<log path>: <checked> of <decisions> decisions ..." past
    // the path (which carries digits of its own).
    let (_, counts) = out.split_once(": ").unwrap();
    let mut nums = counts
        .split(|c: char| !c.is_ascii_digit())
        .filter(|s| !s.is_empty())
        .map(|s| s.parse::<u64>().unwrap());
    let (checked, decisions) = (nums.next().unwrap(), nums.next().unwrap());
    assert!(
        checked < decisions && checked > 0,
        "sampling kept {checked} of {decisions}: {out}"
    );
    assert!(out.contains("sample 1/4"), "{out}");
}

/// `audit tail` semantics over the wire: a live subscription from offset
/// zero streams back exactly the records the engine scored, under the
/// fingerprint the server advertises in `Stats`; a wrong fingerprint and
/// an un-audited server are typed refusals.
#[test]
fn live_tail_streams_records_under_the_advertised_fingerprint() {
    let dir = TempDir::new("tail");
    let (trace, _events, nodes) = write_trace(&dir, 1);
    let nodes_s = nodes.to_string();
    let log = dir.path("tail.cspaud");
    let addr_file = dir.path("tail.addr");
    let server = Served::spawn(
        &dir,
        "tail",
        &[
            "--scheme",
            SCHEME,
            "--nodes",
            &nodes_s,
            "--shards",
            SHARDS,
            "--listen",
            "127.0.0.1:0",
            "--audit-log",
            arg(&log),
            "--addr-file",
            arg(&addr_file),
        ],
    );
    let addr = wait_addr(&addr_file);
    push(&addr, &trace);
    let live = stats(&addr);
    assert!(live.scored > 0, "trace produced no scored decisions");

    // Tail from the very start: every scored decision is still in the
    // ring, so the stream must replay all of them in offset order.
    let mut seen = 0u64;
    let mut next_offset = 0u64;
    connect(&addr)
        .tail_audit(live.fingerprint, 0, |frame| {
            assert_eq!(frame.fingerprint, live.fingerprint);
            assert_eq!(frame.start, next_offset, "stream skipped offsets");
            next_offset = frame.start + frame.records.len() as u64;
            for r in &frame.records {
                assert!((r.shard as usize) < SHARDS.parse::<usize>().unwrap());
            }
            seen += frame.records.len() as u64;
            seen < live.scored
        })
        .unwrap();
    assert_eq!(
        seen, live.scored,
        "tail replayed a different decision count"
    );

    // A stale fingerprint must be refused before any frame flows.
    let err = connect(&addr)
        .tail_audit(live.fingerprint ^ 1, 0, |_| true)
        .unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("fingerprint"), "{err}");
    drop(server);

    // An engine serving without --audit-log has no stream to tail.
    let addr_file = dir.path("plain.addr");
    let plain = Served::spawn(
        &dir,
        "plain",
        &[
            "--scheme",
            SCHEME,
            "--nodes",
            &nodes_s,
            "--shards",
            SHARDS,
            "--listen",
            "127.0.0.1:0",
            "--addr-file",
            arg(&addr_file),
        ],
    );
    let addr = wait_addr(&addr_file);
    let fp = stats(&addr).fingerprint;
    let err = connect(&addr).tail_audit(fp, 0, |_| true).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("not audited"), "{err}");
    drop(plain);
}
