//! The crash-recovery proof, end to end through the real binary: kill
//! `csp-served replay` hard (SIGABRT, no cleanup) partway through a
//! trace, restore from the last durable snapshot, finish the replay —
//! and the final screening statistics must be *bit-identical* to an
//! uninterrupted run's.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

const SCHEME: &str = "union(pid+pc8)2[direct]";
const SHARDS: &str = "3";

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_csp-served")
}

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("csp-crash-{tag}-{}", std::process::id()));
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

/// Writes one of the suite's benchmark traces to disk and returns its
/// path and event count.
fn write_trace(dir: &TempDir) -> (PathBuf, usize) {
    let suite = csp_workloads::generate_suite(0.02, 11);
    let bench = &suite[0];
    let path = dir.path("trace.csptrc");
    let file = fs::File::create(&path).unwrap();
    csp_trace::io::write_trace(std::io::BufWriter::new(file), &bench.trace).unwrap();
    (path, bench.trace.len())
}

fn arg(p: &Path) -> &str {
    p.to_str().unwrap()
}

#[test]
fn killed_replay_restores_bit_identically() {
    let dir = TempDir::new("replay");
    let (trace, events) = write_trace(&dir);
    assert!(events > 100, "trace too small to crash mid-way: {events}");
    let snapdir = dir.path("snaps");
    let chunk = (events / 10).max(1).to_string();
    let crash_at = (events / 2).to_string();

    // Reference: one uninterrupted replay (which itself verifies
    // online == offline and exits nonzero on divergence).
    let ref_stats = dir.path("ref-stats.txt");
    let status = Command::new(bin())
        .args(["replay", "--scheme", SCHEME, "--shards", SHARDS])
        .args(["--stats-out", arg(&ref_stats), arg(&trace)])
        .status()
        .unwrap();
    assert!(status.success(), "reference replay failed: {status}");

    // Crash run: snapshot every chunk, then die hard (std::process::abort,
    // the SIGKILL stand-in — no destructors, no flush) mid-trace.
    let status = Command::new(bin())
        .args(["replay", "--scheme", SCHEME, "--shards", SHARDS])
        .args([
            "--snapshot-dir",
            arg(&snapdir),
            "--snapshot-every-events",
            &chunk,
        ])
        .args(["--crash-after", &crash_at, arg(&trace)])
        .status()
        .unwrap();
    assert!(!status.success(), "the crash run was supposed to die");
    assert!(
        fs::read_dir(&snapdir).unwrap().count() > 0,
        "the crash run left no snapshot behind"
    );

    // The inspector can read what the crash left.
    let inspect = Command::new(bin())
        .args(["snapshot", arg(&snapdir)])
        .output()
        .unwrap();
    assert!(inspect.status.success(), "snapshot inspect failed");
    let line = String::from_utf8_lossy(&inspect.stdout);
    assert!(line.contains("union(pid+pc8)2[direct]"), "got: {line}");

    // Recovery: restore the newest snapshot and replay the tail. The
    // command verifies online == offline itself, so a zero exit already
    // means the recovered run matches the offline reference engine.
    let rec_stats = dir.path("rec-stats.txt");
    let status = Command::new(bin())
        .args(["replay", "--scheme", SCHEME, "--shards", SHARDS])
        .args([
            "--snapshot-dir",
            arg(&snapdir),
            "--snapshot-every-events",
            &chunk,
        ])
        .args(["--restore", "--stats-out", arg(&rec_stats), arg(&trace)])
        .status()
        .unwrap();
    assert!(status.success(), "recovery replay failed: {status}");

    // And the recovered statistics equal the uninterrupted run's, field
    // for field, bit for bit.
    let reference = fs::read_to_string(&ref_stats).unwrap();
    let recovered = fs::read_to_string(&rec_stats).unwrap();
    assert!(!reference.is_empty());
    assert_eq!(
        recovered, reference,
        "recovered replay diverged from the uninterrupted run"
    );
}

#[test]
fn restore_without_snapshots_starts_fresh_and_still_matches() {
    let dir = TempDir::new("fresh");
    let (trace, _) = write_trace(&dir);
    let snapdir = dir.path("empty-snaps");
    let stats = dir.path("stats.txt");
    let ref_stats = dir.path("ref-stats.txt");

    let status = Command::new(bin())
        .args(["replay", "--scheme", SCHEME, "--shards", SHARDS])
        .args(["--stats-out", arg(&ref_stats), arg(&trace)])
        .status()
        .unwrap();
    assert!(status.success());

    // --restore over an empty directory is a fresh start, not an error.
    let status = Command::new(bin())
        .args(["replay", "--scheme", SCHEME, "--shards", SHARDS])
        .args(["--snapshot-dir", arg(&snapdir), "--restore"])
        .args(["--stats-out", arg(&stats), arg(&trace)])
        .status()
        .unwrap();
    assert!(status.success(), "fresh --restore run failed: {status}");
    assert_eq!(
        fs::read_to_string(&stats).unwrap(),
        fs::read_to_string(&ref_stats).unwrap()
    );
}

#[test]
fn usage_errors_exit_2_runtime_errors_exit_1() {
    // Usage: missing --scheme.
    let status = Command::new(bin()).arg("replay").status().unwrap();
    assert_eq!(status.code(), Some(2));
    // Usage: unknown or missing subcommand.
    let status = Command::new(bin()).arg("transmogrify").status().unwrap();
    assert_eq!(status.code(), Some(2));
    let status = Command::new(bin()).status().unwrap();
    assert_eq!(status.code(), Some(2));
    // Help prints the usage on stdout and exits 0.
    for help in ["help", "--help", "-h"] {
        let out = Command::new(bin()).arg(help).output().unwrap();
        assert_eq!(out.status.code(), Some(0), "{help}");
        let usage = String::from_utf8_lossy(&out.stdout);
        assert!(usage.contains("csp-served serve"), "{help}: {usage}");
    }
    // Usage: a misspelled flag, or one only another subcommand reads, is
    // refused, not served with defaults, ignored, or opened as a trace
    // path. Stdin is null so a `serve` that wrongly started would shut
    // down and exit 0 instead of hanging.
    for args in [
        &["serve", "--scheme", SCHEME, "--shardz", "9"][..],
        &["serve", "--scheme", SCHEME, "--trace-out", "x"],
        &["replay", "--scheme", SCHEME, "--shardz", "3", "x.csptrc"],
        &["metrics", "--addr", "127.0.0.1:1", "stray"],
        &["metrics", "--addr", "127.0.0.1:1", "--shards", "3"],
        &[
            "promote",
            "--addr",
            "127.0.0.1:1",
            "--scheme",
            SCHEME,
            "--warm",
            "x",
        ],
        &["bench", "--addr", "127.0.0.1:1", "--replicate"],
        &[
            "replay",
            "--scheme",
            SCHEME,
            "--audit-log",
            "f",
            "/definitely/not/here.csptrc",
        ],
    ] {
        let status = Command::new(bin())
            .args(args)
            .stdin(Stdio::null())
            .status()
            .unwrap();
        assert_eq!(status.code(), Some(2), "{args:?}");
    }
    // Runtime: a trace that does not exist.
    let status = Command::new(bin())
        .args(["replay", "--scheme", SCHEME, "/definitely/not/here.csptrc"])
        .status()
        .unwrap();
    assert_eq!(status.code(), Some(1));
    // Runtime: snapshot inspection over an empty directory.
    let dir = TempDir::new("exitcodes");
    let status = Command::new(bin())
        .args(["snapshot", arg(&dir.path("nothing"))])
        .status()
        .unwrap();
    assert_eq!(status.code(), Some(1));
}
