//! The replication proof, end to end through the real binary: a leader
//! journals every mutation, a follower bootstraps from a shipped
//! snapshot and streams the journal live — and the follower's screening
//! statistics must be *bit-identical* to the leader's and to the offline
//! engine's, across every benchmark of the paper's suite.
//!
//! The failover tests then kill the leader with SIGKILL mid-stream and
//! prove both recovery paths: the *restart* path (the same leader comes
//! back from its durable snapshot+journal and the follower resumes),
//! and the *promotion* path (a follower bumps the fencing epoch, takes
//! over leadership, re-parents the remaining replicas onto itself by
//! rewriting the shared `--follow-file`, and the deposed epoch's writes
//! are refused with a typed `fenced` error) — by hand via the `promote`
//! subcommand and automatically via `--auto-promote` lease expiry,
//! rank-ordered so exactly one replica claims the term. Chained
//! fan-out (leader → follower → follower) is proven bit-identical too.

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

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_csp-served")
}

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("csp-repl-{tag}-{}", std::process::id()));
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

/// Polls until `cond` holds over the follower's stats, or panics with the
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

/// Ships the leader's newest snapshot (and nothing else — no journal) to
/// a follower's empty snapshot directory, as an operator would.
fn ship_snapshot(from: &Path, to: &Path) {
    fs::create_dir_all(to).unwrap();
    let mut shipped = 0;
    for entry in fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let name = entry.file_name();
        if name.to_string_lossy().ends_with(".cspsnap") {
            fs::copy(entry.path(), to.join(&name)).unwrap();
            shipped += 1;
        }
    }
    assert!(shipped > 0, "leader left no snapshot to ship");
}

fn write_trace(dir: &TempDir, bench_idx: usize) -> (PathBuf, usize, usize) {
    let suite = generate_suite(SCALE, SEED);
    let bench = &suite[bench_idx];
    let path = dir.path(&format!("trace-{bench_idx}.csptrc"));
    let file = fs::File::create(&path).unwrap();
    csp_trace::io::write_trace(std::io::BufWriter::new(file), &bench.trace).unwrap();
    (path, bench.trace.len(), bench.trace.nodes())
}

fn push(addr: &str, trace: &Path, from: usize, to: Option<usize>) {
    let (ok, err) = push_at_epoch(addr, trace, from, to, 0);
    assert!(ok, "push failed:\n{err}");
}

/// Runs `csp-served push --epoch N` and reports (success, stderr) so
/// callers can assert fencing rejections as well as accepted writes.
fn push_at_epoch(
    addr: &str,
    trace: &Path,
    from: usize,
    to: Option<usize>,
    epoch: u64,
) -> (bool, String) {
    let mut cmd = Command::new(bin());
    cmd.args(["push", "--addr", addr, "--scheme", SCHEME])
        .args(["--from-event", &from.to_string()])
        .args(["--epoch", &epoch.to_string()]);
    if let Some(to) = to {
        cmd.args(["--to-event", &to.to_string()]);
    }
    let out = cmd.arg(arg(trace)).output().unwrap();
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Runs the `promote` subcommand against a follower and reports
/// (success, stdout + stderr).
fn promote(addr: &str, nodes: &str, min_epoch: u64) -> (bool, String) {
    let out = Command::new(bin())
        .args(["promote", "--addr", addr, "--scheme", SCHEME])
        .args(["--nodes", nodes])
        .args(["--min-epoch", &min_epoch.to_string()])
        .output()
        .unwrap();
    let mut text = String::from_utf8_lossy(&out.stdout).into_owned();
    text.push_str(&String::from_utf8_lossy(&out.stderr));
    (out.status.success(), text)
}

/// Leader and follower statistics must agree field for field — same
/// confusion counters, same update/scored totals, same entry count.
fn assert_replicas_agree(leader: &StatsReply, follower: &StatsReply, ctx: &str) {
    assert_eq!(leader.confusion, follower.confusion, "{ctx}: confusion");
    assert_eq!(leader.updates, follower.updates, "{ctx}: updates");
    assert_eq!(leader.scored, follower.scored, "{ctx}: scored");
    assert_eq!(leader.entries, follower.entries, "{ctx}: entries");
    assert_eq!(
        leader.confusion.screening().pvp.to_bits(),
        follower.confusion.screening().pvp.to_bits(),
        "{ctx}: screening rates"
    );
}

/// One leader/follower pair over one benchmark: warm half the trace into
/// the leader, ship the bootstrap snapshot, stream the journal, push the
/// rest over the wire, and require three-way bit-identity (offline ==
/// leader == follower).
fn verify_pair(dir: &TempDir, bench_idx: usize) {
    let (trace, events, nodes) = write_trace(dir, bench_idx);
    let scheme: Scheme = SCHEME.parse().unwrap();
    let suite = generate_suite(SCALE, SEED);
    let offline = run_scheme(&suite[bench_idx].trace, &scheme);
    let half = events / 2;
    let nodes_s = nodes.to_string();
    let half_s = half.to_string();

    let ldir = dir.path(&format!("leader-{bench_idx}"));
    let laddr_file = dir.path(&format!("leader-{bench_idx}.addr"));
    let leader = Served::spawn(
        dir,
        &format!("leader-{bench_idx}"),
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
            arg(&ldir),
            "--replicate",
            "--warm",
            arg(&trace),
            "--warm-events",
            &half_s,
            "--addr-file",
            arg(&laddr_file),
        ],
    );
    let laddr = wait_addr(&laddr_file);

    // Bootstrap the follower from the leader's shipped snapshot only;
    // everything past it must arrive over the stream.
    let fdir = dir.path(&format!("follower-{bench_idx}"));
    ship_snapshot(&ldir, &fdir);
    let faddr_file = dir.path(&format!("follower-{bench_idx}.addr"));
    let follower = Served::spawn(
        dir,
        &format!("follower-{bench_idx}"),
        &[
            "--scheme",
            SCHEME,
            "--nodes",
            &nodes_s,
            "--shards",
            "2",
            "--listen",
            "127.0.0.1:0",
            "--snapshot-dir",
            arg(&fdir),
            "--restore",
            "--follow",
            &laddr,
            "--addr-file",
            arg(&faddr_file),
        ],
    );
    let faddr = wait_addr(&faddr_file);

    // The second half arrives over Ingest frames, like a live producer.
    push(&laddr, &trace, half, None);

    let lstats = stats(&laddr);
    assert_eq!(
        lstats.confusion, offline,
        "bench {bench_idx}: leader != offline"
    );
    let fstats = wait_stats(&faddr, "follower catch-up", |s| {
        s.scored == lstats.scored && s.updates == lstats.updates
    });
    assert_replicas_agree(&lstats, &fstats, &format!("bench {bench_idx}"));
    assert_eq!(
        fstats.confusion, offline,
        "bench {bench_idx}: follower != offline"
    );

    let (ok, err) = follower.shutdown();
    assert!(ok, "follower shutdown failed:\n{err}");
    assert!(
        err.contains("final journal offset"),
        "follower never reported its final journal offset:\n{err}"
    );
    let (ok, err) = leader.shutdown();
    assert!(ok, "leader shutdown failed:\n{err}");
}

/// All seven benchmarks of the paper's suite, each through a real
/// leader/follower pair: offline == leader == follower, bit for bit.
#[test]
fn follower_is_bit_identical_across_the_suite() {
    let dir = TempDir::new("suite");
    let suite_len = generate_suite(SCALE, SEED).len();
    assert_eq!(suite_len, 7, "the paper's seven benchmarks");
    for bench_idx in 0..suite_len {
        verify_pair(&dir, bench_idx);
    }
}

/// Reads one metric value out of a follower's Prometheus-style scrape.
fn metric(addr: &str, name: &str) -> Option<i64> {
    let text = connect(addr).metrics().unwrap();
    csp_obs::parse_text(&text)
        .into_iter()
        .find(|s| s.name == name)
        .and_then(|s| s.value_i64())
}

/// The failover chaos proof: SIGKILL the leader mid-stream, keep serving
/// stale-but-consistent from the follower, restart the leader from its
/// durable snapshot + journal on a *new* port, and converge.
#[test]
fn leader_kill9_failover_converges_bit_identically() {
    let dir = TempDir::new("kill9");
    let (trace, events, nodes) = write_trace(&dir, 0);
    let scheme: Scheme = SCHEME.parse().unwrap();
    let offline = run_scheme(&generate_suite(SCALE, SEED)[0].trace, &scheme);
    let (t1, t2) = (events / 3, 2 * events / 3);
    let nodes_s = nodes.to_string();

    let ldir = dir.path("leader");
    let addr_file = dir.path("leader.addr");
    let leader_args = |warm: bool| {
        let mut v = vec![
            "--scheme".to_string(),
            SCHEME.to_string(),
            "--nodes".to_string(),
            nodes_s.clone(),
            "--shards".to_string(),
            SHARDS.to_string(),
            "--listen".to_string(),
            "127.0.0.1:0".to_string(),
            "--snapshot-dir".to_string(),
            ldir.to_str().unwrap().to_string(),
            "--replicate".to_string(),
            "--addr-file".to_string(),
            addr_file.to_str().unwrap().to_string(),
        ];
        if warm {
            v.extend([
                "--warm".to_string(),
                trace.to_str().unwrap().to_string(),
                "--warm-events".to_string(),
                t1.to_string(),
            ]);
        } else {
            v.push("--restore".to_string());
        }
        v
    };
    let args1 = leader_args(true);
    let args1: Vec<&str> = args1.iter().map(String::as_str).collect();
    let mut leader = Served::spawn(&dir, "leader1", &args1);
    let laddr = wait_addr(&addr_file);

    // Follower dials through --follow-file, so a restarted leader only
    // has to rewrite the file to be found again.
    let fdir = dir.path("follower");
    ship_snapshot(&ldir, &fdir);
    let faddr_file = dir.path("follower.addr");
    let follower = Served::spawn(
        &dir,
        "follower",
        &[
            "--scheme",
            SCHEME,
            "--nodes",
            &nodes_s,
            "--shards",
            "2",
            "--listen",
            "127.0.0.1:0",
            "--snapshot-dir",
            arg(&fdir),
            "--restore",
            "--follow-file",
            arg(&addr_file),
            "--addr-file",
            arg(&faddr_file),
        ],
    );
    let faddr = wait_addr(&faddr_file);

    // Second third over the wire; wait until the follower has all of it,
    // so the SIGKILL lands with an idle-but-subscribed stream.
    push(&laddr, &trace, t1, Some(t2));
    let mid = stats(&laddr);
    let fmid = wait_stats(&faddr, "pre-kill catch-up", |s| {
        s.scored == mid.scored && s.updates == mid.updates
    });
    assert_replicas_agree(&mid, &fmid, "pre-kill");

    // Crash. No drain, no final snapshot — only the journal's per-append
    // flushes stand between the leader's state and oblivion.
    leader.kill9();
    let _ = fs::remove_file(&addr_file);

    // The follower must keep answering, stale but consistent, while the
    // leader is gone.
    let stale = stats(&faddr);
    assert_replicas_agree(&mid, &stale, "during outage");
    let disconnected = {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if metric(&faddr, "csp_repl_connected") == Some(0) {
                break true;
            }
            if Instant::now() > deadline {
                break false;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    };
    assert!(disconnected, "follower never noticed the leader die");

    // Restart from durable state on a fresh ephemeral port. --restore
    // loads the bootstrap snapshot; the journal replays everything past
    // it, including the pushed second third.
    let args2 = leader_args(false);
    let args2: Vec<&str> = args2.iter().map(String::as_str).collect();
    let leader = Served::spawn(&dir, "leader2", &args2);
    let laddr2 = wait_addr(&addr_file);
    assert_ne!(laddr, laddr2, "ephemeral rebind should move the port");
    let recovered = stats(&laddr2);
    assert_replicas_agree(&mid, &recovered, "post-restart recovery");

    // The follower finds the new address, reconnects, and resumes from
    // its durable offset — no re-bootstrap.
    wait_stats(&faddr, "reconnect", |_| {
        metric(&faddr, "csp_repl_connected") == Some(1)
    });
    assert!(
        metric(&faddr, "csp_repl_reconnects_total").unwrap_or(0) >= 1,
        "reconnect counter never moved"
    );

    // Final third; everyone converges on the offline truth.
    push(&laddr2, &trace, t2, None);
    let lfinal = stats(&laddr2);
    assert_eq!(
        lfinal.confusion, offline,
        "leader != offline after failover"
    );
    let ffinal = wait_stats(&faddr, "post-failover catch-up", |s| {
        s.scored == lfinal.scored && s.updates == lfinal.updates
    });
    assert_replicas_agree(&lfinal, &ffinal, "post-failover");
    assert_eq!(
        ffinal.confusion, offline,
        "follower != offline after failover"
    );

    let (ok, err) = follower.shutdown();
    assert!(ok, "follower shutdown failed:\n{err}");
    let (ok, err) = leader.shutdown();
    assert!(ok, "restarted leader shutdown failed:\n{err}");
}

/// Spawns a durable follower bootstrapped from a shipped snapshot,
/// following the address in `follow_file`, with optional auto-promote
/// rank. Returns the process and its bound address.
#[allow(clippy::too_many_arguments)]
fn spawn_follower(
    dir: &TempDir,
    tag: &str,
    nodes_s: &str,
    snap_dir: &Path,
    follow_file: &Path,
    addr_file: &Path,
    rank: Option<u64>,
    lease_ms: Option<u64>,
) -> (Served, String) {
    let mut args = vec![
        "--scheme".to_string(),
        SCHEME.to_string(),
        "--nodes".to_string(),
        nodes_s.to_string(),
        "--shards".to_string(),
        "2".to_string(),
        "--listen".to_string(),
        "127.0.0.1:0".to_string(),
        "--snapshot-dir".to_string(),
        snap_dir.to_str().unwrap().to_string(),
        "--restore".to_string(),
        "--follow-file".to_string(),
        follow_file.to_str().unwrap().to_string(),
        "--addr-file".to_string(),
        addr_file.to_str().unwrap().to_string(),
    ];
    if let Some(rank) = rank {
        args.extend([
            "--replica-id".to_string(),
            rank.to_string(),
            "--auto-promote".to_string(),
        ]);
    }
    if let Some(ms) = lease_ms {
        args.extend(["--lease-ms".to_string(), ms.to_string()]);
    }
    let argv: Vec<&str> = args.iter().map(String::as_str).collect();
    let served = Served::spawn(dir, tag, &argv);
    let addr = wait_addr(addr_file);
    (served, addr)
}

/// Polls until a follow-file names the expected address (promotion
/// rewrites it moments after the epoch bump becomes visible).
fn wait_file_addr(path: &Path, want: &str, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        let got = fs::read_to_string(path)
            .unwrap_or_default()
            .trim()
            .to_string();
        if got == want {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for {what}: {} still names {got:?}, want {want:?}",
            path.display()
        );
        std::thread::sleep(Duration::from_millis(30));
    }
}

/// Polls a node's `csp_repl_epoch` gauge until it reaches `want`.
fn wait_epoch(addr: &str, want: i64, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let epoch = metric(addr, "csp_repl_epoch");
        if epoch >= Some(want) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for {what}; epoch stuck at {epoch:?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Chained fan-out: the middle node is a follower *and* a leader — it
/// streams from the root and relays its own replication log downstream.
/// End of the chain must still be bit-identical to the root and to the
/// offline engine, and the middle node's downstream lease must pin its
/// journal while the tail is subscribed.
#[test]
fn chained_follower_relays_bit_identically() {
    let dir = TempDir::new("chain");
    let (trace, events, nodes) = write_trace(&dir, 2);
    let scheme: Scheme = SCHEME.parse().unwrap();
    let offline = run_scheme(&generate_suite(SCALE, SEED)[2].trace, &scheme);
    let half = events / 2;
    let nodes_s = nodes.to_string();
    let half_s = half.to_string();

    let ldir = dir.path("root");
    let laddr_file = dir.path("root.addr");
    let leader = Served::spawn(
        &dir,
        "root",
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
            arg(&ldir),
            "--replicate",
            "--warm",
            arg(&trace),
            "--warm-events",
            &half_s,
            "--addr-file",
            arg(&laddr_file),
        ],
    );
    let laddr = wait_addr(&laddr_file);

    // Middle of the chain: follows the root, relays to the tail. Both
    // hops bootstrap from the same shipped snapshot.
    let mdir = dir.path("mid");
    ship_snapshot(&ldir, &mdir);
    let maddr_file = dir.path("mid.addr");
    let (mid, maddr) = spawn_follower(
        &dir,
        "mid",
        &nodes_s,
        &mdir,
        &laddr_file,
        &maddr_file,
        None,
        None,
    );

    let tdir = dir.path("tail");
    ship_snapshot(&ldir, &tdir);
    let taddr_file = dir.path("tail.addr");
    let (tail, taddr) = spawn_follower(
        &dir,
        "tail",
        &nodes_s,
        &tdir,
        &maddr_file,
        &taddr_file,
        None,
        None,
    );

    // Everything past the snapshot flows root -> mid -> tail.
    push(&laddr, &trace, half, None);
    let lstats = stats(&laddr);
    assert_eq!(lstats.confusion, offline, "chain root != offline");
    let mstats = wait_stats(&maddr, "mid catch-up", |s| {
        s.scored == lstats.scored && s.updates == lstats.updates
    });
    assert_replicas_agree(&lstats, &mstats, "root vs mid");
    let tstats = wait_stats(&taddr, "tail catch-up", |s| {
        s.scored == lstats.scored && s.updates == lstats.updates
    });
    assert_replicas_agree(&lstats, &tstats, "root vs tail");
    assert_eq!(tstats.confusion, offline, "chain tail != offline");

    // The tail's subscription holds a lease on the middle node's log, so
    // its journal horizon is pinned while the tail might still resume.
    wait_stats(&maddr, "downstream lease on the middle node", |_| {
        metric(&maddr, "csp_repl_downstream_leases") == Some(1)
    });

    let (ok, err) = tail.shutdown();
    assert!(ok, "tail shutdown failed:\n{err}");
    let (ok, err) = mid.shutdown();
    assert!(ok, "mid shutdown failed:\n{err}");
    let (ok, err) = leader.shutdown();
    assert!(ok, "root shutdown failed:\n{err}");
}

/// Promotion by hand: SIGKILL the leader, run `csp-served promote`
/// against the survivor, and prove the epoch fence — the deposed
/// epoch's pushes are refused with a typed error while current-epoch
/// writes land, converging bit-identically with the offline engine.
#[test]
fn manual_promote_fences_the_deposed_epoch() {
    let dir = TempDir::new("promote");
    let (trace, events, nodes) = write_trace(&dir, 1);
    let scheme: Scheme = SCHEME.parse().unwrap();
    let offline = run_scheme(&generate_suite(SCALE, SEED)[1].trace, &scheme);
    let (t1, t2) = (events / 3, 2 * events / 3);
    let nodes_s = nodes.to_string();
    let t1_s = t1.to_string();

    let ldir = dir.path("leader");
    let addr_file = dir.path("leader.addr");
    let mut leader = Served::spawn(
        &dir,
        "leader",
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
            arg(&ldir),
            "--replicate",
            "--warm",
            arg(&trace),
            "--warm-events",
            &t1_s,
            "--addr-file",
            arg(&addr_file),
        ],
    );
    let laddr = wait_addr(&addr_file);

    let fdir = dir.path("follower");
    ship_snapshot(&ldir, &fdir);
    let faddr_file = dir.path("follower.addr");
    let (follower, faddr) = spawn_follower(
        &dir,
        "follower",
        &nodes_s,
        &fdir,
        &addr_file,
        &faddr_file,
        None,
        None,
    );

    push(&laddr, &trace, t1, Some(t2));
    let mid = stats(&laddr);
    wait_stats(&faddr, "pre-kill catch-up", |s| {
        s.scored == mid.scored && s.updates == mid.updates
    });

    leader.kill9();

    // Operator-driven failover: claim at least term 7 (well past the
    // deposed leader's term 1) over the wire.
    let (ok, out) = promote(&faddr, &nodes_s, 7);
    assert!(ok, "promote subcommand failed:\n{out}");
    assert!(out.contains("epoch 7"), "unexpected promote output:\n{out}");
    wait_epoch(&faddr, 7, "promoted epoch");
    assert!(
        follower.stderr().contains("promoted to leader (epoch 7)"),
        "follower never logged its promotion:\n{}",
        follower.stderr()
    );

    // Re-parenting: the shared follow-file now names the new leader.
    wait_file_addr(&addr_file, &faddr, "manual promotion re-parenting");

    // The fence: a producer still stamping the deposed term is refused
    // with a typed error; a current-term producer lands.
    let (ok, err) = push_at_epoch(&faddr, &trace, t2, None, 1);
    assert!(!ok, "stale-epoch push must be refused");
    assert!(err.contains("fenced"), "expected a fencing error:\n{err}");
    let fenced = stats(&faddr);
    assert_replicas_agree(&mid, &fenced, "fenced push must not mutate");

    let (ok, err) = push_at_epoch(&faddr, &trace, t2, None, 7);
    assert!(ok, "current-epoch push failed:\n{err}");
    let ffinal = stats(&faddr);
    assert_eq!(
        ffinal.confusion, offline,
        "promoted leader != offline after manual failover"
    );

    let (ok, err) = follower.shutdown();
    assert!(ok, "promoted leader shutdown failed:\n{err}");
    assert!(
        err.contains("final journal offset"),
        "promoted leader never reported its final journal offset:\n{err}"
    );
}

/// The headline chaos proof, across every benchmark of the suite:
/// SIGKILL the leader mid-stream with two ranked `--auto-promote`
/// replicas subscribed. The lowest rank's lease deadline fires first and
/// it promotes itself; the other replica re-parents onto it through the
/// rewritten follow-file; the remaining trace pushed to the *new* leader
/// converges every survivor bit-identically with the offline engine.
fn verify_auto_failover(dir: &TempDir, bench_idx: usize) {
    let (trace, events, nodes) = write_trace(dir, bench_idx);
    let scheme: Scheme = SCHEME.parse().unwrap();
    let suite = generate_suite(SCALE, SEED);
    let offline = run_scheme(&suite[bench_idx].trace, &scheme);
    let (t1, t2) = (events / 3, 2 * events / 3);
    let nodes_s = nodes.to_string();
    let t1_s = t1.to_string();

    // Short leases make the chaos window testable: rank 0's deadline is
    // one lease (2.5s), rank 1 waits three (7.5s) — enough to ride out
    // reconnect backoff and re-parent instead of double-claiming.
    let lease_ms = "2500";
    let ldir = dir.path(&format!("al-{bench_idx}"));
    let addr_file = dir.path(&format!("al-{bench_idx}.addr"));
    let mut leader = Served::spawn(
        dir,
        &format!("al-{bench_idx}"),
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
            arg(&ldir),
            "--replicate",
            "--lease-ms",
            lease_ms,
            "--warm",
            arg(&trace),
            "--warm-events",
            &t1_s,
            "--addr-file",
            arg(&addr_file),
        ],
    );
    let laddr = wait_addr(&addr_file);

    let adir = dir.path(&format!("aa-{bench_idx}"));
    ship_snapshot(&ldir, &adir);
    let aaddr_file = dir.path(&format!("aa-{bench_idx}.addr"));
    let (a, aaddr) = spawn_follower(
        dir,
        &format!("aa-{bench_idx}"),
        &nodes_s,
        &adir,
        &addr_file,
        &aaddr_file,
        Some(0),
        None,
    );

    let bdir = dir.path(&format!("ab-{bench_idx}"));
    ship_snapshot(&ldir, &bdir);
    let baddr_file = dir.path(&format!("ab-{bench_idx}.addr"));
    let (b, baddr) = spawn_follower(
        dir,
        &format!("ab-{bench_idx}"),
        &nodes_s,
        &bdir,
        &addr_file,
        &baddr_file,
        Some(1),
        None,
    );

    // Both replicas fully synced before the crash, so the kill lands on
    // an idle-but-subscribed stream.
    push(&laddr, &trace, t1, Some(t2));
    let mid = stats(&laddr);
    for (addr, what) in [(&aaddr, "rank 0 pre-kill"), (&baddr, "rank 1 pre-kill")] {
        let s = wait_stats(addr, what, |s| {
            s.scored == mid.scored && s.updates == mid.updates
        });
        assert_replicas_agree(&mid, &s, what);
    }

    // Crash. Nobody rewrites the follow-file for them: rank 0's lease
    // deadline must fire, bump the epoch, and re-parent the fleet.
    leader.kill9();
    wait_epoch(&aaddr, 2, "rank 0 auto-promotion");
    wait_file_addr(
        &addr_file,
        &aaddr,
        &format!("bench {bench_idx}: auto-promotion re-parenting"),
    );

    // The remaining trace goes to the *new* leader; both survivors must
    // converge on the offline truth.
    push(&aaddr, &trace, t2, None);
    let afinal = stats(&aaddr);
    assert_eq!(
        afinal.confusion, offline,
        "bench {bench_idx}: promoted leader != offline"
    );
    let bfinal = wait_stats(&baddr, "rank 1 re-parent catch-up", |s| {
        s.scored == afinal.scored && s.updates == afinal.updates
    });
    assert_replicas_agree(
        &afinal,
        &bfinal,
        &format!("bench {bench_idx}: post-promotion"),
    );
    assert_eq!(
        bfinal.confusion, offline,
        "bench {bench_idx}: re-parented follower != offline"
    );

    // Exactly one claimant: rank 0 promoted, rank 1 re-parented.
    assert!(
        a.stderr().contains("auto-promoted"),
        "bench {bench_idx}: rank 0 never promoted:\n{}",
        a.stderr()
    );
    assert!(
        !b.stderr().contains("auto-promoted"),
        "bench {bench_idx}: rank 1 double-claimed leadership:\n{}",
        b.stderr()
    );

    let (ok, err) = b.shutdown();
    assert!(ok, "bench {bench_idx}: rank 1 shutdown failed:\n{err}");
    let (ok, err) = a.shutdown();
    assert!(
        ok,
        "bench {bench_idx}: promoted leader shutdown failed:\n{err}"
    );
}

/// All seven benchmarks through the full chaos sequence: kill -9 the
/// leader, lease-driven auto-promotion, chain re-parenting, and
/// bit-identical convergence on the new leader.
#[test]
fn auto_promotion_converges_bit_identically_across_the_suite() {
    let dir = TempDir::new("autofail");
    let suite_len = generate_suite(SCALE, SEED).len();
    assert_eq!(suite_len, 7, "the paper's seven benchmarks");
    for bench_idx in 0..suite_len {
        verify_auto_failover(&dir, bench_idx);
    }
}
