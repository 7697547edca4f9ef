//! `csp-served` — host, drive and verify the online prediction service.
//!
//! ```text
//! usage:
//!   csp-served serve    --scheme S [--nodes N] [--shards K] [--listen ADDR]
//!                       [--unix PATH] [--warm trace.csptrc]... [--warm-events N]
//!                       [--stats-every SECS] [--snapshot-dir DIR]
//!                       [--snapshot-every SECS] [--restore] [--replicate]
//!                       [--follow ADDR] [--follow-file PATH] [--addr-file PATH]
//!                       [--replica-id N] [--auto-promote] [--lease-ms MS]
//!                       [--audit-log FILE] [--audit-sample 1/N]
//!   csp-served bench    [--scheme S] [--nodes N] [--shards K] [--addr ADDR]
//!                       [--warm trace.csptrc]... [--warm-events N] [--batch B]
//!                       [--frames F] [--json] [--metrics-out FILE] [--no-retry]
//!   csp-served push     --scheme S --addr ADDR [--from-event N] [--to-event M]
//!                       [--epoch E] <trace.csptrc>
//!   csp-served promote  --scheme S [--nodes N] --addr ADDR [--min-epoch E]
//!   csp-served metrics  --addr ADDR
//!   csp-served top      --addr ADDR [--every SECS] [--count N]
//!   csp-served replay   --scheme S [--shards K] [--snapshot-dir DIR]
//!                       [--snapshot-every-events N] [--restore] [--crash-after N]
//!                       [--stats-out FILE] <trace.csptrc>...
//!   csp-served snapshot <DIR>
//!   csp-served audit verify --scheme S [--snapshot-dir DIR] --log FILE
//!                       <trace.csptrc>
//!   csp-served audit record --scheme S [--shards K] [--audit-sample 1/N]
//!                       --log FILE <trace.csptrc>
//!   csp-served audit tail --addr ADDR [--count N] [--from N]
//! exit codes: 0 ok, 1 runtime failure (incl. divergence), 2 usage
//! ```
//!
//! `serve` hosts an engine on TCP (and optionally a Unix socket), logs
//! live screening statistics, and — given `--snapshot-dir` — persists
//! durable table snapshots periodically and once more on graceful
//! shutdown (triggered by stdin closing). `--restore` resumes from the
//! newest snapshot in the directory.
//!
//! `--replicate` makes a served engine a *leader*: every mutation is
//! journaled to CRC32c-framed segment files beside the snapshots, remote
//! producers can `push` operations over the wire, and followers stream
//! the journal live. `--follow ADDR` (or `--follow-file PATH`, re-read
//! on every dial so the leader can move) makes it a read-only *follower*
//! that bootstraps from a copied snapshot (`--restore`), subscribes from
//! its seq, reconnects with backoff, and keeps serving stale-but-
//! consistent predictions while the leader is away. A follower carries
//! its own replication log, so *it* can be followed in turn (chained
//! fan-out) — and it can be promoted to leadership: `promote` does it by
//! hand over the wire, `--auto-promote` does it automatically when the
//! leader's lease lapses (rank-ordered by `--replica-id`, lowest wins).
//! Promotion bumps the fencing epoch, stops the follower loop, starts
//! the periodic snapshots and journal compaction a leader runs, and
//! rewrites the shared `--follow-file` with this server's own address so
//! the remaining followers re-parent onto the new leader; the deposed
//! leader's writes are then refused with a typed `fenced` error.
//! `PROTOCOL.md` ("Replication", "Failover & epochs") specifies the
//! frames and the failure model.
//!
//! `bench` measures queries/sec and frame latency percentiles — against
//! `--addr`, or against a self-hosted loopback server when no address is
//! given — and reports any timeouts, disconnects, or connect retries the
//! run absorbed (`--no-retry` makes connect failures fatal instead).
//!
//! `push` feeds a recorded trace's operations into a replicated leader
//! over `Ingest` frames — a stand-in for a live trace producer.
//!
//! `metrics` fetches a running server's full metrics registry as
//! Prometheus-style text (the `Metrics` wire frame). `top` polls the
//! same registry and renders a refreshing per-shard table — qps, p99
//! query service time, queue depth and restarts.
//!
//! `replay` replays recorded traces through the sharded engine and
//! *verifies* the online screening statistics are bit-identical to the
//! offline engine's. With `--snapshot-dir` it snapshots every
//! `--snapshot-every-events` events, and `--restore` resumes a replay
//! that was killed mid-trace — the recovery path `tests/crash_recovery.rs`
//! proves bit-identical.
//!
//! `snapshot` inspects the newest snapshot in a directory.
//!
//! `serve --audit-log` turns on the decision audit stream: every scored
//! prediction is journaled as a canonical 42-byte record *before* its
//! effects publish, tagged with the engine's version fingerprint.
//! `audit verify` replays the recorded trace through an offline twin and
//! proves the logged decisions byte-identical (exit 1 on the first
//! divergence, with a field-level diff); `--snapshot-dir` additionally
//! checks the twin's end state against the shutdown snapshot. `audit
//! record` produces the same log offline from a trace file; `audit tail`
//! streams records live from a serving engine over the wire.
//!
//! The usage text is rendered from one flag table; a flag the subcommand
//! does not read is a usage error. `help` (or `--help`, `-h`) prints it
//! on stdout.
//!
//! Exit codes: `0` success, `1` runtime failure (I/O, corrupt input,
//! online/offline divergence), `2` usage error.

use csp_core::engine::run_scheme;
use csp_core::{PreparedTrace, Scheme};
use csp_serve::replication::{self, run_follower, snapshot_at_head, trace_to_ops, Role};
use csp_serve::{
    run_load, Client, EngineState, FollowerOptions, JournalStore, LoadOptions, ReplicaStatus,
    ServeError, Server, ShardedEngine, ShutdownHandle, SnapshotStore, DEFAULT_LEASE,
};
use csp_trace::{io as trace_io, Trace};
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufReader, Read as _};
use std::path::Path;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Once};
use std::time::Duration;

/// Usage errors exit 2 (and print the usage text); runtime errors exit 1.
enum CliError {
    Usage(String),
    Runtime(String),
}

fn usage_err(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

fn rt(e: impl std::fmt::Display) -> CliError {
    CliError::Runtime(e.to_string())
}

/// How a flag's value is read. A numeric kind carries the end of the
/// `--flag needs ...` message for a value that does not parse.
#[derive(Clone, Copy)]
enum Kind {
    /// No value: given or not.
    Switch,
    /// One string; the last one given wins.
    Text,
    /// A string that may be given more than once.
    Repeat,
    /// An unsigned integer.
    Int(&'static str),
    /// An integer of at least 1.
    Positive(&'static str),
    /// An audit sampling rate, `1/N` or bare `N` with N >= 1: one in N
    /// decisions is kept (deterministically by key hash).
    Sample(&'static str),
}

use Kind::{Int, Positive, Repeat, Sample, Switch, Text};

impl Kind {
    /// The number `raw` stands for, if this kind is numeric and it parses.
    fn number(self, raw: &str) -> Option<usize> {
        match self {
            Int(_) => raw.parse().ok(),
            Positive(_) => raw.parse().ok().filter(|&n| n > 0),
            Sample(_) => raw
                .strip_prefix("1/")
                .unwrap_or(raw)
                .parse::<u32>()
                .ok()
                .filter(|&n| n > 0)
                .map(|n| n as usize),
            Switch | Text | Repeat => None,
        }
    }
}

/// One command-line flag: the placeholder the usage text shows for its
/// value, how the value is read, its value when not given, and the
/// subcommands that read it. Every other subcommand refuses it.
struct Flag {
    name: &'static str,
    meta: &'static str,
    kind: Kind,
    default: Option<&'static str>,
    cmds: &'static [&'static str],
}

const fn flag(
    name: &'static str,
    meta: &'static str,
    kind: Kind,
    default: Option<&'static str>,
    cmds: &'static [&'static str],
) -> Flag {
    Flag {
        name,
        meta,
        kind,
        default,
        cmds,
    }
}

/// Every flag, once, in the order the usage text lists them.
#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    flag("--scheme", "S", Text, None,
         &["serve", "bench", "push", "promote", "replay", "audit verify", "audit record"]),
    flag("--nodes", "N", Int("an integer"), Some("16"), &["serve", "bench", "promote"]),
    flag("--shards", "K", Positive("a positive integer"), Some("4"),
         &["serve", "bench", "replay", "audit record"]),
    flag("--listen", "ADDR", Text, Some("127.0.0.1:7117"), &["serve"]),
    flag("--unix", "PATH", Text, None, &["serve"]),
    flag("--addr", "ADDR", Text, None,
         &["bench", "push", "promote", "metrics", "top", "audit tail"]),
    flag("--warm", "trace.csptrc", Repeat, None, &["serve", "bench"]),
    flag("--warm-events", "N", Positive("a positive integer"), None, &["serve", "bench"]),
    flag("--batch", "B", Positive("a positive integer"), Some("1024"), &["bench"]),
    flag("--frames", "F", Positive("a positive integer"), Some("2000"), &["bench"]),
    flag("--json", "", Switch, None, &["bench"]),
    flag("--metrics-out", "FILE", Text, None, &["bench"]),
    flag("--no-retry", "", Switch, None, &["bench"]),
    flag("--stats-every", "SECS", Int("a number of seconds"), Some("10"), &["serve"]),
    flag("--snapshot-dir", "DIR", Text, None, &["serve", "replay", "audit verify"]),
    flag("--snapshot-every", "SECS", Int("a number of seconds"), Some("30"), &["serve"]),
    flag("--snapshot-every-events", "N", Positive("a positive integer"), Some("100000"),
         &["replay"]),
    flag("--restore", "", Switch, None, &["serve", "replay"]),
    // A test hook: abort, as a hard kill would, once this many events
    // have been replayed.
    flag("--crash-after", "N", Int("an event count"), None, &["replay"]),
    flag("--stats-out", "FILE", Text, None, &["replay"]),
    flag("--replicate", "", Switch, None, &["serve"]),
    flag("--follow", "ADDR", Text, None, &["serve"]),
    flag("--follow-file", "PATH", Text, None, &["serve"]),
    flag("--addr-file", "PATH", Text, None, &["serve"]),
    flag("--replica-id", "N", Int("an integer rank"), Some("0"), &["serve"]),
    flag("--auto-promote", "", Switch, None, &["serve"]),
    flag("--lease-ms", "MS", Positive("a positive millisecond count"), None, &["serve"]),
    flag("--audit-log", "FILE", Text, None, &["serve"]),
    flag("--audit-sample", "1/N", Sample("'1/N' or 'N' with N >= 1"), Some("1"),
         &["serve", "audit record"]),
    flag("--log", "FILE", Text, None, &["audit verify", "audit record"]),
    flag("--from-event", "N", Int("an event index"), Some("0"), &["push"]),
    flag("--to-event", "M", Int("an event index"), None, &["push"]),
    flag("--epoch", "E", Int("an epoch number"), Some("0"), &["push"]),
    flag("--min-epoch", "E", Int("an epoch number"), Some("0"), &["promote"]),
    flag("--every", "SECS", Positive("a positive number of seconds"), Some("2"), &["top"]),
    flag("--count", "N", Positive("a positive integer"), None, &["top", "audit tail"]),
    flag("--from", "N", Int("a record offset"), None, &["audit tail"]),
];

/// A subcommand: the flags it requires, the positional arguments it
/// takes (`None`: none), and its handler. A required entry is the flag,
/// optionally followed by a hint for the `needs` error.
struct Cmd {
    name: &'static str,
    required: &'static [&'static str],
    positional: Option<&'static str>,
    run: fn(&Args) -> Result<ExitCode, CliError>,
}

#[rustfmt::skip]
const CMDS: &[Cmd] = &[
    Cmd { name: "serve", required: &["--scheme (e.g. --scheme 'inter(pid+pc8)2[direct]')"],
          positional: None, run: cmd_serve },
    Cmd { name: "bench", required: &[], positional: None, run: cmd_bench },
    Cmd { name: "push", required: &["--addr", "--scheme (the leader's scheme)"],
          positional: Some("<trace.csptrc>"), run: cmd_push },
    Cmd { name: "promote", required: &["--addr", "--scheme (the replica's scheme)"],
          positional: None, run: cmd_promote },
    Cmd { name: "metrics", required: &["--addr"], positional: None, run: cmd_metrics },
    Cmd { name: "top", required: &["--addr"], positional: None, run: cmd_top },
    Cmd { name: "replay", required: &["--scheme"], positional: Some("<trace.csptrc>..."),
          run: cmd_replay },
    Cmd { name: "snapshot", required: &[], positional: Some("<DIR>"), run: cmd_snapshot },
    Cmd { name: "audit verify",
          required: &["--scheme (the recording engine's)", "--log <audit.cspaud>"],
          positional: Some("<trace.csptrc>"), run: cmd_audit_verify },
    Cmd { name: "audit record", required: &["--scheme", "--log <audit.cspaud>"],
          positional: Some("<trace.csptrc>"), run: cmd_audit_record },
    Cmd { name: "audit tail", required: &["--addr"], positional: None, run: cmd_audit_tail },
];

/// The flag a [`Cmd::required`] entry names.
fn flag_of(need: &str) -> &str {
    need.split_once(' ').map_or(need, |(flag, _)| flag)
}

fn lookup(name: &str) -> &'static Flag {
    FLAGS
        .iter()
        .find(|f| f.name == name)
        .expect("flag names read in code are listed in FLAGS")
}

/// A subcommand's command line, checked against [`FLAGS`].
#[derive(Default)]
struct Args {
    given: Vec<(&'static str, String)>,
    positional: Vec<String>,
}

impl Args {
    /// Checks `args` for `cmd`: each flag must be one `cmd` reads, each
    /// value must parse as its flag's kind, every required flag must be
    /// given, and positionals are kept only where `cmd` takes them.
    fn parse(cmd: &Cmd, args: &[String]) -> Result<Args, CliError> {
        let mut o = Args::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if !arg.starts_with("--") {
                if cmd.positional.is_none() {
                    return Err(usage_err(format!(
                        "{} takes no positional arguments (got {arg:?})",
                        cmd.name
                    )));
                }
                o.positional.push(arg.clone());
                continue;
            }
            let flag = FLAGS
                .iter()
                .find(|f| f.name == arg)
                .ok_or_else(|| usage_err(format!("unknown flag {arg}")))?;
            if !flag.cmds.contains(&cmd.name) {
                return Err(usage_err(format!("{} does not take {arg}", cmd.name)));
            }
            let value = match flag.kind {
                Switch => String::new(),
                kind => {
                    let value = it
                        .next()
                        .ok_or_else(|| usage_err(format!("{arg} needs a value")))?;
                    if let Int(need) | Positive(need) | Sample(need) = kind {
                        if kind.number(value).is_none() {
                            return Err(usage_err(format!("{arg} needs {need}")));
                        }
                    }
                    value.clone()
                }
            };
            o.given.push((flag.name, value));
        }
        match cmd.required.iter().find(|need| !o.on(flag_of(need))) {
            Some(need) => Err(usage_err(format!("{} needs {need}", cmd.name))),
            None => Ok(o),
        }
    }

    /// Every value given for `name`, in order.
    fn all(&self, name: &str) -> impl Iterator<Item = &str> {
        let name = lookup(name).name;
        self.given
            .iter()
            .filter(move |(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether `name` was given at all.
    fn on(&self, name: &str) -> bool {
        self.all(name).next().is_some()
    }

    /// The last value given for `name`, else its default.
    fn text(&self, name: &str) -> Option<&str> {
        self.all(name).last().or(lookup(name).default)
    }

    /// `name`'s value as a number (given values were checked by
    /// [`parse`](Self::parse)), else its default.
    fn num(&self, name: &str) -> Option<usize> {
        let kind = lookup(name).kind;
        self.text(name).and_then(|raw| kind.number(raw))
    }

    /// The value of a flag the subcommand requires (checked by
    /// [`parse`](Self::parse)).
    fn req(&self, name: &str) -> &str {
        self.text(name).expect("parse checks required flags")
    }

    /// [`num`](Self::num) of a flag that has a default.
    fn int(&self, name: &str) -> usize {
        self.num(name)
            .expect("int() reads only flags with a numeric default")
    }
}

/// The usage text, rendered from [`CMDS`] and [`FLAGS`].
fn usage() -> String {
    let mut out = String::from("usage:\n");
    for cmd in CMDS {
        let flags = FLAGS.iter().filter(|f| f.cmds.contains(&cmd.name));
        let words = flags.map(|f| {
            let word = match f.meta {
                "" => f.name.to_string(),
                meta => format!("{} {meta}", f.name),
            };
            let word = if cmd.required.iter().any(|need| flag_of(need) == f.name) {
                word
            } else {
                format!("[{word}]")
            };
            if matches!(f.kind, Repeat) {
                word + "..."
            } else {
                word
            }
        });
        let mut line = format!("  csp-served {:<8}", cmd.name);
        for word in words.chain(cmd.positional.map(str::to_string)) {
            if line.len() + 1 + word.len() > 80 {
                let _ = writeln!(out, "{line}");
                line = " ".repeat(21);
            }
            line = line + " " + &word;
        }
        let _ = writeln!(out, "{line}");
    }
    out + "exit codes: 0 ok, 1 runtime failure (incl. divergence), 2 usage\n"
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `audit` names its subcommands with a second word.
    let words = match args.first().map(String::as_str) {
        Some("help" | "--help" | "-h") => {
            print!("{}", usage());
            return ExitCode::SUCCESS;
        }
        Some("audit") => 2,
        _ => 1,
    };
    let name = args.get(..words).map(|w| w.join(" "));
    let result = match CMDS.iter().find(|c| name.as_deref() == Some(c.name)) {
        Some(cmd) => Args::parse(cmd, &args[words..]).and_then(|o| (cmd.run)(&o)),
        None if words == 2 => Err(usage_err(
            "audit needs a subcommand: verify, record, or tail",
        )),
        None => {
            eprint!("{}", usage());
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(code) => code,
        Err(CliError::Usage(msg)) => {
            eprintln!("error: {msg}");
            eprint!("{}", usage());
            ExitCode::from(2)
        }
        Err(CliError::Runtime(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn load_trace(path: &str) -> Result<Trace, CliError> {
    let file = File::open(path).map_err(|e| rt(format!("open {path}: {e}")))?;
    trace_io::read_trace(BufReader::new(file)).map_err(|e| rt(format!("read {path}: {e}")))
}

fn parse_scheme(spec: &str) -> Result<Scheme, CliError> {
    spec.parse().map_err(|e| usage_err(format!("{spec}: {e}")))
}

fn warm_engine(engine: &ShardedEngine, o: &Args) -> Result<(), CliError> {
    for path in o.all("--warm") {
        let trace = load_trace(path)?;
        let end = o
            .num("--warm-events")
            .unwrap_or(trace.len())
            .min(trace.len());
        if end == trace.len() {
            engine.replay_trace(&trace).map_err(rt)?;
        } else {
            // A prefix warm (--warm-events): e.g. a leader warmed half a
            // trace whose other half arrives later over `push`.
            let prepared = PreparedTrace::new(&trace);
            engine.replay_range(&prepared, 0..end).map_err(rt)?;
        }
        eprintln!("warmed from {path}: {end} events");
    }
    Ok(())
}

/// Connects to a server with read and write deadlines of `secs`.
fn connect(addr: &str, secs: u64) -> Result<Client, CliError> {
    let mut client = Client::connect_tcp(addr).map_err(|e| rt(format!("connect {addr}: {e}")))?;
    let deadline = Some(Duration::from_secs(secs));
    client.set_timeouts(deadline, deadline).map_err(rt)?;
    Ok(client)
}

fn log_stats(engine: &ShardedEngine) {
    let s = engine.stats();
    let scr = s.screening();
    eprintln!(
        "[stats] queries={} updates={} scored={} entries={} restarts={} pvp={:.3} sens={:.3}",
        s.queries,
        s.updates,
        s.scored,
        s.entries,
        s.total_restarts(),
        scr.pvp,
        scr.sensitivity
    );
}

/// Saves a snapshot of `engine` and logs where it went, returning its
/// seq: a replicated engine is cut at its journal head (so the seq is a
/// resume offset), any other at `seq`.
fn save_snapshot(
    store: &SnapshotStore,
    engine: &ShardedEngine,
    seq: u64,
) -> Result<u64, ServeError> {
    let state = match engine.replication() {
        Some(_) => snapshot_at_head(engine)?,
        None => EngineState::capture(engine, seq),
    };
    let path = store.save(&state)?;
    eprintln!("snapshot seq {} -> {}", state.seq, path.display());
    Ok(state.seq)
}

/// Snapshots `engine` into `store` every `every` on a background
/// thread. A replicated engine snapshots at its journal head (seq ==
/// offset, an exact cut) and compacts the journal below the *previous*
/// snapshot's horizon, the first time below `floor`; a plain one
/// numbers its snapshots on from `seq`.
fn spawn_snapshots(
    store: SnapshotStore,
    engine: Arc<ShardedEngine>,
    seq: Arc<AtomicU64>,
    every: Duration,
    mut floor: u64,
) {
    std::thread::spawn(move || loop {
        std::thread::sleep(every);
        let next = seq.load(Ordering::Relaxed) + 1;
        match save_snapshot(&store, &engine, next) {
            Ok(s) => {
                seq.store(s, Ordering::Relaxed);
                if let Some(log) = engine.replication() {
                    if let Err(e) = log.compact(floor) {
                        eprintln!("journal compaction failed: {e}");
                    }
                    floor = s;
                }
            }
            Err(e) => eprintln!("snapshot failed: {e}"),
        }
    });
}

fn cmd_serve(o: &Args) -> Result<ExitCode, CliError> {
    let spec = o.req("--scheme");
    let snapshot_dir = o.text("--snapshot-dir");
    let (follow, follow_file) = (o.text("--follow"), o.text("--follow-file"));
    let following = follow.is_some() || follow_file.is_some();
    let (replicate, restore) = (o.on("--replicate"), o.on("--restore"));
    if restore && snapshot_dir.is_none() {
        return Err(usage_err("--restore needs --snapshot-dir"));
    }
    if follow.is_some() && follow_file.is_some() {
        return Err(usage_err(
            "--follow and --follow-file are mutually exclusive",
        ));
    }
    if replicate && following {
        return Err(usage_err(
            "--replicate (leader) and --follow (follower) are mutually exclusive",
        ));
    }
    if replicate && snapshot_dir.is_none() {
        return Err(usage_err(
            "--replicate needs --snapshot-dir (the journal lives beside the snapshots)",
        ));
    }
    if o.on("--auto-promote") && !following {
        return Err(usage_err(
            "--auto-promote needs --follow or --follow-file (only a follower promotes itself)",
        ));
    }
    if following && o.on("--warm") {
        return Err(usage_err(
            "--warm cannot be combined with --follow: a follower's state must come \
             from the leader (snapshot + stream), or the replica diverges",
        ));
    }
    let scheme = parse_scheme(spec)?;
    let nodes = o.int("--nodes");
    let store = snapshot_dir
        .map(SnapshotStore::open)
        .transpose()
        .map_err(rt)?;

    // Restore from the newest snapshot, or start fresh. Warm-up happens
    // below, once the replication log (if any) is attached, so warm
    // replay is journaled and reaches followers.
    let latest = match &store {
        Some(store) if restore => store.load_latest().map_err(rt)?,
        _ => None,
    };
    let mut restored_at = None;
    let engine = match latest {
        Some((state, path)) => {
            if state.scheme.to_string() != scheme.to_string() || state.nodes != nodes {
                return Err(rt(format!(
                    "{}: snapshot is {} over {} nodes; asked to serve {scheme} over {nodes}",
                    path.display(),
                    state.scheme,
                    state.nodes,
                )));
            }
            restored_at = Some(state.seq);
            eprintln!(
                "restored {} (seq {}) from {}",
                state.scheme,
                state.seq,
                path.display()
            );
            // Warm traces are part of *fresh* bring-up; a restored
            // engine already contains everything it had learned.
            if o.on("--warm") {
                eprintln!("--warm skipped: state came from the snapshot");
            }
            Arc::new(state.restore().map_err(rt)?)
        }
        None => {
            if restore {
                eprintln!("no snapshot found; starting fresh");
            }
            Arc::new(ShardedEngine::new(scheme, nodes, o.int("--shards")))
        }
    };
    let seq = Arc::new(AtomicU64::new(restored_at.unwrap_or(0)));

    // A leader journals every mutation; a follower carries its own log
    // too, as the relay point for chained fan-out and the durable record
    // a promotion re-opens as leader.
    let role = match (replicate, following) {
        (true, _) => Some(Role::Leader),
        (false, true) => Some(Role::Follower),
        (false, false) => None,
    };
    let log = match role {
        Some(role) => {
            let lease = o
                .num("--lease-ms")
                .map(|ms| Duration::from_millis(ms as u64));
            let dir = snapshot_dir.map(Path::new);
            let (log, reapplied) =
                replication::bring_up(&engine, role, dir, restored_at, lease).map_err(rt)?;
            if reapplied > 0 {
                eprintln!(
                    "re-applied {reapplied} journaled ops beyond snapshot seq {}",
                    restored_at.unwrap_or(0)
                );
            }
            Some(log)
        }
        None => None,
    };
    if restored_at.is_none() {
        warm_engine(&engine, o)?;
    }

    // A leader cuts a bootstrap snapshot at its head for followers.
    let mut initial_floor = 0u64;
    if let (true, Some(log), Some(store)) = (replicate, &log, &store) {
        initial_floor = save_snapshot(store, &engine, 0).map_err(rt)?;
        eprintln!(
            "replicating as leader: fingerprint {:#010X}, journal head {}",
            log.fingerprint(),
            log.head()
        );
    }

    // The follower's streaming thread starts once the server socket is up.
    let status = log.as_ref().filter(|_| following).map(|log| {
        let status = ReplicaStatus::new(log.head());
        status.bind_metrics(engine.registry());
        eprintln!(
            "following {} from offset {} (read-only replica)",
            follow.or(follow_file).unwrap_or("?"),
            log.head()
        );
        status
    });

    // Decision audit stream: attached after bring-up (restore/journal
    // recovery/warm replay are not re-audited — the per-shard watermark
    // already covers them) but before the listener, so every decision
    // made over the wire is journaled before its effects publish. The
    // engine's pipeline stamps its records with the log's term.
    if let Some(path) = o.text("--audit-log") {
        let sample = o.int("--audit-sample") as u32;
        let sink =
            csp_serve::audit::attach_file_sink(&engine, Path::new(path), sample).map_err(rt)?;
        sink.bind_metrics(engine.registry());
        eprintln!(
            "audit log -> {path} (fingerprint {:#010X}, sample 1/{})",
            sink.fingerprint(),
            sink.sample().max(1)
        );
    }

    // Expose snapshot lifecycle counters through the engine's registry so
    // they ride along in `Metrics` replies and `csp-served top`.
    if let Some(store) = &store {
        store.bind_metrics(engine.registry());
    }

    let listen = o.text("--listen").expect("--listen has a default");
    let server = Server::bind_tcp(listen, Arc::clone(&engine))
        .map_err(|e| rt(format!("bind {listen}: {e}")))?;
    let bound = server.local_addr().map_err(rt)?;

    let periodic = match (&store, o.int("--snapshot-every") as u64) {
        (Some(store), secs) if secs > 0 => Some((store.clone(), Duration::from_secs(secs))),
        _ => None,
    };

    // What a follower does once promoted (by a wire `Promote` or by the
    // auto-promote monitor, both through `replication::promote`): stop
    // streaming from the old leader, start the periodic snapshots a
    // leader takes (compacting from this node's last snapshot seq), and
    // re-parent the fleet by rewriting the shared --follow-file with this
    // server's address — every other follower re-reads it on its next
    // dial.
    let follower_shutdown = ShutdownHandle::new();
    if following {
        let stop = follower_shutdown.clone();
        let follow_file = follow_file.map(str::to_string);
        let own_addr = bound.to_string();
        // A leader can be promoted again (to a newer term); it keeps the
        // one snapshot loop its first promotion started.
        let (snapshots, started) = (periodic.clone(), Once::new());
        let (weak, snap_seq) = (Arc::downgrade(&engine), Arc::clone(&seq));
        engine.on_promote(Arc::new(move |epoch: u64| {
            stop.shutdown();
            started.call_once(|| {
                if let (Some((store, every)), Some(engine)) = (&snapshots, weak.upgrade()) {
                    let floor = snap_seq.load(Ordering::Relaxed);
                    spawn_snapshots(store.clone(), engine, Arc::clone(&snap_seq), *every, floor);
                }
            });
            match &follow_file {
                Some(path) => {
                    match trace_io::write_file_atomically(Path::new(path), own_addr.as_bytes()) {
                        Ok(()) => eprintln!(
                            "promoted to leader (epoch {epoch}); re-parented {path} -> {own_addr}"
                        ),
                        Err(e) => eprintln!(
                            "promoted to leader (epoch {epoch}); could not re-parent {path}: {e}"
                        ),
                    }
                }
                None => eprintln!("promoted to leader (epoch {epoch})"),
            }
        }));
    }

    let mut unix_shutdown = None;
    if let Some(path) = o.text("--unix") {
        let _ = std::fs::remove_file(path);
        let unix_server = Server::bind_unix(path, Arc::clone(&engine))
            .map_err(|e| rt(format!("bind {path}: {e}")))?;
        eprintln!("listening on unix socket {path}");
        unix_shutdown = Some(unix_server.shutdown_handle());
        std::thread::spawn(move || unix_server.run());
    }
    if let Some(path) = o.text("--addr-file") {
        // Published atomically so a follower's --follow-file never reads
        // a half-written address.
        trace_io::write_file_atomically(Path::new(path), bound.to_string().as_bytes())
            .map_err(|e| rt(format!("write {path}: {e}")))?;
        eprintln!("wrote bound address {bound} to {path}");
    }
    eprintln!(
        "serving {} on {bound} ({} shards, {} nodes)",
        engine.scheme(),
        engine.shard_count(),
        engine.nodes()
    );

    // The follower's streaming thread: dials the leader, applies
    // segments, and retries with backoff until its *own* shutdown handle
    // fires — server shutdown triggers it, and so does promotion
    // (stopping the stream without stopping the server).
    let follower_thread = status.as_ref().map(|status| {
        let f_engine = Arc::clone(&engine);
        let f_status = Arc::clone(status);
        let f_shutdown = follower_shutdown.clone();
        let follow_addr = follow.map(str::to_string);
        let follow_file = follow_file.map(str::to_string);
        std::thread::spawn(move || {
            // Re-resolved on every dial: a --follow-file leader can
            // restart on a new port (or a promotion can re-parent the
            // fleet) and just rewrite the file.
            let leader = move || match (&follow_addr, &follow_file) {
                (Some(addr), _) => Some(addr.clone()),
                (None, Some(path)) => std::fs::read_to_string(path)
                    .ok()
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty()),
                (None, None) => None,
            };
            run_follower(
                &f_engine,
                leader,
                &f_status,
                &f_shutdown,
                &FollowerOptions::default(),
            )
        })
    });

    // Lease-based failure detection: when segments (heartbeats included)
    // stop arriving for longer than the leader-advertised lease —
    // staggered by replica rank so exactly one replica moves first —
    // promote this follower. Rank 0's deadline is one lease; each higher
    // rank waits two extra leases, time enough to ride out reconnect
    // backoff and re-parent onto whoever beat it to the claim.
    if let (true, Some(status)) = (o.on("--auto-promote"), &status) {
        let status = Arc::clone(status);
        let p_engine = Arc::clone(&engine);
        let stop = follower_shutdown.clone();
        let rank = o.int("--replica-id") as u64;
        let fallback_ms = o
            .num("--lease-ms")
            .map_or(DEFAULT_LEASE.as_millis() as u64, |ms| ms as u64);
        let fingerprint = replication::fingerprint(engine.scheme(), engine.nodes());
        std::thread::spawn(move || loop {
            std::thread::sleep(Duration::from_millis(100));
            if stop.is_shutdown() {
                // Promoted already (possibly by hand) or shutting down.
                return;
            }
            if status.is_connected() || status.is_diverged() {
                continue;
            }
            // A replica that never saw the stream has no standing to
            // claim leadership — it may hold arbitrarily old state.
            let Some(age) = status.last_segment_age_ms() else {
                continue;
            };
            let lease = match status.lease_ms() {
                0 => fallback_ms,
                ms => ms,
            };
            let deadline = lease.saturating_mul(2 * rank + 1);
            if age <= deadline {
                continue;
            }
            eprintln!(
                "auto-promote: leader lease lapsed ({age}ms since last segment \
                 > {deadline}ms deadline for rank {rank})"
            );
            match replication::promote(&p_engine, fingerprint, 0) {
                Ok((epoch, head)) => {
                    eprintln!("auto-promoted: epoch {epoch}, journal head {head}");
                }
                Err(e) => eprintln!("auto-promotion failed: {e}"),
            }
            return;
        });
    }

    let stats_every = o.int("--stats-every") as u64;
    if stats_every > 0 {
        let monitor = Arc::clone(&engine);
        let every = Duration::from_secs(stats_every);
        std::thread::spawn(move || loop {
            std::thread::sleep(every);
            log_stats(&monitor);
        });
    }

    // Periodic background snapshots: a leader or a plain server starts
    // them now, a follower once it is promoted (see above). A follower
    // skips them while it follows: its applied offset moves on the
    // streaming thread, so only the post-drain snapshot is an exact cut.
    match periodic {
        Some(_) if following => eprintln!(
            "periodic snapshots start once this follower is promoted; one is taken at shutdown"
        ),
        Some((store, every)) => {
            spawn_snapshots(
                store,
                Arc::clone(&engine),
                Arc::clone(&seq),
                every,
                initial_floor,
            );
        }
        None => {}
    }

    // Graceful shutdown: when stdin closes (Ctrl-D, or the supervising
    // process going away), stop accepting, drain, snapshot, exit 0.
    let shutdown = server.shutdown_handle();
    let stdin_follower_stop = follower_shutdown.clone();
    std::thread::spawn(move || {
        let mut sink = [0u8; 256];
        let mut stdin = std::io::stdin();
        loop {
            match stdin.read(&mut sink) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
        }
        eprintln!("stdin closed; shutting down");
        if let Some(h) = &unix_shutdown {
            h.shutdown();
        }
        stdin_follower_stop.shutdown();
        shutdown.shutdown();
    });

    server.run().map_err(rt)?;
    // Whatever stopped the server also stops a still-streaming follower
    // loop (a promoted one has stopped already).
    follower_shutdown.shutdown();
    // A follower finishes applying its in-flight segment before the
    // final snapshot is cut.
    if let Some(join) = follower_thread {
        match join.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => eprintln!("follower stream failed: {e}"),
            Err(_) => eprintln!("follower thread panicked"),
        }
    }
    if let Some(store) = &store {
        save_snapshot(store, &engine, seq.load(Ordering::Relaxed) + 1).map_err(rt)?;
    }
    if let Some(log) = &log {
        eprintln!("final journal offset {}", log.head());
    }
    log_stats(&engine);
    Ok(ExitCode::SUCCESS)
}

fn cmd_bench(o: &Args) -> Result<ExitCode, CliError> {
    let opts = LoadOptions {
        batch: o.int("--batch"),
        frames: o.int("--frames"),
        nodes: o.int("--nodes"),
        retry: !o.on("--no-retry"),
        ..LoadOptions::default()
    };
    let (report, scrape_addr) = match o.text("--addr") {
        Some(addr) => (run_load(addr, &opts).map_err(rt)?, addr.to_string()),
        None => {
            // Self-hosted: spin the engine up on a loopback ephemeral port
            // so `csp-served bench` measures the full service stack.
            let scheme = parse_scheme(o.text("--scheme").unwrap_or("last(pid+pc8)1[direct]"))?;
            let engine = Arc::new(ShardedEngine::new(
                scheme,
                o.int("--nodes"),
                o.int("--shards"),
            ));
            warm_engine(&engine, o)?;
            eprintln!(
                "self-hosted bench: {} with {} shards",
                engine.scheme(),
                engine.shard_count()
            );
            let server =
                Server::bind_tcp("127.0.0.1:0", engine).map_err(|e| rt(format!("bind: {e}")))?;
            let addr = server.local_addr().map_err(rt)?;
            std::thread::spawn(move || server.run());
            (run_load(addr, &opts).map_err(rt)?, addr.to_string())
        }
    };
    if let Some(out) = o.text("--metrics-out") {
        let mut client = Client::connect_tcp(scrape_addr.as_str())
            .map_err(|e| rt(format!("connect {scrape_addr}: {e}")))?;
        let text = client.metrics().map_err(rt)?;
        trace_io::write_file_atomically(Path::new(out), text.as_bytes())
            .map_err(|e| rt(format!("write {out}: {e}")))?;
        eprintln!("wrote metrics scrape to {out}");
    }
    if o.on("--json") {
        println!("{}", report.to_json());
    } else {
        println!("{report}");
    }
    Ok(ExitCode::SUCCESS)
}

/// `push` — replay a slice of a recorded trace into a replicated leader
/// over `Ingest` frames, as a remote trace producer would.
fn cmd_push(o: &Args) -> Result<ExitCode, CliError> {
    let addr = o.req("--addr");
    let spec = o.req("--scheme");
    let scheme = parse_scheme(spec)?;
    let [path] = o.positional.as_slice() else {
        return Err(usage_err("push takes exactly one <trace.csptrc>"));
    };
    let trace = load_trace(path)?;
    let prepared = PreparedTrace::new(&trace);
    let total = prepared.len();
    let from = o.int("--from-event").min(total);
    let to = o.num("--to-event").unwrap_or(total).min(total);
    let epoch = o.int("--epoch") as u64;
    if from > to {
        return Err(usage_err(format!(
            "--from-event {from} is past --to-event {to}"
        )));
    }
    let fp = replication::fingerprint(&scheme, trace.nodes());
    let mut client = connect(addr, 30)?;
    // Derive and send in bounded chunks so an arbitrarily long trace
    // never materializes as one giant op vector. An empty range still
    // sends one frame: it validates the fingerprint (and epoch) and
    // reports the leader's head.
    const CHUNK: usize = 8192;
    let (mut sent, mut pos) = (0usize, from);
    let head = loop {
        let end = (pos + CHUNK).min(to);
        let ops = trace_to_ops(&prepared, &scheme, pos..end);
        sent += ops.len();
        let head = client.ingest_at_epoch(fp, epoch, &ops).map_err(rt)?;
        pos = end;
        if pos == to {
            break head;
        }
    };
    println!("pushed {sent} ops from {path} (events [{from}..{to})); leader head {head}");
    Ok(ExitCode::SUCCESS)
}

/// `promote` — make a follower the new leader, over the wire. The
/// replica bumps its fencing epoch to at least `--min-epoch` (always
/// past its current term), stops streaming, re-parents the fleet via
/// the shared address file, and starts accepting writes; the deposed
/// leader's pushes are refused as `fenced` from then on. `--scheme` and
/// `--nodes` must match the replica's (they form the fingerprint).
fn cmd_promote(o: &Args) -> Result<ExitCode, CliError> {
    let addr = o.req("--addr");
    let spec = o.req("--scheme");
    let scheme = parse_scheme(spec)?;
    let fp = replication::fingerprint(&scheme, o.int("--nodes"));
    let mut client = connect(addr, 10)?;
    let (epoch, head) = client
        .promote(fp, o.int("--min-epoch") as u64)
        .map_err(rt)?;
    println!("promoted {addr}: epoch {epoch}, journal head {head}");
    Ok(ExitCode::SUCCESS)
}

fn cmd_metrics(o: &Args) -> Result<ExitCode, CliError> {
    let addr = o.req("--addr");
    let mut client = connect(addr, 10)?;
    print!("{}", client.metrics().map_err(rt)?);
    Ok(ExitCode::SUCCESS)
}

/// One refresh of the `top` table, derived from two metrics scrapes.
struct TopRow {
    shard: String,
    qps: f64,
    p99_ns: u64,
    queue: i64,
    restarts: u64,
}

/// Reads the p-th quantile of a Prometheus histogram back out of its
/// cumulative `_bucket{le=...}` samples for one shard.
fn bucket_quantile(samples: &[csp_obs::Sample], name: &str, shard: &str, q: f64) -> u64 {
    let bucket_name = format!("{name}_bucket");
    let mut buckets: Vec<(u64, u64)> = samples
        .iter()
        .filter(|s| s.name == bucket_name && s.label("shard") == Some(shard))
        .filter_map(|s| {
            let le = s.label("le")?;
            let le = if le == "+Inf" {
                u64::MAX
            } else {
                le.parse().ok()?
            };
            Some((le, s.value_u64()?))
        })
        .collect();
    buckets.sort_unstable();
    let total = buckets.last().map_or(0, |&(_, cum)| cum);
    if total == 0 {
        return 0;
    }
    #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
    let target = ((total as f64) * q).ceil().max(1.0) as u64;
    buckets
        .iter()
        .find(|&&(_, cum)| cum >= target)
        .map_or(0, |&(le, _)| le)
}

fn shard_counter(samples: &[csp_obs::Sample], name: &str, shard: &str) -> u64 {
    samples
        .iter()
        .find(|s| s.name == name && s.label("shard") == Some(shard))
        .and_then(csp_obs::Sample::value_u64)
        .unwrap_or(0)
}

fn top_rows(prev: &[csp_obs::Sample], cur: &[csp_obs::Sample], secs: f64) -> Vec<TopRow> {
    let mut shards: Vec<String> = cur
        .iter()
        .filter(|s| s.name == "csp_shard_queries_total")
        .filter_map(|s| s.label("shard").map(str::to_string))
        .collect();
    shards.sort();
    shards.dedup();
    shards
        .into_iter()
        .map(|shard| {
            let now = shard_counter(cur, "csp_shard_queries_total", &shard);
            let before = shard_counter(prev, "csp_shard_queries_total", &shard);
            #[allow(clippy::cast_precision_loss)]
            let qps = now.saturating_sub(before) as f64 / secs.max(1e-9);
            let queue = cur
                .iter()
                .find(|s| s.name == "csp_shard_queue_depth" && s.label("shard") == Some(&shard))
                .and_then(csp_obs::Sample::value_i64)
                .unwrap_or(0);
            TopRow {
                qps,
                p99_ns: bucket_quantile(cur, "csp_shard_query_service_ns", &shard, 0.99),
                queue,
                restarts: shard_counter(cur, "csp_shard_restarts_total", &shard),
                shard,
            }
        })
        .collect()
}

fn render_top(rows: &[TopRow], samples: &[csp_obs::Sample]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let conns = samples
        .iter()
        .find(|s| s.name == "csp_connections_active")
        .and_then(csp_obs::Sample::value_i64)
        .unwrap_or(0);
    let queries: u64 = rows
        .iter()
        .map(|r| shard_counter(samples, "csp_shard_queries_total", &r.shard))
        .sum();
    // A replicated engine exposes csp_repl_* gauges; an audited one,
    // csp_audit_*.
    let repl = |name: &str| {
        samples
            .iter()
            .find(|s| s.name == name)
            .and_then(csp_obs::Sample::value_i64)
    };
    let counter = |name: &str| {
        samples
            .iter()
            .find(|s| s.name == name)
            .and_then(csp_obs::Sample::value_u64)
    };
    let epoch = repl("csp_repl_epoch")
        .map(|e| format!(", epoch {e}"))
        .unwrap_or_default();
    let _ = writeln!(
        out,
        "csp-served top — {conns} conns, {queries} queries total{epoch}"
    );
    if let Some(records) = counter("csp_audit_records_total") {
        let bytes = counter("csp_audit_bytes_total").unwrap_or(0);
        let lag = repl("csp_audit_lag").unwrap_or(0);
        let _ = writeln!(
            out,
            "audit: {records} records logged ({bytes} bytes), slowest tailer lag {lag}"
        );
    }
    if let Some(applied) = repl("csp_repl_applied_offset") {
        let leader = repl("csp_repl_leader_offset").unwrap_or(applied);
        let lag = repl("csp_repl_lag_ops").unwrap_or(0);
        let connected = repl("csp_repl_connected").unwrap_or(0) == 1;
        let diverged = repl("csp_repl_diverged").unwrap_or(0) == 1;
        let reconnects = repl("csp_repl_reconnects_total").unwrap_or(0);
        let resyncs = repl("csp_repl_resyncs_total").unwrap_or(0);
        let health = if diverged {
            "DIVERGED"
        } else if connected {
            "connected"
        } else {
            "disconnected (serving stale)"
        };
        let _ = writeln!(
            out,
            "replica: applied {applied} / leader {leader} (lag {lag} ops), \
             {health}, {reconnects} reconnects, {resyncs} resyncs"
        );
    }
    let _ = writeln!(
        out,
        "{:>6} {:>12} {:>12} {:>7} {:>9}",
        "shard", "qps", "p99", "queue", "restarts"
    );
    for r in rows {
        #[allow(clippy::cast_precision_loss)]
        let p99_us = r.p99_ns as f64 / 1_000.0;
        let _ = writeln!(
            out,
            "{:>6} {:>12.0} {:>10.1}us {:>7} {:>9}",
            r.shard, r.qps, p99_us, r.queue, r.restarts
        );
    }
    out
}

fn cmd_top(o: &Args) -> Result<ExitCode, CliError> {
    let addr = o.req("--addr");
    let mut client = connect(addr, 10)?;
    let every = Duration::from_secs(o.int("--every") as u64);
    let secs = every.as_secs_f64();
    let mut prev = csp_obs::parse_text(&client.metrics().map_err(rt)?);
    let mut remaining = o.num("--count");
    loop {
        std::thread::sleep(every);
        let cur = csp_obs::parse_text(&client.metrics().map_err(rt)?);
        let rows = top_rows(&prev, &cur, secs);
        // Clear the screen and home the cursor between refreshes.
        print!("\x1b[2J\x1b[H{}", render_top(&rows, &cur));
        use std::io::Write as _;
        std::io::stdout().flush().map_err(rt)?;
        prev = cur;
        if let Some(n) = &mut remaining {
            *n -= 1;
            if *n == 0 {
                break;
            }
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_replay(o: &Args) -> Result<ExitCode, CliError> {
    let spec = o.req("--scheme");
    let scheme = parse_scheme(spec)?;
    if o.positional.is_empty() {
        return Err(usage_err("replay needs at least one <trace.csptrc>"));
    }
    let (snapshot_dir, restore) = (o.text("--snapshot-dir"), o.on("--restore"));
    if (snapshot_dir.is_some() || restore) && o.positional.len() != 1 {
        return Err(usage_err(
            "snapshotted replay takes exactly one trace (snapshots mark a position in it)",
        ));
    }
    if restore && snapshot_dir.is_none() {
        return Err(usage_err("--restore needs --snapshot-dir"));
    }
    let store = snapshot_dir
        .map(SnapshotStore::open)
        .transpose()
        .map_err(rt)?;
    let shards = o.int("--shards");

    let mut diverged = false;
    for path in &o.positional {
        let trace = load_trace(path)?;
        let prepared = PreparedTrace::new(&trace);
        let total = prepared.len();

        // Fresh engine, or resume from the newest snapshot's position.
        let mut start = 0usize;
        let engine = match (&store, restore) {
            (Some(store), true) => match store.load_latest().map_err(rt)? {
                Some((state, spath)) => {
                    if state.scheme.to_string() != scheme.to_string()
                        || state.nodes != trace.nodes()
                    {
                        return Err(rt(format!(
                            "{}: snapshot is {} over {} nodes; replay wants {} over {}",
                            spath.display(),
                            state.scheme,
                            state.nodes,
                            scheme,
                            trace.nodes()
                        )));
                    }
                    if state.seq as usize > total {
                        return Err(rt(format!(
                            "{}: snapshot seq {} is past the end of {path} ({total} events)",
                            spath.display(),
                            state.seq
                        )));
                    }
                    start = state.seq as usize;
                    eprintln!("restored at event {start} from {}", spath.display());
                    state.restore().map_err(rt)?
                }
                None => ShardedEngine::new(scheme, trace.nodes(), shards),
            },
            _ => ShardedEngine::new(scheme, trace.nodes(), shards),
        };

        // Replay in snapshot-bounded chunks. Each replay_range flushes, so
        // a snapshot taken between chunks is an exact prefix cut.
        let chunk = if store.is_some() {
            o.int("--snapshot-every-events")
        } else {
            total.saturating_sub(start).max(1)
        };
        let mut pos = start;
        while pos < total {
            let end = (pos + chunk).min(total);
            engine.replay_range(&prepared, pos..end).map_err(rt)?;
            pos = end;
            if let Some(m) = o.num("--crash-after") {
                // Hard-kill simulation: die *before* persisting this
                // chunk, exactly like a power cut mid-interval. Recovery
                // must re-earn everything after the last durable snapshot.
                if pos >= m {
                    eprintln!("injected crash at event {pos}");
                    std::process::abort();
                }
            }
            if let Some(store) = &store {
                save_snapshot(store, &engine, pos as u64).map_err(rt)?;
            }
        }

        let online = engine.stats();
        let offline = run_scheme(&trace, &scheme);
        let s = online.confusion.screening();
        let verdict = if online.confusion == offline {
            "= offline (bit-identical)"
        } else {
            diverged = true;
            "!= offline: DIVERGED"
        };
        println!(
            "{path}: {} events, pvp {:.3}, sens {:.3} {verdict}",
            trace.len(),
            s.pvp,
            s.sensitivity
        );

        if let Some(out) = o.text("--stats-out") {
            let c = online.confusion;
            let body = format!(
                "tp {}\nfp {}\ntn {}\nfn {}\nupdates {}\nscored {}\n",
                c.tp, c.fp, c.tn, c.fn_, online.updates, online.scored
            );
            trace_io::write_file_atomically(Path::new(out), body.as_bytes())
                .map_err(|e| rt(format!("write {out}: {e}")))?;
        }
    }
    if diverged {
        Err(rt("online replay diverged from the offline reference"))
    } else {
        Ok(ExitCode::SUCCESS)
    }
}

fn cmd_snapshot(o: &Args) -> Result<ExitCode, CliError> {
    let [dir] = o.positional.as_slice() else {
        return Err(usage_err("snapshot takes exactly one <DIR>"));
    };
    let store = SnapshotStore::open(dir.as_str()).map_err(rt)?;
    match store.load_latest().map_err(rt)? {
        Some((state, path)) => {
            let entries: usize = state.shards.iter().map(|s| s.table.entries_touched()).sum();
            let updates: u64 = state.shards.iter().map(|s| s.updates).sum();
            println!(
                "{}: {} over {} nodes, {} shards, seq {}, {} entries, {} updates",
                path.display(),
                state.scheme,
                state.nodes,
                state.shards.len(),
                state.seq,
                entries,
                updates
            );
            // A replicated deployment keeps journal-*.cspjrnl beside the
            // snapshots; report the durable offset range for resume/debug.
            let fp = replication::fingerprint(&state.scheme, state.nodes);
            match JournalStore::open(dir.as_str(), fp).and_then(|j| j.recover_all()) {
                Ok(recovered) if recovered.head() == 0 => println!("journal: none"),
                Ok(recovered) => println!(
                    "journal: ops [{}..{}) on disk (snapshot resumes at {})",
                    recovered.base,
                    recovered.head(),
                    state.seq
                ),
                Err(e) => println!("journal: unreadable ({e})"),
            }
            Ok(ExitCode::SUCCESS)
        }
        None => Err(rt(format!("no usable snapshot in {dir}"))),
    }
}

/// `audit verify` — replay the recorded trace through an offline twin
/// and prove the logged decisions byte-identical. Exit 1 on the first
/// divergence (with a field-level diff), on a corrupt log, or on a
/// version-fingerprint mismatch. With `--snapshot-dir`, the twin's end
/// state must also match the newest (shutdown) snapshot.
fn cmd_audit_verify(o: &Args) -> Result<ExitCode, CliError> {
    let spec = o.req("--scheme");
    let scheme = parse_scheme(spec)?;
    let log_path = o.req("--log");
    let [trace_path] = o.positional.as_slice() else {
        return Err(usage_err("audit verify takes exactly one <trace.csptrc>"));
    };
    let trace = load_trace(trace_path)?;
    let prepared = PreparedTrace::new(&trace);
    let expected_fp = csp_core::version_fingerprint(&scheme, trace.nodes());
    let file = File::open(log_path).map_err(|e| rt(format!("open {log_path}: {e}")))?;
    let log = csp_trace::audit::read_audit_log(BufReader::new(file), Some(expected_fp))
        .map_err(|e| rt(format!("read {log_path}: {e}")))?;
    let final_state = match o.text("--snapshot-dir") {
        Some(dir) => {
            let store = SnapshotStore::open(dir).map_err(rt)?;
            let (state, path) = store
                .load_latest()
                .map_err(rt)?
                .ok_or_else(|| rt(format!("no usable snapshot in {dir}")))?;
            eprintln!("final state checked against {}", path.display());
            Some(state)
        }
        None => None,
    };
    let report = csp_serve::verify_log(&log, &prepared, &scheme, None, final_state.as_ref())
        .map_err(|e| rt(format!("{log_path}: {e}")))?;
    println!(
        "{log_path}: {} of {} decisions byte-identical (shards {}, sample 1/{}){}{}",
        report.checked,
        report.decisions,
        report.shards,
        report.sample.max(1),
        if report.torn {
            "; torn tail segment discarded"
        } else {
            ""
        },
        if final_state.is_some() {
            "; final state matches"
        } else {
            ""
        }
    );
    Ok(ExitCode::SUCCESS)
}

/// `audit record` — produce an audit log offline by replaying a trace
/// through a fresh engine with a file sink attached; the result is what
/// a live `serve --audit-log` run over the same traffic writes.
fn cmd_audit_record(o: &Args) -> Result<ExitCode, CliError> {
    let spec = o.req("--scheme");
    let scheme = parse_scheme(spec)?;
    let log_path = o.req("--log");
    let [trace_path] = o.positional.as_slice() else {
        return Err(usage_err("audit record takes exactly one <trace.csptrc>"));
    };
    let trace = load_trace(trace_path)?;
    let engine = ShardedEngine::new(scheme, trace.nodes(), o.int("--shards"));
    let sample = o.int("--audit-sample") as u32;
    let sink =
        csp_serve::audit::attach_file_sink(&engine, Path::new(log_path), sample).map_err(rt)?;
    engine.replay_trace(&trace).map_err(rt)?;
    let stats = engine.stats();
    println!(
        "recorded {} of {} decisions from {trace_path} -> {log_path} \
         (fingerprint {:#010X}, sample 1/{})",
        sink.head(),
        stats.scored,
        sink.fingerprint(),
        sink.sample().max(1)
    );
    Ok(ExitCode::SUCCESS)
}

/// `audit tail` — stream decision records live from a serving engine.
/// The version fingerprint is taken from the server's own `Stats` reply,
/// so a tail never subscribes across a config mismatch silently.
fn cmd_audit_tail(o: &Args) -> Result<ExitCode, CliError> {
    let addr = o.req("--addr");
    let mut client = connect(addr, 10)?;
    let stats = client.stats().map_err(rt)?;
    let from = o.num("--from").map_or(u64::MAX, |n| n as u64);
    let count = o.num("--count");
    eprintln!(
        "tailing audit stream of {} on {addr} (fingerprint {:#010X})",
        stats.scheme, stats.fingerprint
    );
    let mut seen = 0usize;
    client
        .tail_audit(stats.fingerprint, from, |frame| {
            for (i, r) in frame.records.iter().enumerate() {
                println!(
                    "{} seq={} shard={} key={:#018x} predicted={:#x} actual={:#x} epoch={}",
                    frame.start + i as u64,
                    r.seq,
                    r.shard,
                    r.key,
                    r.predicted,
                    r.actual,
                    r.epoch
                );
            }
            seen += frame.records.len();
            match count {
                Some(n) => seen < n,
                None => true,
            }
        })
        .map_err(rt)?;
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    /// The module doc shows the rendered usage, so the two cannot drift.
    #[test]
    fn module_doc_shows_the_rendered_usage() {
        let doc: String = super::usage()
            .lines()
            .map(|line| format!("//! {line}\n"))
            .collect();
        assert!(include_str!("csp_served.rs").contains(&doc), "{doc}");
    }
}
