//! `csp-served` — host, drive and verify the online prediction service.
//!
//! ```text
//! csp-served serve    --scheme S [--nodes N] [--shards K] [--listen ADDR]
//!                     [--unix PATH] [--warm trace.csptrc]... [--warm-events N]
//!                     [--stats-every SECS] [--snapshot-dir DIR]
//!                     [--snapshot-every SECS] [--restore]
//!                     [--replicate] [--follow ADDR | --follow-file PATH]
//!                     [--addr-file PATH] [--replica-id N] [--auto-promote]
//!                     [--lease-ms MS] [--audit-log FILE] [--audit-sample 1/N]
//! csp-served bench    [--scheme S] [--nodes N] [--shards K] [--batch B]
//!                     [--frames F] [--addr ADDR] [--warm trace.csptrc]
//!                     [--json] [--metrics-out FILE] [--no-retry]
//! csp-served push     --addr ADDR --scheme S [--from-event N] [--to-event M]
//!                     [--epoch E] <trace.csptrc>
//! csp-served promote  --addr ADDR --scheme S [--nodes N] [--min-epoch E]
//! csp-served metrics  --addr ADDR
//! csp-served top      --addr ADDR [--every SECS] [--count N]
//! csp-served replay   --scheme S [--shards K] [--snapshot-dir DIR]
//!                     [--snapshot-every-events N] [--restore]
//!                     [--stats-out FILE] <trace.csptrc>...
//! csp-served snapshot <DIR>
//! csp-served audit verify --scheme S --log FILE [--snapshot-dir DIR]
//!                     <trace.csptrc>
//! csp-served audit record --scheme S [--shards K] [--audit-sample 1/N]
//!                     --log FILE <trace.csptrc>
//! csp-served audit tail   --addr ADDR [--from N] [--count N]
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
//! Promotion bumps the fencing epoch, stops the follower loop, and
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
//! Exit codes: `0` success, `1` runtime failure (I/O, corrupt input,
//! online/offline divergence), `2` usage error.

use csp_core::engine::run_scheme;
use csp_core::{PreparedTrace, Scheme};
use csp_serve::replication::{self, run_follower, snapshot_at_head, trace_to_ops};
use csp_serve::{
    run_load, Client, EngineState, FollowerOptions, IngestOp, JournalStore, LoadOptions,
    PromoteHook, ReplOp, ReplicaStatus, ReplicationLog, Server, ShardedEngine, ShutdownHandle,
    SnapshotStore, DEFAULT_LEASE,
};
use csp_trace::{io as trace_io, Trace};
use std::fs::File;
use std::io::{BufReader, Read as _};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
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

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("serve") => cmd_serve(&args[1..]),
        Some("bench") => cmd_bench(&args[1..]),
        Some("push") => cmd_push(&args[1..]),
        Some("promote") => cmd_promote(&args[1..]),
        Some("metrics") => cmd_metrics(&args[1..]),
        Some("top") => cmd_top(&args[1..]),
        Some("replay") => cmd_replay(&args[1..]),
        Some("snapshot") => cmd_snapshot(&args[1..]),
        Some("audit") => cmd_audit(&args[1..]),
        _ => {
            print_usage();
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(code) => code,
        Err(CliError::Usage(msg)) => {
            eprintln!("error: {msg}");
            print_usage();
            ExitCode::from(2)
        }
        Err(CliError::Runtime(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    eprintln!("usage:");
    eprintln!("  csp-served serve    --scheme S [--nodes N] [--shards K] [--listen ADDR]");
    eprintln!("                      [--unix PATH] [--warm trace.csptrc]... [--warm-events N]");
    eprintln!("                      [--stats-every SECS] [--snapshot-dir DIR]");
    eprintln!("                      [--snapshot-every SECS] [--restore]");
    eprintln!("                      [--replicate] [--follow ADDR | --follow-file PATH]");
    eprintln!("                      [--addr-file PATH] [--replica-id N] [--auto-promote]");
    eprintln!("                      [--lease-ms MS] [--audit-log FILE] [--audit-sample 1/N]");
    eprintln!("  csp-served bench    [--scheme S] [--nodes N] [--shards K] [--batch B]");
    eprintln!("                      [--frames F] [--addr ADDR] [--warm trace.csptrc]");
    eprintln!("                      [--json] [--metrics-out FILE] [--no-retry]");
    eprintln!("  csp-served push     --addr ADDR --scheme S [--from-event N] [--to-event M]");
    eprintln!("                      [--epoch E] <trace.csptrc>");
    eprintln!("  csp-served promote  --addr ADDR --scheme S [--nodes N] [--min-epoch E]");
    eprintln!("  csp-served metrics  --addr ADDR");
    eprintln!("  csp-served top      --addr ADDR [--every SECS] [--count N]");
    eprintln!("  csp-served replay   --scheme S [--shards K] [--snapshot-dir DIR]");
    eprintln!("                      [--snapshot-every-events N] [--restore]");
    eprintln!("                      [--stats-out FILE] <trace.csptrc>...");
    eprintln!("  csp-served snapshot <DIR>");
    eprintln!("  csp-served audit verify --scheme S --log FILE [--snapshot-dir DIR]");
    eprintln!("                      <trace.csptrc>");
    eprintln!("  csp-served audit record --scheme S [--shards K] [--audit-sample 1/N]");
    eprintln!("                      --log FILE <trace.csptrc>");
    eprintln!("  csp-served audit tail   --addr ADDR [--from N] [--count N]");
    eprintln!("exit codes: 0 ok, 1 runtime failure (incl. divergence), 2 usage");
}

fn load_trace(path: &str) -> Result<Trace, CliError> {
    let file = File::open(path).map_err(|e| rt(format!("open {path}: {e}")))?;
    trace_io::read_trace(BufReader::new(file)).map_err(|e| rt(format!("read {path}: {e}")))
}

fn parse_scheme(spec: &str) -> Result<Scheme, CliError> {
    spec.parse().map_err(|e| usage_err(format!("{spec}: {e}")))
}

/// Parses an audit sampling spec: `1/N` or bare `N`, keeping one in N
/// decisions (deterministically by key hash; `1` keeps everything).
fn parse_sample(spec: &str) -> Result<u32, CliError> {
    spec.strip_prefix("1/")
        .unwrap_or(spec)
        .parse::<u32>()
        .ok()
        .filter(|&n| n > 0)
        .ok_or_else(|| usage_err("--audit-sample needs '1/N' or 'N' with N >= 1"))
}

/// Options shared by the subcommands, parsed from `--flag value` pairs;
/// anything unflagged lands in `positional`, and an unknown `--flag` is a
/// usage error.
struct Options {
    scheme: Option<String>,
    nodes: usize,
    shards: usize,
    listen: String,
    unix: Option<String>,
    addr: Option<String>,
    warm: Vec<String>,
    batch: usize,
    frames: usize,
    stats_every: u64,
    snapshot_dir: Option<String>,
    snapshot_every: u64,
    snapshot_every_events: usize,
    restore: bool,
    crash_after: Option<usize>,
    stats_out: Option<String>,
    json: bool,
    metrics_out: Option<String>,
    every: u64,
    count: Option<usize>,
    replicate: bool,
    follow: Option<String>,
    follow_file: Option<String>,
    addr_file: Option<String>,
    warm_events: Option<usize>,
    no_retry: bool,
    from_event: usize,
    to_event: Option<usize>,
    replica_id: u64,
    auto_promote: bool,
    lease_ms: Option<u64>,
    min_epoch: u64,
    epoch: u64,
    audit_log: Option<String>,
    audit_sample: u32,
    log: Option<String>,
    from: Option<u64>,
    positional: Vec<String>,
}

fn parse_options(args: &[String]) -> Result<Options, CliError> {
    let mut o = Options {
        scheme: None,
        nodes: 16,
        shards: 4,
        listen: "127.0.0.1:7117".to_string(),
        unix: None,
        addr: None,
        warm: Vec::new(),
        batch: 1024,
        frames: 2000,
        stats_every: 10,
        snapshot_dir: None,
        snapshot_every: 30,
        snapshot_every_events: 100_000,
        restore: false,
        crash_after: None,
        stats_out: None,
        json: false,
        metrics_out: None,
        every: 2,
        count: None,
        replicate: false,
        follow: None,
        follow_file: None,
        addr_file: None,
        warm_events: None,
        no_retry: false,
        from_event: 0,
        to_event: None,
        replica_id: 0,
        auto_promote: false,
        lease_ms: None,
        min_epoch: 0,
        epoch: 0,
        audit_log: None,
        audit_sample: 1,
        log: None,
        from: None,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| usage_err(format!("{name} needs a value")))
        };
        match a.as_str() {
            "--scheme" => o.scheme = Some(value("--scheme")?),
            "--nodes" => {
                o.nodes = value("--nodes")?
                    .parse()
                    .map_err(|_| usage_err("--nodes needs an integer"))?
            }
            "--shards" => {
                o.shards = value("--shards")?
                    .parse::<usize>()
                    .ok()
                    .filter(|&v| v > 0)
                    .ok_or_else(|| usage_err("--shards needs a positive integer"))?
            }
            "--listen" => o.listen = value("--listen")?,
            "--unix" => o.unix = Some(value("--unix")?),
            "--addr" => o.addr = Some(value("--addr")?),
            "--warm" => {
                let path = value("--warm")?;
                o.warm.push(path);
            }
            "--batch" => {
                o.batch = value("--batch")?
                    .parse::<usize>()
                    .ok()
                    .filter(|&v| v > 0)
                    .ok_or_else(|| usage_err("--batch needs a positive integer"))?
            }
            "--frames" => {
                o.frames = value("--frames")?
                    .parse::<usize>()
                    .ok()
                    .filter(|&v| v > 0)
                    .ok_or_else(|| usage_err("--frames needs a positive integer"))?
            }
            "--stats-every" => {
                o.stats_every = value("--stats-every")?
                    .parse()
                    .map_err(|_| usage_err("--stats-every needs a number of seconds"))?
            }
            "--snapshot-dir" => o.snapshot_dir = Some(value("--snapshot-dir")?),
            "--snapshot-every" => {
                o.snapshot_every = value("--snapshot-every")?
                    .parse()
                    .map_err(|_| usage_err("--snapshot-every needs a number of seconds"))?
            }
            "--snapshot-every-events" => {
                o.snapshot_every_events = value("--snapshot-every-events")?
                    .parse::<usize>()
                    .ok()
                    .filter(|&v| v > 0)
                    .ok_or_else(|| usage_err("--snapshot-every-events needs a positive integer"))?
            }
            "--restore" => o.restore = true,
            "--crash-after" => {
                // Test hook: simulate a hard kill (SIGKILL-style abort)
                // once this many events have been replayed.
                o.crash_after = Some(
                    value("--crash-after")?
                        .parse()
                        .map_err(|_| usage_err("--crash-after needs an event count"))?,
                )
            }
            "--stats-out" => o.stats_out = Some(value("--stats-out")?),
            "--json" => o.json = true,
            "--metrics-out" => o.metrics_out = Some(value("--metrics-out")?),
            "--every" => {
                o.every = value("--every")?
                    .parse::<u64>()
                    .ok()
                    .filter(|&v| v > 0)
                    .ok_or_else(|| usage_err("--every needs a positive number of seconds"))?
            }
            "--count" => {
                o.count = Some(
                    value("--count")?
                        .parse::<usize>()
                        .ok()
                        .filter(|&v| v > 0)
                        .ok_or_else(|| usage_err("--count needs a positive integer"))?,
                )
            }
            "--replicate" => o.replicate = true,
            "--follow" => o.follow = Some(value("--follow")?),
            "--follow-file" => o.follow_file = Some(value("--follow-file")?),
            "--addr-file" => o.addr_file = Some(value("--addr-file")?),
            "--warm-events" => {
                o.warm_events = Some(
                    value("--warm-events")?
                        .parse::<usize>()
                        .ok()
                        .filter(|&v| v > 0)
                        .ok_or_else(|| usage_err("--warm-events needs a positive integer"))?,
                )
            }
            "--no-retry" => o.no_retry = true,
            "--replica-id" => {
                o.replica_id = value("--replica-id")?
                    .parse()
                    .map_err(|_| usage_err("--replica-id needs an integer rank"))?
            }
            "--auto-promote" => o.auto_promote = true,
            "--lease-ms" => {
                o.lease_ms = Some(
                    value("--lease-ms")?
                        .parse::<u64>()
                        .ok()
                        .filter(|&v| v > 0)
                        .ok_or_else(|| {
                            usage_err("--lease-ms needs a positive millisecond count")
                        })?,
                )
            }
            "--min-epoch" => {
                o.min_epoch = value("--min-epoch")?
                    .parse()
                    .map_err(|_| usage_err("--min-epoch needs an epoch number"))?
            }
            "--epoch" => {
                o.epoch = value("--epoch")?
                    .parse()
                    .map_err(|_| usage_err("--epoch needs an epoch number"))?
            }
            "--audit-log" => o.audit_log = Some(value("--audit-log")?),
            "--audit-sample" => {
                o.audit_sample = parse_sample(&value("--audit-sample")?)?;
            }
            "--log" => o.log = Some(value("--log")?),
            "--from" => {
                o.from = Some(
                    value("--from")?
                        .parse()
                        .map_err(|_| usage_err("--from needs a record offset"))?,
                )
            }
            "--from-event" => {
                o.from_event = value("--from-event")?
                    .parse()
                    .map_err(|_| usage_err("--from-event needs an event index"))?
            }
            "--to-event" => {
                o.to_event = Some(
                    value("--to-event")?
                        .parse()
                        .map_err(|_| usage_err("--to-event needs an event index"))?,
                )
            }
            flag if flag.starts_with("--") => {
                return Err(usage_err(format!("unknown flag {flag}")));
            }
            other => o.positional.push(other.to_string()),
        }
    }
    Ok(o)
}

/// [`parse_options`] for a subcommand that takes flags only: a stray
/// positional argument is a usage error, not silently ignored.
fn parse_flags_only(cmd: &str, args: &[String]) -> Result<Options, CliError> {
    let o = parse_options(args)?;
    match o.positional.first() {
        Some(stray) => Err(usage_err(format!(
            "{cmd} takes no positional arguments (got {stray:?})"
        ))),
        None => Ok(o),
    }
}

fn build_engine(o: &Options, default_scheme: &str) -> Result<Arc<ShardedEngine>, CliError> {
    let scheme = parse_scheme(o.scheme.as_deref().unwrap_or(default_scheme))?;
    let engine = Arc::new(ShardedEngine::new(scheme, o.nodes, o.shards));
    warm_engine(&engine, o)?;
    Ok(engine)
}

fn warm_engine(engine: &ShardedEngine, o: &Options) -> Result<(), CliError> {
    for path in &o.warm {
        let trace = load_trace(path)?;
        let end = o.warm_events.unwrap_or(trace.len()).min(trace.len());
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

fn save_snapshot(store: &SnapshotStore, engine: &ShardedEngine, seq: u64) -> Result<(), CliError> {
    let path = store.save(&EngineState::capture(engine, seq)).map_err(rt)?;
    eprintln!("snapshot seq {seq} -> {}", path.display());
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<ExitCode, CliError> {
    let o = parse_flags_only("serve", args)?;
    if o.scheme.is_none() {
        return Err(usage_err(
            "serve needs --scheme (e.g. --scheme 'inter(pid+pc8)2[direct]')",
        ));
    }
    if o.restore && o.snapshot_dir.is_none() {
        return Err(usage_err("--restore needs --snapshot-dir"));
    }
    let following = o.follow.is_some() || o.follow_file.is_some();
    if o.follow.is_some() && o.follow_file.is_some() {
        return Err(usage_err(
            "--follow and --follow-file are mutually exclusive",
        ));
    }
    if o.replicate && following {
        return Err(usage_err(
            "--replicate (leader) and --follow (follower) are mutually exclusive",
        ));
    }
    if o.replicate && o.snapshot_dir.is_none() {
        return Err(usage_err(
            "--replicate needs --snapshot-dir (the journal lives beside the snapshots)",
        ));
    }
    if o.auto_promote && !following {
        return Err(usage_err(
            "--auto-promote needs --follow or --follow-file (only a follower promotes itself)",
        ));
    }
    if following && !o.warm.is_empty() {
        return Err(usage_err(
            "--warm cannot be combined with --follow: a follower's state must come \
             from the leader (snapshot + stream), or the replica diverges",
        ));
    }
    let store = match &o.snapshot_dir {
        Some(dir) => Some(SnapshotStore::open(dir).map_err(rt)?),
        None => None,
    };

    // Restore from the newest snapshot, or start fresh. Warm-up happens
    // below, once the replication log (if any) is attached, so warm
    // replay is journaled and reaches followers.
    let seq = Arc::new(AtomicU64::new(0));
    let mut restored = false;
    let engine = match (&store, o.restore) {
        (Some(store), true) => match store.load_latest().map_err(rt)? {
            Some((state, path)) => {
                let want = parse_scheme(o.scheme.as_deref().unwrap_or(""))?;
                if state.scheme.to_string() != want.to_string() || state.nodes != o.nodes {
                    return Err(rt(format!(
                        "{}: snapshot is {} over {} nodes; asked to serve {} over {}",
                        path.display(),
                        state.scheme,
                        state.nodes,
                        want,
                        o.nodes
                    )));
                }
                seq.store(state.seq, Ordering::Relaxed);
                restored = true;
                eprintln!(
                    "restored {} (seq {}) from {}",
                    state.scheme,
                    state.seq,
                    path.display()
                );
                // Warm traces are part of *fresh* bring-up; a restored
                // engine already contains everything it had learned.
                if !o.warm.is_empty() {
                    eprintln!("--warm skipped: state came from the snapshot");
                }
                Arc::new(state.restore().map_err(rt)?)
            }
            None => {
                eprintln!("no snapshot found; starting fresh");
                let scheme = parse_scheme(o.scheme.as_deref().unwrap_or(""))?;
                Arc::new(ShardedEngine::new(scheme, o.nodes, o.shards))
            }
        },
        _ => {
            let scheme = parse_scheme(o.scheme.as_deref().unwrap_or(""))?;
            Arc::new(ShardedEngine::new(scheme, o.nodes, o.shards))
        }
    };

    // Leader bring-up: recover the journal, re-apply anything past the
    // snapshot, attach the log, warm (now journaled), and cut a
    // bootstrap snapshot for followers.
    let mut initial_floor = 0u64;
    if o.replicate {
        let dir = o
            .snapshot_dir
            .clone()
            .ok_or_else(|| usage_err("--replicate needs --snapshot-dir"))?;
        let fp = replication::fingerprint(engine.scheme(), engine.nodes());
        let jstore = JournalStore::open(&dir, fp).map_err(rt)?;
        let recovered = jstore.recover_all().map_err(rt)?;
        let snap_seq = seq.load(Ordering::Relaxed);
        if snap_seq > recovered.head() {
            return Err(rt(format!(
                "snapshot seq {snap_seq} is ahead of the journal head {} — \
                 the journal in {dir} is not this snapshot's history",
                recovered.head()
            )));
        }
        if !restored && recovered.base > 0 {
            return Err(rt(format!(
                "journal in {dir} starts at offset {} (older segments were compacted); \
                 pass --restore to bootstrap from the snapshot",
                recovered.base
            )));
        }
        let tail = recovered.tail_from(snap_seq);
        if !tail.is_empty() {
            // Applied before the log attaches, so recovery replay is not
            // journaled a second time.
            let ops: Vec<IngestOp> = tail.iter().map(ReplOp::to_ingest).collect();
            engine.ingest_ops(ops);
            engine.flush();
            eprintln!(
                "re-applied {} journaled ops beyond snapshot seq {snap_seq}",
                tail.len()
            );
        }
        let log = ReplicationLog::durable(jstore, &recovered).map_err(rt)?;
        if let Some(ms) = o.lease_ms {
            log.set_lease_ttl(Duration::from_millis(ms));
        }
        log.bind_metrics(engine.registry());
        engine.attach_replication(log).map_err(rt)?;
        if !restored {
            warm_engine(&engine, &o)?;
        }
        if let Some(store) = &store {
            let state = snapshot_at_head(&engine).map_err(rt)?;
            initial_floor = state.seq;
            seq.store(state.seq, Ordering::Relaxed);
            let path = store.save(&state).map_err(rt)?;
            eprintln!("snapshot seq {} -> {}", state.seq, path.display());
        }
        eprintln!(
            "replicating as leader: fingerprint {fp:#010X}, journal head {}",
            engine.replication().map_or(0, |l| l.head())
        );
    } else if !restored && !following {
        warm_engine(&engine, &o)?;
    }

    // Follower bring-up: read-only engine bootstrapped from the copied
    // snapshot plus whatever its *local* journal already holds. The
    // follower carries its own replication log — the relay point for
    // chained fan-out, and the durable record a promotion re-opens as
    // leader — so segments it applies are journaled (when durable) and
    // republished to its own subscribers. The streaming thread starts
    // once the server socket is up.
    let mut follower_setup: Option<Arc<ReplicaStatus>> = None;
    if following {
        engine.mark_follower();
        let fp = replication::fingerprint(engine.scheme(), engine.nodes());
        let snap_seq = seq.load(Ordering::Relaxed);
        let log = match &o.snapshot_dir {
            Some(dir) => {
                let js = JournalStore::open(dir, fp).map_err(rt)?;
                let mut recovered = js.recover_all().map_err(rt)?;
                let head = recovered.head();
                if head > 0 && head < snap_seq {
                    return Err(rt(format!(
                        "local journal ends at {head}, before snapshot seq {snap_seq}; \
                         remove stale journal-*.cspjrnl files from {dir} before following"
                    )));
                }
                let tail = recovered.tail_from(snap_seq);
                if !tail.is_empty() {
                    let ops: Vec<IngestOp> = tail.iter().map(ReplOp::to_ingest).collect();
                    engine.ingest_ops(ops);
                    engine.flush();
                    eprintln!(
                        "re-applied {} locally journaled ops beyond snapshot seq {snap_seq}",
                        tail.len()
                    );
                }
                if head == 0 && snap_seq > 0 {
                    // Empty journal under a bootstrapped snapshot: the
                    // durable log resumes at the snapshot horizon.
                    recovered.base = snap_seq;
                }
                ReplicationLog::durable(js, &recovered).map_err(rt)?
            }
            // Journal-less follower: an in-memory log still relays the
            // stream downstream, but promotion yields a leader whose
            // history starts at its in-memory base.
            None => ReplicationLog::in_memory_at(fp, snap_seq, 1),
        };
        if let Some(ms) = o.lease_ms {
            log.set_lease_ttl(Duration::from_millis(ms));
        }
        let start = log.head();
        log.bind_metrics(engine.registry());
        engine.attach_replication(log).map_err(rt)?;
        let status = ReplicaStatus::new(start);
        status.bind_metrics(engine.registry());
        eprintln!(
            "following {} from offset {start} (read-only replica)",
            o.follow
                .as_deref()
                .or(o.follow_file.as_deref())
                .unwrap_or("?")
        );
        follower_setup = Some(status);
    }

    // Decision audit stream: attached after bring-up (restore/journal
    // recovery/warm replay are not re-audited — the per-shard watermark
    // already covers them) but before the listener, so every decision
    // made over the wire is journaled before its effects publish.
    if let Some(path) = &o.audit_log {
        let sink =
            csp_serve::audit::attach_file_sink(&engine, std::path::Path::new(path), o.audit_sample)
                .map_err(rt)?;
        if let Some(log) = engine.replication() {
            sink.set_epoch(log.epoch());
        }
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

    let server = Server::bind_tcp(&o.listen, Arc::clone(&engine))
        .map_err(|e| rt(format!("bind {}: {e}", o.listen)))?;
    let bound = server.local_addr().map_err(rt)?;

    // Promotion: one routine shared by the wire `Promote` hook (which
    // also serves the `promote` subcommand) and the auto-promote
    // monitor. Fence first (durable epoch bump), then stop the follower
    // loop, flip the engine writable, and re-parent the fleet by
    // rewriting the shared --follow-file with this server's address —
    // every other follower re-reads it on its next dial.
    let follower_shutdown = ShutdownHandle::new();
    let mut promoter: Option<PromoteHook> = None;
    if following {
        let p_engine = Arc::clone(&engine);
        let p_stop = follower_shutdown.clone();
        let follow_file = o.follow_file.clone();
        let own_addr = bound.to_string();
        promoter = Some(Arc::new(move |min_epoch: u64| {
            let log = p_engine
                .replication()
                .ok_or_else(|| "no replication log attached".to_string())?;
            let epoch = log.bump_epoch(min_epoch).map_err(|e| e.to_string())?;
            p_stop.shutdown();
            p_engine.mark_leader();
            // Decisions under the new term are attested as such.
            if let Some(sink) = p_engine.audit() {
                sink.set_epoch(epoch);
            }
            match &follow_file {
                Some(path) => match trace_io::write_file_atomically(
                    std::path::Path::new(path),
                    own_addr.as_bytes(),
                ) {
                    Ok(()) => eprintln!(
                        "promoted to leader (epoch {epoch}); re-parented {path} -> {own_addr}"
                    ),
                    Err(e) => eprintln!(
                        "promoted to leader (epoch {epoch}); could not re-parent {path}: {e}"
                    ),
                },
                None => eprintln!("promoted to leader (epoch {epoch})"),
            }
            Ok((epoch, log.head()))
        }));
    }
    let server = match &promoter {
        Some(hook) => server.with_promote_hook(Arc::clone(hook)),
        None => server,
    };

    let mut unix_shutdown = None;
    if let Some(path) = &o.unix {
        let _ = std::fs::remove_file(path);
        let mut unix_server = Server::bind_unix(path, Arc::clone(&engine))
            .map_err(|e| rt(format!("bind {path}: {e}")))?;
        if let Some(hook) = &promoter {
            unix_server = unix_server.with_promote_hook(Arc::clone(hook));
        }
        eprintln!("listening on unix socket {path}");
        unix_shutdown = Some(unix_server.shutdown_handle());
        std::thread::spawn(move || unix_server.run());
    }
    if let Some(path) = &o.addr_file {
        // Published atomically so a follower's --follow-file never reads
        // a half-written address.
        trace_io::write_file_atomically(std::path::Path::new(path), bound.to_string().as_bytes())
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
    let mut follower_thread = None;
    if let Some(status) = follower_setup.take() {
        let f_engine = Arc::clone(&engine);
        let f_status = Arc::clone(&status);
        let f_shutdown = follower_shutdown.clone();
        let follow_addr = o.follow.clone();
        let follow_file = o.follow_file.clone();
        let join = std::thread::spawn(move || {
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
        });
        follower_thread = Some((join, status));
    }

    // Lease-based failure detection: when segments (heartbeats included)
    // stop arriving for longer than the leader-advertised lease —
    // staggered by replica rank so exactly one replica moves first —
    // promote this follower. Rank 0's deadline is one lease; each higher
    // rank waits two extra leases, time enough to ride out reconnect
    // backoff and re-parent onto whoever beat it to the claim.
    if o.auto_promote {
        if let (Some(hook), Some((_, status))) = (&promoter, &follower_thread) {
            let hook = Arc::clone(hook);
            let status = Arc::clone(status);
            let stop = follower_shutdown.clone();
            let rank = o.replica_id;
            let fallback_ms = o.lease_ms.unwrap_or(DEFAULT_LEASE.as_millis() as u64);
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
                match hook(0) {
                    Ok((epoch, head)) => {
                        eprintln!("auto-promoted: epoch {epoch}, journal head {head}");
                    }
                    Err(e) => eprintln!("auto-promotion failed: {e}"),
                }
                return;
            });
        }
    }

    if o.stats_every > 0 {
        let monitor = Arc::clone(&engine);
        let every = Duration::from_secs(o.stats_every);
        std::thread::spawn(move || loop {
            std::thread::sleep(every);
            log_stats(&monitor);
        });
    }

    // Periodic background snapshots. A replicated leader snapshots at
    // the journal head (seq == offset, an exact cut) and compacts the
    // journal below the *previous* retained snapshot's horizon. A
    // follower skips periodic snapshots: its applied offset moves on the
    // streaming thread, so only the post-drain snapshot is an exact cut.
    if following {
        if o.snapshot_dir.is_some() && o.snapshot_every > 0 {
            eprintln!("periodic snapshots are disabled while following; one is taken at shutdown");
        }
    } else if let (Some(dir), true) = (&o.snapshot_dir, o.snapshot_every > 0) {
        let dir = dir.clone();
        let snap_engine = Arc::clone(&engine);
        let snap_seq = Arc::clone(&seq);
        let every = Duration::from_secs(o.snapshot_every);
        let mut floor = initial_floor;
        std::thread::spawn(move || {
            let Ok(store) = SnapshotStore::open(&dir) else {
                return;
            };
            loop {
                std::thread::sleep(every);
                let result = if let Some(log) = snap_engine.replication() {
                    snapshot_at_head(&snap_engine)
                        .map_err(rt)
                        .and_then(|state| {
                            let s = state.seq;
                            let path = store.save(&state).map_err(rt)?;
                            eprintln!("snapshot seq {s} -> {}", path.display());
                            snap_seq.store(s, Ordering::Relaxed);
                            if let Err(e) = log.compact(floor) {
                                eprintln!("journal compaction failed: {e}");
                            }
                            floor = s;
                            Ok(())
                        })
                } else {
                    let s = snap_seq.fetch_add(1, Ordering::Relaxed) + 1;
                    save_snapshot(&store, &snap_engine, s)
                };
                if let Err(e) = result {
                    match e {
                        CliError::Usage(msg) | CliError::Runtime(msg) => {
                            eprintln!("snapshot failed: {msg}")
                        }
                    }
                }
            }
        });
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

    let handle = server.shutdown_handle();
    server.run().map_err(rt)?;
    // Whatever stopped the server also stops a still-streaming follower
    // loop (a promoted one has stopped already).
    follower_shutdown.shutdown();
    // A follower finishes applying its in-flight segment before the
    // final snapshot is cut, and reports how far it got.
    if let Some((join, status)) = follower_thread {
        match join.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => eprintln!("follower stream failed: {e}"),
            Err(_) => eprintln!("follower thread panicked"),
        }
        // A promoted follower may have appended past what the stream
        // applied; the attached log's head is the authoritative offset.
        let final_offset = engine.replication().map_or(status.applied(), |l| l.head());
        handle.record_final_offset(final_offset);
        seq.store(final_offset, Ordering::Relaxed);
    }
    if let Some(store) = &store {
        let state = if engine.replication().is_some() {
            snapshot_at_head(&engine).map_err(rt)?
        } else {
            let s = if following {
                seq.load(Ordering::Relaxed)
            } else {
                seq.fetch_add(1, Ordering::Relaxed) + 1
            };
            EngineState::capture(&engine, s)
        };
        let path = store.save(&state).map_err(rt)?;
        eprintln!("snapshot seq {} -> {}", state.seq, path.display());
    }
    if let Some(offset) = handle.final_offset() {
        eprintln!("final journal offset {offset}");
    }
    log_stats(&engine);
    Ok(ExitCode::SUCCESS)
}

fn cmd_bench(args: &[String]) -> Result<ExitCode, CliError> {
    let o = parse_flags_only("bench", args)?;
    let opts = LoadOptions {
        batch: o.batch,
        frames: o.frames,
        nodes: o.nodes,
        retry: !o.no_retry,
        ..LoadOptions::default()
    };
    let (report, scrape_addr) = match &o.addr {
        Some(addr) => (run_load(addr.as_str(), &opts).map_err(rt)?, addr.clone()),
        None => {
            // Self-hosted: spin the engine up on a loopback ephemeral port
            // so `csp-served bench` measures the full service stack.
            let engine = build_engine(&o, "last(pid+pc8)1[direct]")?;
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
    if let Some(out) = &o.metrics_out {
        let mut client = Client::connect_tcp(scrape_addr.as_str())
            .map_err(|e| rt(format!("connect {scrape_addr}: {e}")))?;
        let text = client.metrics().map_err(rt)?;
        trace_io::write_file_atomically(std::path::Path::new(out), text.as_bytes())
            .map_err(|e| rt(format!("write {out}: {e}")))?;
        eprintln!("wrote metrics scrape to {out}");
    }
    if o.json {
        println!("{}", report.to_json());
    } else {
        println!("{report}");
    }
    Ok(ExitCode::SUCCESS)
}

/// `push` — replay a slice of a recorded trace into a replicated leader
/// over `Ingest` frames, as a remote trace producer would.
fn cmd_push(args: &[String]) -> Result<ExitCode, CliError> {
    let o = parse_options(args)?;
    let addr = o
        .addr
        .as_deref()
        .ok_or_else(|| usage_err("push needs --addr"))?;
    let spec = o
        .scheme
        .as_deref()
        .ok_or_else(|| usage_err("push needs --scheme (the leader's scheme)"))?;
    let scheme = parse_scheme(spec)?;
    let [path] = o.positional.as_slice() else {
        return Err(usage_err("push takes exactly one <trace.csptrc>"));
    };
    let trace = load_trace(path)?;
    let prepared = PreparedTrace::new(&trace);
    let total = prepared.len();
    let from = o.from_event.min(total);
    let to = o.to_event.unwrap_or(total).min(total);
    if from > to {
        return Err(usage_err(format!(
            "--from-event {from} is past --to-event {to}"
        )));
    }
    let fp = replication::fingerprint(&scheme, trace.nodes());
    let mut client = Client::connect_tcp(addr).map_err(|e| rt(format!("connect {addr}: {e}")))?;
    client
        .set_timeouts(Some(Duration::from_secs(30)), Some(Duration::from_secs(30)))
        .map_err(rt)?;
    // Derive and send in bounded chunks so an arbitrarily long trace
    // never materializes as one giant op vector.
    const CHUNK: usize = 8192;
    let mut sent = 0usize;
    let mut head = 0u64;
    let mut pos = from;
    while pos < to {
        let end = (pos + CHUNK).min(to);
        let ops = trace_to_ops(&prepared, &scheme, pos..end);
        sent += ops.len();
        head = client.ingest_at_epoch(fp, o.epoch, &ops).map_err(rt)?;
        pos = end;
    }
    if from == to {
        // Nothing to send: still validate the fingerprint (and epoch)
        // and report the leader's head.
        head = client.ingest_at_epoch(fp, o.epoch, &[]).map_err(rt)?;
    }
    println!("pushed {sent} ops from {path} (events [{from}..{to})); leader head {head}");
    Ok(ExitCode::SUCCESS)
}

/// `promote` — make a follower the new leader, over the wire. The
/// replica bumps its fencing epoch to at least `--min-epoch` (always
/// past its current term), stops streaming, re-parents the fleet via
/// the shared address file, and starts accepting writes; the deposed
/// leader's pushes are refused as `fenced` from then on. `--scheme` and
/// `--nodes` must match the replica's (they form the fingerprint).
fn cmd_promote(args: &[String]) -> Result<ExitCode, CliError> {
    let o = parse_flags_only("promote", args)?;
    let addr = o
        .addr
        .as_deref()
        .ok_or_else(|| usage_err("promote needs --addr"))?;
    let spec = o
        .scheme
        .as_deref()
        .ok_or_else(|| usage_err("promote needs --scheme (the replica's scheme)"))?;
    let scheme = parse_scheme(spec)?;
    let fp = replication::fingerprint(&scheme, o.nodes);
    let mut client = Client::connect_tcp(addr).map_err(|e| rt(format!("connect {addr}: {e}")))?;
    client
        .set_timeouts(Some(Duration::from_secs(10)), Some(Duration::from_secs(10)))
        .map_err(rt)?;
    let (epoch, head) = client.promote(fp, o.min_epoch).map_err(rt)?;
    println!("promoted {addr}: epoch {epoch}, journal head {head}");
    Ok(ExitCode::SUCCESS)
}

fn cmd_metrics(args: &[String]) -> Result<ExitCode, CliError> {
    let o = parse_flags_only("metrics", args)?;
    let addr = o
        .addr
        .as_deref()
        .ok_or_else(|| usage_err("metrics needs --addr"))?;
    let mut client = Client::connect_tcp(addr).map_err(|e| rt(format!("connect {addr}: {e}")))?;
    client
        .set_timeouts(Some(Duration::from_secs(10)), Some(Duration::from_secs(10)))
        .map_err(rt)?;
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

fn cmd_top(args: &[String]) -> Result<ExitCode, CliError> {
    let o = parse_flags_only("top", args)?;
    let addr = o
        .addr
        .as_deref()
        .ok_or_else(|| usage_err("top needs --addr"))?;
    let mut client = Client::connect_tcp(addr).map_err(|e| rt(format!("connect {addr}: {e}")))?;
    client
        .set_timeouts(Some(Duration::from_secs(10)), Some(Duration::from_secs(10)))
        .map_err(rt)?;
    let every = Duration::from_secs(o.every);
    #[allow(clippy::cast_precision_loss)]
    let secs = o.every as f64;
    let mut prev = csp_obs::parse_text(&client.metrics().map_err(rt)?);
    let mut remaining = o.count;
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

fn cmd_replay(args: &[String]) -> Result<ExitCode, CliError> {
    let o = parse_options(args)?;
    let spec = o
        .scheme
        .as_deref()
        .ok_or_else(|| usage_err("replay needs --scheme"))?;
    let scheme = parse_scheme(spec)?;
    if o.positional.is_empty() {
        return Err(usage_err("replay needs at least one <trace.csptrc>"));
    }
    if (o.snapshot_dir.is_some() || o.restore) && o.positional.len() != 1 {
        return Err(usage_err(
            "snapshotted replay takes exactly one trace (snapshots mark a position in it)",
        ));
    }
    if o.restore && o.snapshot_dir.is_none() {
        return Err(usage_err("--restore needs --snapshot-dir"));
    }
    let store = match &o.snapshot_dir {
        Some(dir) => Some(SnapshotStore::open(dir).map_err(rt)?),
        None => None,
    };

    let mut diverged = false;
    for path in &o.positional {
        let trace = load_trace(path)?;
        let prepared = PreparedTrace::new(&trace);
        let total = prepared.len();

        // Fresh engine, or resume from the newest snapshot's position.
        let mut start = 0usize;
        let engine = match (&store, o.restore) {
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
                None => ShardedEngine::new(scheme, trace.nodes(), o.shards),
            },
            _ => ShardedEngine::new(scheme, trace.nodes(), o.shards),
        };

        // Replay in snapshot-bounded chunks. Each replay_range flushes, so
        // a snapshot taken between chunks is an exact prefix cut.
        let chunk = if store.is_some() {
            o.snapshot_every_events
        } else {
            total.saturating_sub(start).max(1)
        };
        let mut pos = start;
        while pos < total {
            let end = (pos + chunk).min(total);
            engine.replay_range(&prepared, pos..end).map_err(rt)?;
            pos = end;
            if let Some(m) = o.crash_after {
                // Hard-kill simulation: die *before* persisting this
                // chunk, exactly like a power cut mid-interval. Recovery
                // must re-earn everything after the last durable snapshot.
                if pos >= m {
                    eprintln!("injected crash at event {pos}");
                    std::process::abort();
                }
            }
            if let Some(store) = &store {
                save_snapshot(store, &engine, pos as u64)?;
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

        if let Some(out) = &o.stats_out {
            let c = online.confusion;
            let body = format!(
                "tp {}\nfp {}\ntn {}\nfn {}\nupdates {}\nscored {}\n",
                c.tp, c.fp, c.tn, c.fn_, online.updates, online.scored
            );
            trace_io::write_file_atomically(std::path::Path::new(out), body.as_bytes())
                .map_err(|e| rt(format!("write {out}: {e}")))?;
        }
    }
    if diverged {
        Err(rt("online replay diverged from the offline reference"))
    } else {
        Ok(ExitCode::SUCCESS)
    }
}

fn cmd_snapshot(args: &[String]) -> Result<ExitCode, CliError> {
    let [dir] = args else {
        return Err(usage_err("snapshot takes exactly one <DIR>"));
    };
    let store = SnapshotStore::open(dir.as_str()).map_err(rt)?;
    match store.load_latest().map_err(rt)? {
        Some((state, path)) => {
            let entries: usize = state.shards.iter().map(|s| s.table.entries().count()).sum();
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

fn cmd_audit(args: &[String]) -> Result<ExitCode, CliError> {
    match args.first().map(String::as_str) {
        Some("verify") => cmd_audit_verify(&args[1..]),
        Some("record") => cmd_audit_record(&args[1..]),
        Some("tail") => cmd_audit_tail(&args[1..]),
        _ => Err(usage_err(
            "audit needs a subcommand: verify, record, or tail",
        )),
    }
}

/// `audit verify` — replay the recorded trace through an offline twin
/// and prove the logged decisions byte-identical. Exit 1 on the first
/// divergence (with a field-level diff), on a corrupt log, or on a
/// version-fingerprint mismatch. With `--snapshot-dir`, the twin's end
/// state must also match the newest (shutdown) snapshot.
fn cmd_audit_verify(args: &[String]) -> Result<ExitCode, CliError> {
    let o = parse_options(args)?;
    let spec = o
        .scheme
        .as_deref()
        .ok_or_else(|| usage_err("audit verify needs --scheme (the recording engine's)"))?;
    let scheme = parse_scheme(spec)?;
    let log_path = o
        .log
        .as_deref()
        .ok_or_else(|| usage_err("audit verify needs --log <audit.cspaud>"))?;
    let [trace_path] = o.positional.as_slice() else {
        return Err(usage_err("audit verify takes exactly one <trace.csptrc>"));
    };
    let trace = load_trace(trace_path)?;
    let prepared = PreparedTrace::new(&trace);
    let expected_fp = csp_core::version_fingerprint(&scheme, trace.nodes());
    let file = File::open(log_path).map_err(|e| rt(format!("open {log_path}: {e}")))?;
    let log = csp_trace::audit::read_audit_log(BufReader::new(file), Some(expected_fp))
        .map_err(|e| rt(format!("read {log_path}: {e}")))?;
    let final_state = match &o.snapshot_dir {
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
fn cmd_audit_record(args: &[String]) -> Result<ExitCode, CliError> {
    let o = parse_options(args)?;
    let spec = o
        .scheme
        .as_deref()
        .ok_or_else(|| usage_err("audit record needs --scheme"))?;
    let scheme = parse_scheme(spec)?;
    let log_path = o
        .log
        .as_deref()
        .ok_or_else(|| usage_err("audit record needs --log <audit.cspaud>"))?;
    let [trace_path] = o.positional.as_slice() else {
        return Err(usage_err("audit record takes exactly one <trace.csptrc>"));
    };
    let trace = load_trace(trace_path)?;
    let engine = ShardedEngine::new(scheme, trace.nodes(), o.shards);
    let sink =
        csp_serve::audit::attach_file_sink(&engine, std::path::Path::new(log_path), o.audit_sample)
            .map_err(rt)?;
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
fn cmd_audit_tail(args: &[String]) -> Result<ExitCode, CliError> {
    let o = parse_options(args)?;
    let addr = o
        .addr
        .as_deref()
        .ok_or_else(|| usage_err("audit tail needs --addr"))?;
    let mut client = Client::connect_tcp(addr).map_err(|e| rt(format!("connect {addr}: {e}")))?;
    client
        .set_timeouts(Some(Duration::from_secs(10)), Some(Duration::from_secs(10)))
        .map_err(rt)?;
    let stats = client.stats().map_err(rt)?;
    let from = o.from.unwrap_or(u64::MAX);
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
            match o.count {
                Some(n) => seen < n,
                None => true,
            }
        })
        .map_err(rt)?;
    Ok(ExitCode::SUCCESS)
}
