//! The served workloads: an in-process `csp_serve::Server` on loopback
//! TCP, driven by the open-loop generator.
//!
//! * `serve_query` warms a two-shard engine with the whole suite, then
//!   offers `PredictBatch` frames of probes drawn from the traces' events
//!   at a fixed ladder of rates. Read-only: no journal, no audit.
//! * `serve_ingest` starts a fresh replicating leader per trace (durable
//!   journal, audit log sampling 1/64), pushes the trace's operations as
//!   `Ingest` frames on one connection, one at a time, and offers query
//!   frames on a second connection at a fixed rate meanwhile.
//!
//! Every answer is checked: query answers against a one-shard engine
//! warmed the same way, ingest runs against the offline engine
//! (`engine::run_scheme`), the audit log with `verify_log`, and the
//! recovered journal against the operations sent.

use crate::loadgen::{self, Load, Outcome, Percentiles, Verdict};
use crate::offline;
use crate::report::Report;
use crate::sampler::{self, Sampler};
use crate::spans::Recorder;
use crate::stats::{median, quantile, Digest, Rng};
use crate::{span_metrics, Args, Setup, OUT_DIR, PASS_QUANTILE};
use csp_core::engine;
use csp_core::{PreparedTrace, Scheme};
use csp_harness::runner::Suite;
use csp_metrics::ConfusionMatrix;
use csp_serve::replication::{self, trace_to_ops};
use csp_serve::server::answer;
use csp_serve::wire::{self, Request, Response};
use csp_serve::{
    JournalStore, Probe, ReplOp, ReplicationLog, Server, ServerOptions, ShardedEngine,
    ShutdownHandle,
};
use csp_trace::SharingBitmap;
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The served scheme.
const SCHEME: &str = "union(pid+pc8)2[forwarded]";
/// Shards of every served engine.
const SHARDS: usize = 2;
/// Probes per query frame.
const BATCH: usize = 64;
/// Distinct query frames a stream cycles through.
const POOL: usize = 512;
/// Suite scale of both served workloads.
const SERVE_SCALE: f64 = 1.0;
/// The rate `serve_query` reports latencies at, probes per second: a
/// rung of the ladder at about a fifth of the saturated rate, so the
/// server is neither idle between frames nor queueing.
const MIDDLE_PPS: f64 = LADDER_PPS[2];
/// Query frames of one steady stream at the middle rate (0.66 s).
const STEADY_FRAMES: u64 = 4096;
/// Query frames sent back to back to measure saturated throughput.
const BURST_FRAMES: u64 = 8192;
/// Fewest measured passes, however short the window.
const MIN_PASSES: usize = 3;
/// The traced run's ladder of offered load, probes per second.
const LADDER_PPS: [f64; 9] = [
    100e3, 200e3, 400e3, 800e3, 1200e3, 1600e3, 2000e3, 2400e3, 2800e3,
];
/// Seconds each ladder rung offers its rate.
const RUNG_S: f64 = 0.4;
/// A ladder rung meets the limit when its p90 latency is at most this.
const LIMIT_US: f64 = 1000.0;
/// Operations per `Ingest` frame.
const INGEST_OPS: usize = 4096;
/// Offered query load during `serve_ingest`, probes per second.
const INGEST_QUERY_PPS: f64 = 64e3;
/// The audit log keeps one decision key in this many.
const AUDIT_SAMPLE: u32 = 64;
/// Repeats of each ingest variant in the traced breakdown.
const BREAKDOWN_REPS: usize = 5;

fn scheme() -> Scheme {
    SCHEME.parse().expect("the served scheme parses")
}

/// Server options for a benchmark host: short deadlines, so a stop never
/// waits on an idle connection.
fn options() -> ServerOptions {
    ServerOptions {
        read_timeout: Some(Duration::from_millis(200)),
        write_timeout: Some(Duration::from_secs(5)),
        error_budget: 8,
        drain_timeout: Duration::from_secs(2),
    }
}

/// A running server around an engine.
struct Host {
    engine: Arc<ShardedEngine>,
    addr: SocketAddr,
    shutdown: ShutdownHandle,
    thread: Option<JoinHandle<std::io::Result<()>>>,
}

impl Host {
    fn start(engine: ShardedEngine) -> Result<Host, String> {
        let engine = Arc::new(engine);
        let server = Server::bind_tcp("127.0.0.1:0", Arc::clone(&engine))
            .map_err(|e| format!("bind: {e}"))?
            .with_options(options());
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        let shutdown = server.shutdown_handle();
        let thread = std::thread::spawn(move || server.run());
        Ok(Host {
            engine,
            addr,
            shutdown,
            thread: Some(thread),
        })
    }

    /// A connection the server has accepted (a ping has round-tripped).
    fn connect(&self) -> Result<TcpStream, String> {
        let stream = TcpStream::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        match round_trip(&stream, &Request::Ping)? {
            Response::Pong => Ok(stream),
            other => Err(format!("ping answered with {other:?}")),
        }
    }

    /// A metrics scrape over the wire.
    fn scrape(&self) -> Result<Vec<csp_obs::Sample>, String> {
        match round_trip(&self.connect()?, &Request::Metrics)? {
            Response::Metrics(text) => Ok(csp_obs::parse_text(&text)),
            other => Err(format!("metrics answered with {other:?}")),
        }
    }

    fn stop(&mut self) {
        self.shutdown.shutdown();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Host {
    fn drop(&mut self) {
        self.stop();
    }
}

fn round_trip(stream: &TcpStream, request: &Request) -> Result<Response, String> {
    let mut w = stream.try_clone().map_err(|e| e.to_string())?;
    wire::write_request(&mut w, request).map_err(|e| format!("send: {e}"))?;
    let mut r = stream.try_clone().map_err(|e| e.to_string())?;
    wire::read_response(&mut r).map_err(|e| format!("reply: {e}"))
}

fn nodes(suite: &Suite) -> Result<usize, String> {
    let n = suite.traces()[0].trace.nodes();
    if suite.traces().iter().any(|b| b.trace.nodes() != n) {
        return Err("the suite's traces differ in machine width".to_string());
    }
    Ok(n)
}

/// `frames` query frames of `BATCH` probes, each probe the `(pid, pc,
/// dir, addr)` of an event drawn uniformly from `traces`.
fn probe_frames(suite: &Suite, traces: &[usize], rng: &mut Rng, frames: usize) -> Vec<Vec<Probe>> {
    let events: Vec<&csp_trace::SharingEvent> = traces
        .iter()
        .flat_map(|&t| suite.traces()[t].trace.events())
        .collect();
    (0..frames)
        .map(|_| {
            (0..BATCH)
                .map(|_| {
                    let e = events[rng.below(events.len())];
                    Probe::new(e.writer, e.pc, e.home, e.line)
                })
                .collect()
        })
        .collect()
}

fn framed_queries(probes: &[Vec<Probe>]) -> Vec<Vec<u8>> {
    probes
        .iter()
        .map(|p| loadgen::frame(&Request::PredictBatch(p.clone())))
        .collect()
}

/// Sum of one labelled counter family, per label value of `label`.
fn per_label(samples: &[csp_obs::Sample], names: &[&str], label: &str) -> Vec<u64> {
    let mut out: Vec<u64> = Vec::new();
    for s in samples.iter().filter(|s| names.contains(&s.name.as_str())) {
        if let Some(i) = s.label(label).and_then(|v| v.parse::<usize>().ok()) {
            if out.len() <= i {
                out.resize(i + 1, 0);
            }
            out[i] += s.value_u64().unwrap_or(0);
        }
    }
    out
}

/// Max over mean of per-shard totals (1 is perfectly even).
fn imbalance(per_shard: &[u64]) -> f64 {
    let total: u64 = per_shard.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let max = per_shard.iter().copied().max().unwrap_or(0);
    max as f64 * per_shard.len() as f64 / total as f64
}

/// Bytes of the journal files under `dir`.
fn journal_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir).map_or(0, |entries| {
        entries
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().ends_with(".cspjrnl"))
            .filter_map(|e| e.metadata().ok())
            .map(|m| m.len())
            .sum()
    })
}

/// A scratch directory of this run, inside the working directory.
fn scratch_dir(args: &Args) -> PathBuf {
    Path::new(OUT_DIR).join(format!(
        "tmp-{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ))
}

// ---------------------------------------------------------------- query

/// The warmed two-shard engine behind `serve_query`, with its host.
fn warmed_host(suite: &Suite, scheme: &Scheme) -> Result<Host, String> {
    let engine = ShardedEngine::new(*scheme, nodes(suite)?, SHARDS);
    for b in suite.traces() {
        engine.replay_trace(&b.trace).map_err(|e| e.to_string())?;
    }
    Host::start(engine)
}

/// What one `serve_query` pass measured: a steady stream at the middle
/// rate, then a back-to-back burst.
struct QueryPass {
    traced: bool,
    steady: Percentiles,
    steady_out: Outcome,
    saturated_pps: f64,
    frames: u64,
}

fn query_pass(
    host: &Host,
    frames: &[Vec<u8>],
    check: &(dyn Fn(usize, &Response) -> Verdict + Sync),
    rec: &Recorder,
    traced: bool,
) -> Result<QueryPass, String> {
    let root = rec.span("pass", 0);
    let steady_out = {
        let stream = host.connect()?;
        let _s = rec.span("loadgen.steady", root.id());
        loadgen::open_loop(
            &stream,
            &Load {
                frames,
                rate: MIDDLE_PPS / BATCH as f64,
                count: STEADY_FRAMES,
                spin: true,
                check,
                until: None,
            },
        )?
    };
    let burst = {
        let stream = host.connect()?;
        let _s = rec.span("loadgen.burst", root.id());
        loadgen::open_loop(
            &stream,
            &Load {
                frames,
                rate: f64::INFINITY,
                count: BURST_FRAMES,
                spin: false,
                check,
                until: None,
            },
        )?
    };
    let answered = (burst.latency_ns.len() as u64 - burst.failed) as f64;
    Ok(QueryPass {
        traced,
        steady: loadgen::percentiles(&steady_out.latency_ns),
        frames: steady_out.late_ns.len() as u64 + burst.late_ns.len() as u64,
        steady_out,
        saturated_pps: answered * BATCH as f64 / (burst.last_reply_ns.max(1) as f64 / 1e9),
    })
}

/// The ladder: each rate in turn until the p90 latency passes the limit.
/// Returns the rate at which it crosses the limit, interpolated between
/// the last rung under it and the first over it (log latency against
/// rate).
fn ladder(
    host: &Host,
    frames: &[Vec<u8>],
    check: &(dyn Fn(usize, &Response) -> Verdict + Sync),
) -> Result<f64, String> {
    let mut p90s: Vec<f64> = Vec::new();
    for &pps in &LADDER_PPS {
        let outcome = loadgen::open_loop(
            &host.connect()?,
            &Load {
                frames,
                rate: pps / BATCH as f64,
                count: (pps / BATCH as f64 * RUNG_S) as u64,
                spin: true,
                check,
                until: None,
            },
        )?;
        p90s.push(loadgen::percentiles(&outcome.latency_ns).p90_us);
        if p90s[p90s.len() - 1] > LIMIT_US {
            break;
        }
    }
    eprintln!(
        "[perfbench] ladder {:?} probes/s: p90 {:?} us",
        &LADDER_PPS[..p90s.len()],
        p90s.iter().map(|p| p.round()).collect::<Vec<_>>()
    );
    Ok(match p90s.iter().position(|&p| p > LIMIT_US) {
        None => LADDER_PPS[p90s.len() - 1],
        Some(0) => LADDER_PPS[0] * LIMIT_US / p90s[0],
        Some(i) => {
            let (lo, hi) = (p90s[i - 1], p90s[i]);
            let (r_lo, r_hi) = (LADDER_PPS[i - 1], LADDER_PPS[i]);
            if !hi.is_finite() {
                return Ok(r_lo);
            }
            let f = (LIMIT_US.ln() - lo.ln()) / (hi.ln() - lo.ln());
            r_lo + (r_hi - r_lo) * f.clamp(0.0, 1.0)
        }
    })
}

/// `serve_query`: open-loop `PredictBatch` frames against a warmed
/// two-shard server: a steady stream at the middle rate for latency,
/// then a back-to-back burst for throughput, repeated.
pub fn serve_query(args: &Args) -> Result<Report, String> {
    let scheme = scheme();
    let scale = args.scale.unwrap_or(SERVE_SCALE);
    let ((suite, host, generate_s), mut setup) = Setup::first(|| {
        let (suite, generate_s) = offline::generate(scale, args.seed)?;
        let host = warmed_host(&suite, &scheme)?;
        Ok((suite, host, generate_s))
    })?;

    // Correctness, before any timing.
    let reference = reference_engine(&suite, &scheme)?;
    let all: Vec<usize> = (0..suite.traces().len()).collect();
    let probes = probe_frames(&suite, &all, &mut Rng::new(args.seed ^ 0x5e7e), POOL);
    let mut expected: Vec<Vec<SharingBitmap>> =
        probes.iter().map(|p| reference.predict_batch(p)).collect();
    drop(reference);
    if args.corrupt_expected {
        expected[0][0] = SharingBitmap::from_bits(expected[0][0].bits() ^ 1);
    }
    for (p, want) in probes.iter().zip(&expected) {
        match answer(&host.engine, Request::PredictBatch(p.clone())) {
            Response::PredictionBatch(got) if &got == want => {}
            other => return Err(format!("server::answer gave {other:?}, expected {want:?}")),
        }
    }
    let mut digest = Digest::default();
    for want in &expected {
        for b in want {
            digest.u64(b.bits());
        }
    }
    eprintln!(
        "[perfbench] serve_query seed {}: answer digest {:016x} over {} frames of {BATCH}",
        args.seed,
        digest.value(),
        expected.len()
    );
    let frames = framed_queries(&probes);
    let check = |i: usize, reply: &Response| match reply {
        Response::PredictionBatch(got) if *got == expected[i] => Verdict::Answered,
        Response::PredictionBatch(got) => Verdict::Wrong(format!(
            "query frame {i}: served {got:?}, the one-shard engine answers {:?}",
            expected[i]
        )),
        Response::Error(_) => Verdict::Failed,
        other => Verdict::Wrong(format!("query frame {i} answered with {other:?}")),
    };

    let rec = Recorder::new();
    let sampler = args.trace.then(Sampler::start);
    if let Some(s) = &sampler {
        s.watch(sampler::queue_gauges(&host.engine));
    }
    let mut report = Report::new();
    let deadline = Instant::now() + args.window();
    let mut passes: Vec<QueryPass> = Vec::new();
    let min = if args.trace {
        2 * MIN_PASSES
    } else {
        MIN_PASSES
    };
    while passes.len() < min || Instant::now() < deadline {
        let traced = args.trace && passes.len() % 2 == 1;
        rec.set_enabled(traced);
        if let Some(s) = &sampler {
            s.set_on(traced);
        }
        let pass = query_pass(&host, &frames, &check, &rec, traced)?;
        rec.set_enabled(false);
        if let Some(s) = &sampler {
            s.set_on(false);
        }
        report.count(pass.frames, pass.steady_out.failed);
        passes.push(pass);
        setup.again()?;
    }
    let setup_s = setup.median()?;
    let pick = |traced: bool, f: fn(&QueryPass) -> f64| -> Vec<f64> {
        passes
            .iter()
            .filter(|p| p.traced == traced)
            .map(f)
            .collect()
    };
    let p50s = pick(false, |p| p.steady.p50_us);
    let p90s = pick(false, |p| p.steady.p90_us);
    let rates = pick(false, |p| p.saturated_pps);
    eprintln!(
        "[perfbench] serve_query: {} passes; at {MIDDLE_PPS} probes/s p50 {:?} us, p90 {:?} us; saturated {:?} probes/s",
        p50s.len(),
        p50s.iter().map(|v| v.round()).collect::<Vec<_>>(),
        p90s.iter().map(|v| v.round()).collect::<Vec<_>>(),
        rates.iter().map(|v| v.round()).collect::<Vec<_>>(),
    );
    if !args.trace {
        report.set("setup_s", setup_s);
        report.set("throughput_per_s", quantile(&rates, 1.0 - PASS_QUANTILE));
        report.set("latency_us", quantile(&p50s, PASS_QUANTILE));
        report.set("tail_latency_us", quantile(&p90s, PASS_QUANTILE));
        return Ok(report);
    }

    // Traced: the traced passes' generator figures, the ladder, then the
    // breakdown.
    let traced = passes.iter().find(|p| p.traced).expect("a traced pass");
    let sampler = sampler.expect("traced");
    report.set("workloads.generate_s", generate_s);
    report.set("workloads.events", offline::events(&suite) as f64);
    report.set("process.peak_rss_mb", crate::stats::peak_rss_mb());
    report.set("loadgen.frames", traced.frames as f64);
    report.set("loadgen.samples", traced.steady.count as f64);
    report.set("loadgen.p99_us", traced.steady.tail_us);
    report.set(
        "loadgen.late_p99_us",
        loadgen::percentiles(&traced.steady_out.late_ns).tail_us,
    );
    report.set(
        "trace.overhead_frac",
        median(&pick(false, |p| p.saturated_pps)) / median(&pick(true, |p| p.saturated_pps)) - 1.0,
    );
    report.set("trace.runs", passes.len() as f64);
    report.set("shard.queue_depth_max", sampler.depth_max() as f64);
    report.set("serve.shard_threads", sampler.shard_threads() as f64);
    drop(sampler);
    report.set("loadgen.capacity_pps", ladder(&host, &frames, &check)?);

    rec.set_enabled(true);
    let root = rec.span("breakdown", 0);
    let requests: Vec<Request> = probes
        .iter()
        .map(|p| Request::PredictBatch(p.clone()))
        .collect();
    let responses: Vec<Response> = expected
        .iter()
        .map(|e| Response::PredictionBatch(e.clone()))
        .collect();
    let keys: Vec<Vec<u64>> = probes
        .iter()
        .map(|p| p.iter().map(|probe| host.engine.key_of(probe)).collect())
        .collect();
    let per_frame = codec_and_answer(&rec, root.id(), &host.engine, &requests, &responses);
    let query_s = {
        let _s = rec.span("shard.query", root.id());
        let t = Instant::now();
        for k in &keys {
            let _ = host.engine.predict_keys(k);
        }
        t.elapsed().as_secs_f64()
    };
    let rtt = {
        let stream = host.connect()?;
        let _s = rec.span("client.rtt", root.id());
        loadgen::closed_loop(&stream, &frames, &check)?
    };
    drop(root);
    rec.set_enabled(false);
    let n = requests.len() as f64;
    let rtt_us = loadgen::percentiles(&rtt.latency_ns).p50_us;
    report.set("wire.encode_us", per_frame.encode_us);
    report.set("wire.decode_us", per_frame.decode_us);
    report.set("server.answer_us", per_frame.answer_us);
    report.set("shard.query_us", query_s * 1e6 / n);
    report.set("client.rtt_us", rtt_us);
    report.set(
        "client.socket_us",
        rtt_us - per_frame.answer_us - per_frame.encode_us - per_frame.decode_us,
    );
    let scrape = host.scrape()?;
    served_counters(&mut report, &scrape, &["csp_shard_queries_total"]);
    // Whatever the served engine journaled: nothing, since no log is
    // attached on this read-only path.
    let journaled = host.engine.replication().map_or(0, |log| log.head());
    report.set(
        "replication.journal_bytes",
        (journaled * replication::REPL_OP_LEN as u64) as f64,
    );
    // The closed-loop round trip the breakdown takes apart, against the
    // untraced frame latency at the steady rate.
    span_metrics(&mut report, &rec, args, rtt_us / median(&p50s))?;
    Ok(report)
}

/// The per-frame costs of the codec and of `server::answer`, without a
/// socket.
struct FrameCosts {
    encode_us: f64,
    decode_us: f64,
    answer_us: f64,
}

fn codec_and_answer(
    rec: &Recorder,
    parent: u64,
    engine: &ShardedEngine,
    requests: &[Request],
    responses: &[Response],
) -> FrameCosts {
    let n = requests.len() as f64;
    let timed = |name: &'static str, f: &mut dyn FnMut()| {
        let _s = rec.span(name, parent);
        let t = Instant::now();
        f();
        t.elapsed().as_secs_f64() * 1e6 / n
    };
    let mut encoded = Vec::with_capacity(requests.len());
    let encode_us = timed("wire.encode", &mut || {
        encoded = requests
            .iter()
            .zip(responses)
            .map(|(q, r)| (wire::encode_request(q), wire::encode_response(r)))
            .collect();
    });
    let decode_us = timed("wire.decode", &mut || {
        for (q, r) in &encoded {
            let _ = wire::decode_request(q);
            let _ = wire::decode_response(r);
        }
    });
    let owned: Vec<Request> = requests.to_vec();
    let answer_us = {
        let mut owned = owned.into_iter();
        timed("server.answer", &mut || {
            for q in owned.by_ref() {
                let _ = answer(engine, q);
            }
        })
    };
    FrameCosts {
        encode_us,
        decode_us,
        answer_us,
    }
}

/// Wire, shard and audit figures from a metrics scrape of the server.
fn served_counters(report: &mut Report, scrape: &[csp_obs::Sample], shard_ops: &[&str]) {
    report.set(
        "wire.frames",
        csp_obs::sum_counter(scrape, "csp_wire_frames_total") as f64,
    );
    report.set(
        "wire.errors",
        csp_obs::sum_counter(scrape, "csp_wire_errors_total") as f64,
    );
    report.set(
        "shard.imbalance",
        imbalance(&per_label(scrape, shard_ops, "shard")),
    );
    report.set(
        "audit.records",
        csp_obs::sum_counter(scrape, "csp_audit_records_total") as f64,
    );
    report.set(
        "audit.bytes",
        csp_obs::sum_counter(scrape, "csp_audit_bytes_total") as f64,
    );
}

/// A one-shard engine warmed like the served one: the reference the
/// served answers must equal. Its statistics after the first trace must
/// equal the offline engine's.
fn reference_engine(suite: &Suite, scheme: &Scheme) -> Result<ShardedEngine, String> {
    let engine = ShardedEngine::new(*scheme, nodes(suite)?, 1);
    for (i, b) in suite.traces().iter().enumerate() {
        engine.replay_trace(&b.trace).map_err(|e| e.to_string())?;
        if i == 0 {
            let offline = engine::run_scheme(&b.trace, scheme);
            if engine.stats().confusion != offline {
                return Err(format!(
                    "{scheme} on {}: the engine gave {:?}, run_scheme gives {offline:?}",
                    b.benchmark,
                    engine.stats().confusion
                ));
            }
        }
    }
    Ok(engine)
}

// --------------------------------------------------------------- ingest

/// One trace's ingest work, prepared in set-up.
struct TraceWork {
    name: String,
    events: u64,
    ops: Vec<ReplOp>,
    frames: Vec<Vec<u8>>,
    /// The head each `IngestAck` must carry.
    heads: Vec<u64>,
    queries: Vec<Vec<u8>>,
}

fn prepare(suite: &Suite, scheme: &Scheme, seed: u64) -> Result<Vec<TraceWork>, String> {
    let fingerprint = replication::fingerprint(scheme, nodes(suite)?);
    let mut rng = Rng::new(seed ^ 0x1a9e);
    let mut out = Vec::new();
    for (t, b) in suite.traces().iter().enumerate() {
        let prepared = PreparedTrace::new(&b.trace);
        let ops = trace_to_ops(&prepared, scheme, 0..prepared.len());
        let mut heads = Vec::new();
        let frames = ops
            .chunks(INGEST_OPS)
            .map(|chunk| {
                heads.push(heads.last().copied().unwrap_or(0) + chunk.len() as u64);
                loadgen::frame(&Request::Ingest {
                    fingerprint,
                    epoch: 0,
                    ops: chunk.to_vec(),
                })
            })
            .collect();
        let queries = framed_queries(&probe_frames(suite, &[t], &mut rng, POOL / 4));
        out.push(TraceWork {
            name: b.benchmark.to_string(),
            events: b.trace.len() as u64,
            ops,
            frames,
            heads,
            queries,
        });
    }
    Ok(out)
}

/// A fresh replicating leader in `dir`: durable journal, audit file.
fn leader(
    dir: &Path,
    scheme: &Scheme,
    nodes: usize,
) -> Result<(Host, Arc<ReplicationLog>), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let fingerprint = replication::fingerprint(scheme, nodes);
    let store = JournalStore::open(dir.join("journal"), fingerprint).map_err(|e| e.to_string())?;
    let recovered = store.recover_all().map_err(|e| e.to_string())?;
    let log = ReplicationLog::durable(store, &recovered).map_err(|e| e.to_string())?;
    let engine = ShardedEngine::new(*scheme, nodes, SHARDS);
    engine
        .attach_replication(Arc::clone(&log))
        .map_err(|e| e.to_string())?;
    let sink = csp_serve::audit::attach_file_sink(&engine, &dir.join("audit.log"), AUDIT_SAMPLE)
        .map_err(|e| e.to_string())?;
    sink.set_epoch(log.epoch());
    sink.bind_metrics(engine.registry());
    Ok((Host::start(engine)?, log))
}

/// What one trace's ingest pass measured.
struct IngestPass {
    ops: u64,
    producer_s: f64,
    acks: Outcome,
    queries: Outcome,
    audit_records: u64,
    journal_bytes: u64,
    scrape: Vec<csp_obs::Sample>,
}

/// Pushes one trace through a fresh leader while queries run, then
/// checks it. `verify` adds the full audit-log and journal-recovery
/// checks (the first pass of each trace).
#[allow(clippy::too_many_arguments)]
fn ingest_pass(
    dir: &Path,
    suite: &Suite,
    t: usize,
    work: &TraceWork,
    expected: &ConfusionMatrix,
    scheme: &Scheme,
    verify: bool,
    sampler: Option<&Sampler>,
    rec: &Recorder,
) -> Result<IngestPass, String> {
    let (mut host, log) = leader(dir, scheme, nodes(suite)?)?;
    if let Some(s) = sampler {
        s.watch(sampler::queue_gauges(&host.engine));
    }
    let producer = host.connect()?;
    let querier = host.connect()?;
    let done = AtomicBool::new(false);
    let ack_check = |k: usize, reply: &Response| match reply {
        Response::IngestAck { head } if *head == work.heads[k] => Verdict::Answered,
        Response::IngestAck { head } => Verdict::Wrong(format!(
            "{}: ingest frame {k} acked head {head}, expected {}",
            work.name, work.heads[k]
        )),
        Response::Error(_) => Verdict::Failed,
        other => Verdict::Wrong(format!("ingest frame {k} answered with {other:?}")),
    };
    let query_check = |i: usize, reply: &Response| match reply {
        Response::PredictionBatch(got) if got.len() == BATCH => Verdict::Answered,
        Response::Error(_) => Verdict::Failed,
        other => Verdict::Wrong(format!("query frame {i} answered with {other:?}")),
    };
    let root = rec.span("pass", 0);
    let (acks, producer_s, queries) = std::thread::scope(|s| {
        let q = s.spawn(|| {
            loadgen::open_loop(
                &querier,
                &Load {
                    frames: &work.queries,
                    rate: INGEST_QUERY_PPS / BATCH as f64,
                    count: u64::MAX,
                    spin: false,
                    check: &query_check,
                    until: Some(&done),
                },
            )
        });
        let started = Instant::now();
        let acks = {
            let _s = rec.span("client.ingest", root.id());
            loadgen::closed_loop(&producer, &work.frames, &ack_check)
        };
        let producer_s = started.elapsed().as_secs_f64();
        done.store(true, Ordering::SeqCst);
        let queries = q
            .join()
            .unwrap_or_else(|_| Err("query thread panicked".to_string()));
        (acks, producer_s, queries)
    });
    drop(root);
    let (acks, queries) = (acks?, queries?);

    // Stats is a lock-free read of counters the shards publish after
    // each batch: fence with a query round trip to every shard first.
    host.engine.flush();
    let stats = match round_trip(&producer, &Request::Stats)? {
        Response::Stats(s) => s,
        other => return Err(format!("stats answered with {other:?}")),
    };
    if stats.confusion != *expected || stats.scored != work.events {
        return Err(format!(
            "{} over the wire: {:?} over {} scored decisions; run_scheme gives {expected:?} over {}",
            work.name, stats.confusion, stats.scored, work.events
        ));
    }
    if log.head() != work.ops.len() as u64 {
        return Err(format!(
            "{}: journal head {} after {} operations",
            work.name,
            log.head(),
            work.ops.len()
        ));
    }
    let scrape = host.scrape()?;
    let audit_records = host.engine.audit().map_or(0, |s| s.head());
    drop((producer, querier));
    host.stop();
    drop(host);
    drop(log);
    let journal_bytes = journal_bytes(&dir.join("journal"));
    if verify {
        verify_durable(dir, suite, t, work, scheme, audit_records)?;
    }
    Ok(IngestPass {
        ops: work.ops.len() as u64,
        producer_s,
        acks,
        queries,
        audit_records,
        journal_bytes,
        scrape,
    })
}

/// Recovers the journal and verifies the audit log of a finished pass.
fn verify_durable(
    dir: &Path,
    suite: &Suite,
    t: usize,
    work: &TraceWork,
    scheme: &Scheme,
    audit_records: u64,
) -> Result<(), String> {
    let fingerprint = replication::fingerprint(scheme, nodes(suite)?);
    let store = JournalStore::open(dir.join("journal"), fingerprint).map_err(|e| e.to_string())?;
    let recovered = store.recover_all().map_err(|e| e.to_string())?;
    if recovered.head() != work.ops.len() as u64 || recovered.ops != work.ops {
        return Err(format!(
            "{}: the recovered journal holds {} operations, {} were sent",
            work.name,
            recovered.head(),
            work.ops.len()
        ));
    }
    let file = std::fs::File::open(dir.join("audit.log")).map_err(|e| e.to_string())?;
    let log = csp_trace::audit::read_audit_log(std::io::BufReader::new(file), None)
        .map_err(|e| format!("{}: audit log: {e}", work.name))?;
    let prepared = PreparedTrace::new(&suite.traces()[t].trace);
    let verified = csp_serve::verify_log(&log, &prepared, scheme, None, None)
        .map_err(|e| format!("{}: audit log: {e}", work.name))?;
    if verified.checked != audit_records || log.records.len() as u64 != audit_records {
        return Err(format!(
            "{}: verified {} audit records, the sink counted {audit_records}",
            work.name, verified.checked
        ));
    }
    Ok(())
}

/// One round: every trace once, in order.
#[derive(Default)]
struct Round {
    traced: bool,
    ops: u64,
    producer_s: f64,
    events: u64,
    acks: Vec<u64>,
    queries: Vec<u64>,
    late: Vec<u64>,
    audit_records: u64,
    journal_bytes: u64,
    scrapes: Vec<Vec<csp_obs::Sample>>,
}

impl Round {
    fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.producer_s
    }
}

/// `serve_ingest`: a closed-loop producer pushes each trace into a fresh
/// replicating, audited leader while open-loop queries run.
pub fn serve_ingest(args: &Args) -> Result<Report, String> {
    let scheme = scheme();
    let scale = args.scale.unwrap_or(SERVE_SCALE);
    let dir = scratch_dir(args);
    let ((suite, work, generate_s), mut setup) = Setup::first(|| {
        let (suite, generate_s) = offline::generate(scale, args.seed)?;
        let work = prepare(&suite, &scheme, args.seed)?;
        let (host, log) = leader(&dir, &scheme, nodes(&suite)?)?;
        drop((host, log));
        Ok((suite, work, generate_s))
    })?;
    let mut expected: Vec<ConfusionMatrix> = suite
        .traces()
        .iter()
        .map(|b| engine::run_scheme(&b.trace, &scheme))
        .collect();
    if args.corrupt_expected {
        expected[0].tp += 1;
    }

    let rec = Recorder::new();
    let sampler = args.trace.then(Sampler::start);
    let mut report = Report::new();
    let mut audit_counts: Vec<Option<u64>> = vec![None; work.len()];
    let mut rounds: Vec<Round> = Vec::new();
    let deadline = Instant::now() + args.window();
    let min = if args.trace { 2 } else { 1 };
    let result = (|| {
        while rounds.len() < min || Instant::now() < deadline {
            let traced = args.trace && rounds.len() % 2 == 1;
            let mut round = Round {
                traced,
                ..Round::default()
            };
            rec.set_enabled(traced);
            if let Some(s) = &sampler {
                s.set_on(traced);
            }
            for (t, w) in work.iter().enumerate() {
                let pass = ingest_pass(
                    &dir,
                    &suite,
                    t,
                    w,
                    &expected[t],
                    &scheme,
                    audit_counts[t].is_none(),
                    sampler.as_ref(),
                    &rec,
                )?;
                if *audit_counts[t].get_or_insert(pass.audit_records) != pass.audit_records {
                    return Err(format!(
                        "{}: {} audit records, an earlier pass of this seed kept {:?}",
                        w.name, pass.audit_records, audit_counts[t]
                    ));
                }
                report.count(
                    (pass.acks.latency_ns.len() + pass.queries.latency_ns.len()) as u64,
                    pass.acks.failed + pass.queries.failed,
                );
                round.ops += pass.ops;
                round.producer_s += pass.producer_s;
                round.events += w.events;
                round.acks.extend(&pass.acks.latency_ns);
                round.queries.extend(&pass.queries.latency_ns);
                round.late.extend(&pass.queries.late_ns);
                round.audit_records += pass.audit_records;
                round.journal_bytes += pass.journal_bytes;
                round.scrapes.push(pass.scrape);
            }
            rec.set_enabled(false);
            if let Some(s) = &sampler {
                s.set_on(false);
            }
            rounds.push(round);
            setup.again()?;
        }
        setup.median()
    })();
    let _ = std::fs::remove_dir_all(&dir);
    let setup_s = result?;

    let untraced: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();
    let q: Vec<Percentiles> = untraced
        .iter()
        .map(|r| loadgen::percentiles(&r.queries))
        .collect();
    let p50s: Vec<f64> = q.iter().map(|p| p.p50_us).collect();
    let p90s: Vec<f64> = q.iter().map(|p| p.p90_us).collect();
    let rates: Vec<f64> = untraced.iter().map(|r| r.ops_per_s()).collect();
    let mut digest = Digest::default();
    for (e, a) in expected.iter().zip(&audit_counts) {
        digest.matrix(e);
        digest.u64(a.unwrap_or(0));
    }
    eprintln!(
        "[perfbench] serve_ingest seed {}: digest {:016x} (confusion totals and audit records); journal heads {:?}",
        args.seed,
        digest.value(),
        work.iter().map(|w| w.ops.len()).collect::<Vec<_>>()
    );
    eprintln!(
        "[perfbench] serve_ingest: {} rounds, {:?} ops/s; queries p50 {:?} us, p90 {:?} us",
        untraced.len(),
        untraced
            .iter()
            .map(|r| r.ops_per_s().round())
            .collect::<Vec<_>>(),
        p50s.iter().map(|v| v.round()).collect::<Vec<_>>(),
        p90s.iter().map(|v| v.round()).collect::<Vec<_>>(),
    );
    if !args.trace {
        report.set("setup_s", setup_s);
        report.set("throughput_per_s", quantile(&rates, 1.0 - PASS_QUANTILE));
        report.set("latency_us", quantile(&p50s, PASS_QUANTILE));
        report.set("tail_latency_us", quantile(&p90s, PASS_QUANTILE));
        return Ok(report);
    }

    let traced = rounds.iter().find(|r| r.traced).expect("a traced round");
    let sampler = sampler.expect("traced");
    report.set("workloads.generate_s", generate_s);
    report.set("workloads.events", offline::events(&suite) as f64);
    report.set("process.peak_rss_mb", crate::stats::peak_rss_mb());
    report.set("loadgen.frames", traced.late.len() as f64);
    report.set("loadgen.samples", traced.queries.len() as f64);
    report.set(
        "loadgen.p99_us",
        loadgen::percentiles(&traced.queries).tail_us,
    );
    report.set(
        "loadgen.late_p99_us",
        loadgen::percentiles(&traced.late).tail_us,
    );
    report.set(
        "loadgen.ack_p99_us",
        loadgen::percentiles(&traced.acks).tail_us,
    );
    let traced_rates: Vec<f64> = rounds
        .iter()
        .filter(|r| r.traced)
        .map(Round::ops_per_s)
        .collect();
    report.set(
        "trace.overhead_frac",
        median(&rates) / median(&traced_rates) - 1.0,
    );
    report.set("trace.runs", rounds.len() as f64);
    report.set("shard.queue_depth_max", sampler.depth_max() as f64);
    report.set("serve.shard_threads", sampler.shard_threads() as f64);
    report.set("replication.journal_bytes", traced.journal_bytes as f64);
    report.set(
        "audit.keep_ratio",
        traced.audit_records as f64 / traced.events as f64,
    );
    drop(sampler);
    let scrape: Vec<csp_obs::Sample> = traced.scrapes.iter().flatten().cloned().collect();
    served_counters(
        &mut report,
        &scrape,
        &["csp_shard_updates_total", "csp_shard_scored_total"],
    );
    ingest_breakdown(&mut report, &rec, &suite, &work, &scheme, &dir)?;
    let _ = std::fs::remove_dir_all(&dir);
    // The socket is what the breakdown's acks leave over after the codec,
    // `server::answer`, the journal append and the audit emit.
    let ack_us = report.get("client.rtt_us");
    let in_process = [
        "wire.encode_us",
        "wire.decode_us",
        "server.answer_us",
        "replication.append_us",
        "audit.emit_us",
    ]
    .iter()
    .map(|m| report.get(m))
    .sum::<f64>();
    report.set("client.socket_us", ack_us - in_process);
    let untraced_ack_us = median(
        &untraced
            .iter()
            .map(|r| mean_us(&r.acks))
            .collect::<Vec<_>>(),
    );
    span_metrics(&mut report, &rec, args, ack_us / untraced_ack_us)?;
    Ok(report)
}

/// The ingest path taken apart, per `Ingest` frame: the codec,
/// `server::answer`, and `ingest_replicated` on a bare engine, with a
/// durable log, and with an audit sink; the differences are the journal
/// append and the audit emit. Then queries straight into the shards.
fn ingest_breakdown(
    report: &mut Report,
    rec: &Recorder,
    suite: &Suite,
    work: &[TraceWork],
    scheme: &Scheme,
    dir: &Path,
) -> Result<(), String> {
    let nodes = nodes(suite)?;
    let fingerprint = replication::fingerprint(scheme, nodes);
    let frames: usize = work.iter().map(|w| w.frames.len()).sum();
    let per_frame = |s: f64| s * 1e6 / frames as f64;
    rec.set_enabled(true);
    let root = rec.span("breakdown", 0);
    let chunks: Vec<&[ReplOp]> = work.iter().flat_map(|w| w.ops.chunks(INGEST_OPS)).collect();

    // One engine per trace, so each starts empty as in the served pass.
    let run = |name: &'static str, make: &dyn Fn(usize) -> Result<ShardedEngine, String>| {
        let mut total = 0.0;
        for (t, w) in work.iter().enumerate() {
            let engine = make(t)?;
            let _s = rec.span(name, root.id());
            let started = Instant::now();
            for chunk in w.ops.chunks(INGEST_OPS) {
                engine
                    .ingest_replicated(0, chunk)
                    .map_err(|e| e.to_string())?;
            }
            engine.flush();
            total += started.elapsed().as_secs_f64();
        }
        Ok::<f64, String>(total)
    };
    let fresh_dir = |t: usize| {
        let d = dir.join(format!("breakdown-{t}"));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).map_err(|e| format!("{}: {e}", d.display()))?;
        Ok::<PathBuf, String>(d)
    };
    // The three variants alternate, and each figure is the median of its
    // repeats, so that the differences are not one host stall.
    let (mut bare, mut journaled, mut audited) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..BREAKDOWN_REPS {
        bare.push(run("shard.ingest", &|_| {
            Ok(ShardedEngine::new(*scheme, nodes, SHARDS))
        })?);
        journaled.push(run("replication.ingest", &|t| {
            let store =
                JournalStore::open(fresh_dir(t)?, fingerprint).map_err(|e| e.to_string())?;
            let log =
                ReplicationLog::durable(store, &Default::default()).map_err(|e| e.to_string())?;
            let engine = ShardedEngine::new(*scheme, nodes, SHARDS);
            engine.attach_replication(log).map_err(|e| e.to_string())?;
            Ok(engine)
        })?);
        audited.push(run("audit.ingest", &|t| {
            let engine = ShardedEngine::new(*scheme, nodes, SHARDS);
            csp_serve::audit::attach_file_sink(
                &engine,
                &fresh_dir(t)?.join("audit.log"),
                AUDIT_SAMPLE,
            )
            .map_err(|e| e.to_string())?;
            Ok(engine)
        })?);
    }
    let (bare, journaled, audited) = (median(&bare), median(&journaled), median(&audited));
    report.set("shard.ingest_us", per_frame(bare));
    report.set("replication.append_us", per_frame(journaled - bare));
    report.set("audit.emit_us", per_frame(audited - bare));

    let requests: Vec<Request> = chunks
        .iter()
        .map(|c| Request::Ingest {
            fingerprint,
            epoch: 0,
            ops: c.to_vec(),
        })
        .collect();
    let responses: Vec<Response> = (0..requests.len() as u64)
        .map(|head| Response::IngestAck { head })
        .collect();
    let answering = ShardedEngine::new(*scheme, nodes, SHARDS);
    let costs = codec_and_answer(rec, root.id(), &answering, &requests, &responses);
    answering.flush();
    report.set("wire.encode_us", costs.encode_us);
    report.set("wire.decode_us", costs.decode_us);
    report.set("server.answer_us", costs.answer_us);

    let probes = probe_frames(suite, &[0], &mut Rng::new(7), POOL / 4);
    let keys: Vec<Vec<u64>> = probes
        .iter()
        .map(|p| p.iter().map(|probe| answering.key_of(probe)).collect())
        .collect();
    let query_s = {
        let _s = rec.span("shard.query", root.id());
        let t = Instant::now();
        for k in &keys {
            let _ = answering.predict_keys(k);
        }
        t.elapsed().as_secs_f64()
    };
    report.set("shard.query_us", query_s * 1e6 / keys.len() as f64);

    // The whole path once more, end to end: each trace pushed into a
    // fresh leader one frame at a time, with no queries beside it.
    let mut acks = Vec::new();
    for w in work {
        let (host, _log) = leader(dir, scheme, nodes)?;
        let stream = host.connect()?;
        let _s = rec.span("client.rtt", root.id());
        let check = |k: usize, reply: &Response| match reply {
            Response::IngestAck { head } if *head == w.heads[k] => Verdict::Answered,
            other => Verdict::Wrong(format!(
                "{}: ingest frame {k} answered with {other:?}",
                w.name
            )),
        };
        acks.extend(loadgen::closed_loop(&stream, &w.frames, &check)?.latency_ns);
    }
    report.set("client.rtt_us", mean_us(&acks));
    drop(root);
    rec.set_enabled(false);
    Ok(())
}

/// The mean of `samples` (ns), µs.
fn mean_us(samples: &[u64]) -> f64 {
    samples.iter().sum::<u64>() as f64 / 1e3 / samples.len().max(1) as f64
}
