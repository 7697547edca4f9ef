//! The wire-level chaos harness: adversarial connections throw every
//! [`csp_trace::fault::WireFault`] at a live server — truncation, bit
//! flips, hostile length prefixes, slowloris dribble — while healthy
//! clients keep querying. The server must answer every healthy probe
//! with the exactly correct prediction throughout, disconnect the
//! abusers, and still be accepting when the dust settles.

use csp_serve::replication::{self, run_follower, FollowerOptions, ReplOp, ReplicaStatus, Role};
use csp_serve::wire::{self, Request, Response, SegmentFrame};
use csp_serve::{
    Client, Probe, ReplicationLog, Server, ServerOptions, ShardedEngine, ShutdownHandle,
};
use csp_trace::fault::{FaultyWriter, WireFault};
use csp_trace::{LineAddr, NodeId, Pc, SharingBitmap, SharingEvent};
use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const NODES: u8 = 16;

/// Trains a deterministic engine: writer `pid` at pc 0 always sees
/// reader `15 - pid` next, so every prediction has one known-correct
/// answer.
fn trained_engine() -> Arc<ShardedEngine> {
    let engine = ShardedEngine::new("last(pid)1[direct]".parse().unwrap(), NODES as usize, 3);
    for pid in 0..NODES {
        engine.ingest_event(&SharingEvent::new(
            NodeId(pid),
            Pc(0),
            LineAddr(0),
            NodeId(0),
            SharingBitmap::singleton(NodeId(NODES - 1 - pid)),
            Some((NodeId(pid), Pc(0))),
        ));
    }
    engine.flush();
    Arc::new(engine)
}

fn probe(pid: u8) -> Probe {
    Probe::new(NodeId(pid), Pc(0), NodeId(0), LineAddr(0))
}

fn expected(pid: u8) -> SharingBitmap {
    SharingBitmap::singleton(NodeId(NODES - 1 - pid))
}

/// Sends a request through a [`FaultyWriter`] applying `fault` to the
/// frame bytes, then returns the socket for reading replies.
fn send_faulted(addr: SocketAddr, fault: WireFault, req: &Request) -> TcpStream {
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut w = FaultyWriter::new(&stream, fault);
    // Faults may make the write itself fail (peer hangs up mid-dribble);
    // that is the adversary's problem, not the test's.
    let _ = wire::write_request(&mut w, req);
    let _ = (&stream).flush();
    stream
}

/// Truncation: the frame stops mid-payload and the writer hangs up. The
/// server must treat it as a mid-frame EOF and drop only that connection.
fn adversary_truncation(addr: SocketAddr) {
    let stream = send_faulted(
        addr,
        WireFault::Truncate { offset: 6 },
        &Request::Predict(probe(0)),
    );
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    // Whatever comes back (nothing, or an error on some platforms), the
    // read must terminate rather than hang.
    let mut reader = BufReader::new(&stream);
    let _ = wire::read_frame(&mut reader);
}

/// Bit flips: every flipped frame draws a typed checksum error, and a
/// connection that keeps flipping exhausts its error budget and is cut.
fn adversary_bit_flips(addr: SocketAddr, budget: u32) {
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut reader = BufReader::new(&stream);
    let mut typed_errors = 0u32;
    let mut disconnected = false;
    for _ in 0..budget + 4 {
        let mut w = FaultyWriter::new(
            &stream,
            WireFault::Flip {
                offset: 5,
                xor: 0x20,
            },
        );
        if wire::write_request(&mut w, &Request::Predict(probe(1))).is_err() {
            disconnected = true;
            break;
        }
        match wire::read_response(&mut reader) {
            // The farewell frame before the cut may or may not arrive
            // before the close races it; both count as the disconnect.
            Ok(Response::Error(msg)) if msg.contains("budget") => {
                disconnected = true;
                break;
            }
            Ok(Response::Error(msg)) => {
                assert!(msg.contains("checksum"), "got: {msg}");
                typed_errors += 1;
            }
            Ok(other) => panic!("corrupt frame answered with {other:?}"),
            Err(_) => {
                disconnected = true;
                break;
            }
        }
    }
    assert!(typed_errors > 0, "never saw a typed checksum error");
    assert!(
        disconnected || typed_errors > budget,
        "server tolerated {typed_errors} corrupt frames without cutting the connection"
    );
    // Drain to the disconnect if it came via the final budget frame.
    while wire::read_response(&mut reader).is_ok() {}
}

/// Oversized length prefix: framing is unrecoverable, so the server must
/// send one typed error and hang up.
fn adversary_oversized(addr: SocketAddr) {
    let stream = send_faulted(
        addr,
        WireFault::OversizedLen { len: u32::MAX / 2 },
        &Request::Ping,
    );
    let mut reader = BufReader::new(&stream);
    match wire::read_response(&mut reader) {
        Ok(Response::Error(msg)) => assert!(msg.contains("limit"), "got: {msg}"),
        Ok(other) => panic!("hostile length answered with {other:?}"),
        Err(e) => panic!("expected a typed error before the disconnect: {e}"),
    }
    assert!(
        wire::read_frame(&mut reader).unwrap().is_none(),
        "server kept the connection after losing framing"
    );
}

/// Slowloris: bytes dribble in slower than the read deadline. The server
/// must cut the connection instead of pinning a handler thread.
fn adversary_slowloris(addr: SocketAddr) {
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut w = FaultyWriter::new(
        &stream,
        WireFault::Slowloris {
            delay_micros: 400_000, // well past the server's 150ms deadline
        },
    );
    // The server cuts us off mid-dribble; the tail of the write may fail.
    let _ = wire::write_request(&mut w, &Request::Ping);
    let mut reader = BufReader::new(&stream);
    match wire::read_response(&mut reader) {
        Ok(Response::Error(msg)) => assert!(msg.contains("deadline"), "got: {msg}"),
        Ok(other) => panic!("slowloris answered with {other:?}"),
        // The cut can also surface as a plain reset once the error frame
        // raced the close; either way the connection ended.
        Err(_) => {}
    }
}

#[test]
fn server_survives_wire_chaos_with_zero_incorrect_predictions() {
    let budget = 3u32;
    let server = Server::bind_tcp("127.0.0.1:0", trained_engine())
        .unwrap()
        .with_options(ServerOptions {
            read_timeout: Some(Duration::from_millis(150)),
            write_timeout: Some(Duration::from_secs(5)),
            error_budget: budget,
            drain_timeout: Duration::from_secs(2),
        });
    let addr = server.local_addr().unwrap();
    let shutdown = server.shutdown_handle();
    let server_thread = std::thread::spawn(move || server.run());

    // Healthy clients: hammer known-answer predictions for the whole
    // duration of the chaos. Every single answer must be exactly right.
    let stop = Arc::new(AtomicBool::new(false));
    let healthy: Vec<_> = (0..2)
        .map(|_| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut client = Client::connect_tcp(addr).unwrap();
                client
                    .set_timeouts(Some(Duration::from_secs(5)), Some(Duration::from_secs(5)))
                    .unwrap();
                let mut correct = 0u64;
                while !stop.load(Ordering::Acquire) {
                    for pid in 0..NODES {
                        let got = client
                            .predict(&probe(pid))
                            .expect("healthy connection must stay served");
                        assert_eq!(got, expected(pid), "incorrect healthy prediction");
                        correct += 1;
                    }
                }
                correct
            })
        })
        .collect();

    // Chaos, two full rounds of every fault class.
    for _ in 0..2 {
        adversary_truncation(addr);
        adversary_bit_flips(addr, budget);
        adversary_oversized(addr);
        adversary_slowloris(addr);
    }

    stop.store(true, Ordering::Release);
    let mut total_correct = 0u64;
    for h in healthy {
        total_correct += h.join().expect("healthy client panicked");
    }
    assert!(
        total_correct >= 2 * NODES as u64,
        "healthy clients barely ran: {total_correct} predictions"
    );

    // The server is still accepting, still correct, and never had to
    // restart a shard over any of it (wire faults die at the framing
    // layer, far from the predictor state).
    let mut client = Client::connect_tcp(addr).unwrap();
    client.ping().unwrap();
    assert_eq!(client.predict(&probe(7)).unwrap(), expected(7));
    let stats = client.stats().unwrap();
    assert_eq!(stats.restarts, 0, "wire chaos must not reach shard state");
    assert_eq!(stats.updates, NODES as u64);
    drop(client);

    // And it still shuts down gracefully afterwards.
    shutdown.shutdown();
    let result = server_thread.join().expect("server thread");
    assert!(result.is_ok(), "shutdown after chaos errored: {result:?}");
}

#[test]
fn interleaved_chaos_and_writes_keep_state_exact() {
    // Adversarial frames interleaved with real ingest through a healthy
    // connection: the table must end exactly where a clean run ends.
    let engine = trained_engine();
    let server = Server::bind_tcp("127.0.0.1:0", Arc::clone(&engine))
        .unwrap()
        .with_options(ServerOptions {
            read_timeout: Some(Duration::from_millis(150)),
            error_budget: 2,
            ..ServerOptions::default()
        });
    let addr = server.local_addr().unwrap();
    std::thread::spawn(move || server.run());

    for round in 0..3 {
        adversary_bit_flips(addr, 2);
        adversary_oversized(addr);
        // Healthy traffic between the attacks.
        let mut client = Client::connect_tcp(addr).unwrap();
        for pid in 0..NODES {
            assert_eq!(
                client.predict(&probe(pid)).unwrap(),
                expected(pid),
                "round {round}"
            );
        }
    }
    assert_eq!(engine.stats().total_restarts(), 0);
}

/// The load generator's ledger stays clean against a healthy server even
/// while chaos runs — robustness accounting must not invent failures.
#[test]
fn load_generator_ledger_is_clean_under_parallel_chaos() {
    let server = Server::bind_tcp("127.0.0.1:0", trained_engine())
        .unwrap()
        .with_options(ServerOptions {
            read_timeout: Some(Duration::from_millis(150)),
            error_budget: 3,
            ..ServerOptions::default()
        });
    let addr = server.local_addr().unwrap();
    std::thread::spawn(move || server.run());

    let chaos = std::thread::spawn(move || {
        adversary_truncation(addr);
        adversary_oversized(addr);
        adversary_bit_flips(addr, 3);
    });
    let report = csp_serve::run_load(
        addr,
        &csp_serve::LoadOptions {
            batch: 64,
            frames: 50,
            nodes: NODES as usize,
            ..Default::default()
        },
    )
    .unwrap();
    chaos.join().unwrap();
    assert_eq!(report.timeouts, 0, "{report}");
    assert_eq!(report.disconnects, 0, "{report}");
    assert_eq!(report.probes, 64 * 50);

    let mut writer = BufWriter::new(TcpStream::connect(addr).unwrap());
    // One last well-formed frame proves the listener is still alive.
    wire::write_request(&mut writer, &Request::Ping).unwrap();
    writer.flush().unwrap();
}

/// A torn journal segment from a hostile (or disk-corrupted) leader: the
/// follower applies the valid prefix, rejects the bit-flipped frame at
/// the checksum, keeps serving stale-but-consistent state, reconnects,
/// and resumes from its durable offset — never applying a corrupt byte.
#[test]
fn follower_survives_torn_segment_and_resumes_from_offset() {
    let engine = Arc::new(ShardedEngine::new(
        "last(pid)1[direct]".parse().unwrap(),
        NODES as usize,
        2,
    ));
    let fp = replication::fingerprint(engine.scheme(), engine.nodes());
    replication::bring_up(&engine, Role::Follower, None, None, None).unwrap();
    let ops: Vec<ReplOp> = (0..NODES as u64)
        .map(|key| ReplOp::Update {
            key,
            feedback: SharingBitmap::singleton(NodeId(NODES - 1 - key as u8)),
        })
        .collect();

    // The fake leader: first connection sends 8 good ops then a
    // bit-flipped segment; second connection must see a Subscribe
    // resuming at offset 8 and serves the rest.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let leader_ops = ops.clone();
    let leader = std::thread::spawn(move || {
        // Connection 1: valid prefix, then the tear.
        let (stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        match wire::read_request(&mut reader).unwrap() {
            Request::Subscribe {
                fingerprint,
                epoch: _,
                from,
            } => {
                assert_eq!(fingerprint, fp);
                assert_eq!(from, 0, "first subscribe must start at bootstrap");
            }
            other => panic!("expected Subscribe, got {other:?}"),
        }
        let mut w = BufWriter::new(stream.try_clone().unwrap());
        wire::write_response(
            &mut w,
            &Response::JournalSegment(SegmentFrame {
                fingerprint: fp,
                epoch: 1,
                start: 0,
                head: leader_ops.len() as u64,
                lease_ms: 0,
                ops: leader_ops[..8].to_vec(),
            }),
        )
        .unwrap();
        w.flush().unwrap();
        // The tear: a continuation segment whose bytes were flipped in
        // flight. The checksum must kill it before a single op applies.
        let mut fw = FaultyWriter::new(
            &stream,
            WireFault::Flip {
                offset: 30,
                xor: 0x40,
            },
        );
        let _ = wire::write_response(
            &mut fw,
            &Response::JournalSegment(SegmentFrame {
                fingerprint: fp,
                epoch: 1,
                start: 8,
                head: leader_ops.len() as u64,
                lease_ms: 0,
                ops: leader_ops[8..].to_vec(),
            }),
        );
        let _ = (&stream).flush();
        drop(stream);

        // Connection 2: the reconnect. It must resume exactly at 8.
        let (stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        match wire::read_request(&mut reader).unwrap() {
            Request::Subscribe {
                fingerprint,
                epoch: _,
                from,
            } => {
                assert_eq!(fingerprint, fp);
                assert_eq!(from, 8, "reconnect must resume from the durable offset");
            }
            other => panic!("expected resumed Subscribe, got {other:?}"),
        }
        let mut w = BufWriter::new(stream.try_clone().unwrap());
        wire::write_response(
            &mut w,
            &Response::JournalSegment(SegmentFrame {
                fingerprint: fp,
                epoch: 1,
                start: 8,
                head: leader_ops.len() as u64,
                lease_ms: 0,
                ops: leader_ops[8..].to_vec(),
            }),
        )
        .unwrap();
        w.flush().unwrap();
        // Hold the connection with heartbeats until the follower leaves.
        loop {
            let beat = Response::JournalSegment(SegmentFrame {
                fingerprint: fp,
                epoch: 1,
                start: leader_ops.len() as u64,
                head: leader_ops.len() as u64,
                lease_ms: 0,
                ops: Vec::new(),
            });
            if wire::write_response(&mut w, &beat)
                .and_then(|()| w.flush())
                .is_err()
            {
                return;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    });

    let status = ReplicaStatus::new(0);
    let shutdown = ShutdownHandle::new();
    let f_engine = Arc::clone(&engine);
    let f_status = Arc::clone(&status);
    let f_shutdown = shutdown.clone();
    let follower = std::thread::spawn(move || {
        run_follower(
            &f_engine,
            move || Some(addr.to_string()),
            &f_status,
            &f_shutdown,
            &FollowerOptions {
                backoff_base: Duration::from_millis(10),
                backoff_max: Duration::from_millis(100),
                read_timeout: Duration::from_secs(2),
                ..FollowerOptions::default()
            },
        )
    });

    let deadline = Instant::now() + Duration::from_secs(30);
    while status.applied() < NODES as u64 {
        assert!(
            Instant::now() < deadline,
            "follower stuck at offset {} (reconnects {})",
            status.applied(),
            status.reconnects()
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // The tear forced exactly one reconnect cycle, no divergence, and the
    // applied state is what an untorn stream would have produced.
    assert!(status.reconnects() >= 1, "the tear never forced a redial");
    assert!(!status.is_diverged(), "a checksum tear is not divergence");
    let stats = engine.stats();
    assert_eq!(stats.updates, NODES as u64, "corrupt ops leaked into state");

    shutdown.shutdown();
    follower.join().unwrap().unwrap();
    leader.join().unwrap();
}

/// A subscriber that never reads: the leader's write buffer to it fills,
/// the write deadline cuts the laggard, and neither healthy queries nor
/// the leader's own ingest path stall behind it.
#[test]
fn slow_subscriber_is_cut_without_stalling_the_leader() {
    let engine = trained_engine();
    let fp = replication::fingerprint(engine.scheme(), engine.nodes());
    engine
        .attach_replication(ReplicationLog::in_memory(fp))
        .unwrap();
    let server = Server::bind_tcp("127.0.0.1:0", Arc::clone(&engine))
        .unwrap()
        .with_options(ServerOptions {
            read_timeout: Some(Duration::from_millis(150)),
            // Tight write deadline: a subscriber that stops draining is
            // cut in well under a second.
            write_timeout: Some(Duration::from_millis(200)),
            ..ServerOptions::default()
        });
    let addr = server.local_addr().unwrap();
    std::thread::spawn(move || server.run());

    // Subscribe, then never read a byte.
    let laggard = TcpStream::connect(addr).unwrap();
    let mut w = BufWriter::new(laggard.try_clone().unwrap());
    wire::write_request(
        &mut w,
        &Request::Subscribe {
            fingerprint: fp,
            epoch: 0,
            from: 0,
        },
    )
    .unwrap();
    w.flush().unwrap();

    // Meanwhile the leader keeps ingesting — far more bytes than the
    // laggard's socket buffers can absorb — and healthy clients keep
    // getting exact answers.
    // ~35MB of journal — far beyond what the kernel will buffer for a
    // socket nobody drains, so the stream writer must hit its deadline.
    let ops: Vec<ReplOp> = (0..32_768u64)
        .map(|i| ReplOp::Update {
            key: i % NODES as u64,
            feedback: SharingBitmap::singleton(NodeId((i % NODES as u64) as u8)),
        })
        .collect();
    let mut client = Client::connect_tcp(addr).unwrap();
    client
        .set_timeouts(Some(Duration::from_secs(5)), Some(Duration::from_secs(5)))
        .unwrap();
    let start = Instant::now();
    for _ in 0..64 {
        engine.ingest_replicated(0, &ops).unwrap();
        client.ping().unwrap();
    }
    assert!(
        start.elapsed() < Duration::from_secs(60),
        "leader ingest stalled behind the laggard: {:?}",
        start.elapsed()
    );

    // With nobody draining the laggard, the stream writer is now blocked
    // against full socket buffers; its 200ms deadline cuts the handler.
    // The server's own connection gauge proves it: only the healthy
    // client remains. (Draining instead would relieve the backpressure
    // and keep the stream alive — the cut requires sustained stall.)
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let text = client.metrics().unwrap();
        let active = csp_obs::parse_text(&text)
            .into_iter()
            .find(|s| s.name == "csp_connections_active")
            .and_then(|s| s.value_i64())
            .unwrap_or(-1);
        if active == 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "laggard connection never cut; {active} connections still active"
        );
        std::thread::sleep(Duration::from_millis(100));
    }

    // Draining what the kernel already buffered now ends in EOF (or a
    // reset), not a live stream.
    laggard
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut drained = laggard;
    let mut sink = [0u8; 64 * 1024];
    loop {
        match drained.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }

    // And the server is still fully alive for everyone else.
    let mut client = Client::connect_tcp(addr).unwrap();
    client.ping().unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.restarts, 0, "backpressure must not reach shard state");
}
