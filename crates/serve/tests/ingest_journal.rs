//! An `Ingest` frame's records are journaled as they arrived, under a
//! segment CRC derived from the frame's verified wire CRC. These tests
//! pin what that must not change: a journal written through a real
//! socket is byte-for-byte the journal `ingest_replicated` encodes for
//! the same operations, and a damaged frame is refused without touching
//! the journal.

use csp_serve::replication::{self, MAX_SEGMENT_OPS};
use csp_serve::wire::{self, Request, Response};
use csp_serve::{Client, JournalStore, ReplOp, ReplicationLog, Server, ShardedEngine};
use csp_trace::SharingBitmap;
use std::fs;
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const SCHEME: &str = "union(pid+pc8)2[direct]";
const NODES: usize = 16;

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("csp-ingest-{tag}-{}", std::process::id()));
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

fn fingerprint() -> u32 {
    replication::fingerprint(&SCHEME.parse().unwrap(), NODES)
}

/// A leader journaling into `dir`.
fn leader(dir: &Path) -> (Arc<ShardedEngine>, Arc<ReplicationLog>) {
    let store = JournalStore::open(dir, fingerprint()).unwrap();
    let recovered = store.recover_all().unwrap();
    let log = ReplicationLog::durable(store, &recovered).unwrap();
    let engine = ShardedEngine::new(SCHEME.parse().unwrap(), NODES, 2);
    engine.attach_replication(Arc::clone(&log)).unwrap();
    (Arc::new(engine), log)
}

/// Serves `engine` on loopback from a background thread; returns its address.
fn serve(engine: Arc<ShardedEngine>) -> SocketAddr {
    let server = Server::bind_tcp("127.0.0.1:0", engine).unwrap();
    let addr = server.local_addr().unwrap();
    std::thread::spawn(move || server.run());
    addr
}

fn ops(seed: u64, n: usize) -> Vec<ReplOp> {
    (0..n as u64)
        .map(|i| {
            let x = (seed ^ i).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let bits = SharingBitmap::from_bits((x >> 48) & 0xFFFF);
            if x & 1 == 0 {
                ReplOp::Update {
                    key: x >> 20,
                    feedback: bits,
                }
            } else {
                ReplOp::Score {
                    key: x >> 20,
                    actual: bits,
                }
            }
        })
        .collect()
}

/// Every journal file in `dir`, by name, with its bytes.
fn journal_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<_> = fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let path = e.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, fs::read(&path).unwrap())
        })
        .collect();
    files.sort();
    files
}

#[test]
fn socket_ingest_journals_the_bytes_ingest_replicated_writes() {
    let dir = TempDir::new("identical");
    let (wire_dir, local_dir) = (dir.path("wire"), dir.path("local"));
    let (served, _) = leader(&wire_dir);
    let (local, _) = leader(&local_dir);
    let mut client = Client::connect_tcp(serve(served)).unwrap();
    // One op, odd sizes, an empty push, a full segment, and a push the
    // client splits in two frames (ingest_replicated in two segments).
    let sizes = [1, 17, 0, 4096, MAX_SEGMENT_OPS, MAX_SEGMENT_OPS + 5, 3];
    for (seed, &n) in sizes.iter().enumerate() {
        let batch = ops(seed as u64, n);
        let over_wire = client.ingest(fingerprint(), &batch).unwrap();
        let in_process = local.ingest_replicated(0, &batch).unwrap();
        assert_eq!(over_wire, in_process, "head after a {n}-op push");
    }
    let (wire_files, local_files) = (journal_files(&wire_dir), journal_files(&local_dir));
    assert!(!wire_files.is_empty());
    assert_eq!(wire_files, local_files, "journals differ byte for byte");
    let recovered = JournalStore::open(&wire_dir, fingerprint())
        .unwrap()
        .recover_all()
        .unwrap();
    let all: Vec<ReplOp> = sizes
        .iter()
        .enumerate()
        .flat_map(|(seed, &n)| ops(seed as u64, n))
        .collect();
    assert_eq!(recovered.ops, all);
}

#[test]
fn bit_flipped_ingest_frame_is_refused_and_journals_nothing() {
    let dir = TempDir::new("flipped");
    let (engine, log) = leader(&dir.0);
    let addr = serve(engine);
    let mut client = Client::connect_tcp(addr).unwrap();
    let head = client.ingest(fingerprint(), &ops(1, 40)).unwrap();
    let before = journal_files(&dir.0);

    let mut frame = Vec::new();
    let request = Request::Ingest {
        fingerprint: fingerprint(),
        epoch: 0,
        ops: ops(2, 40),
    };
    wire::write_request(&mut frame, &request).unwrap();
    let mut flipped = frame.clone();
    flipped[4 + 17 + 5 * 17 + 3] ^= 0x10; // a bit inside the sixth record
    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = BufWriter::new(&stream);
    let mut reader = BufReader::new(&stream);
    writer.write_all(&flipped).unwrap();
    writer.flush().unwrap();
    match wire::read_response(&mut reader).unwrap() {
        Response::Error(msg) => assert!(msg.contains("checksum mismatch"), "got: {msg}"),
        other => panic!("a damaged ingest frame was answered with {other:?}"),
    }
    assert_eq!(log.head(), head, "the damaged frame moved the head");
    assert_eq!(
        journal_files(&dir.0),
        before,
        "the damaged frame was journaled"
    );

    // The connection survives, and the intact frame is admitted.
    writer.write_all(&frame).unwrap();
    writer.flush().unwrap();
    match wire::read_response(&mut reader).unwrap() {
        Response::IngestAck { head: after } => assert_eq!(after, head + 40),
        other => panic!("the intact frame was answered with {other:?}"),
    }
}
