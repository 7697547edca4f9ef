//! Durable snapshots of a live engine: the predictor tables and
//! screening counters of every shard, serialized with the same CRC32c
//! section framing as the on-disk trace format and written atomically.
//!
//! ```text
//! file: snap-<seq>.cspsnap
//!   magic "CSPSNAP2"
//!   header: scheme (u16 len + utf8), nodes u8, shards u16, seq u64,
//!           version fingerprint u32 [CRC]
//!   per shard:
//!     confusion tp/fp/tn/fn  4×u64
//!     updates/scored/queries/restarts  4×u64
//!     n_entries u64
//!     entries, sorted by key:
//!       key u64
//!       history family: depth u8, len u8, head u8, depth × bitmap u64
//!       PAs family:     depth u8, hist[nodes], counters[nodes << depth]
//!     [CRC]
//! ```
//!
//! Entries are written in sorted key order, so serializing the same
//! logical state always produces the same bytes — snapshot files can be
//! compared for equality in tests. [`SnapshotStore`] manages a directory
//! of them: atomic tmp+rename writes ([`csp_trace::io::write_file_atomically`]),
//! newest-first restore that quarantines corrupt files (renamed to
//! `*.corrupt`) instead of giving up, and pruning of obsolete files.
//!
//! A snapshot restores to a *bit-identical* engine: same predictions,
//! same counters (see `snapshot_roundtrip_is_bit_identical` below and
//! `tests/crash_recovery.rs`).

use crate::error::ServeError;
use crate::shard::{ShardState, ShardedEngine};
use csp_core::{PredictorTable, RawEntry, RawHistoryEntry, RawPasEntry, Scheme, MAX_DEPTH};
use csp_metrics::ConfusionMatrix;
use csp_trace::io::{write_file_atomically, ChecksumReader, ChecksumWriter};
use csp_trace::SharingBitmap;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 8] = b"CSPSNAP2";
const LEGACY_MAGIC: &[u8; 8] = b"CSPSNAP1";

/// The full restorable state of a [`ShardedEngine`] at one point in time.
#[derive(Clone, Debug)]
pub struct EngineState {
    /// The scheme the engine serves.
    pub scheme: Scheme,
    /// Machine width.
    pub nodes: usize,
    /// Position marker: how many input events had been applied when this
    /// state was captured (replay mode), or a monotonically increasing
    /// snapshot sequence number (serve mode). Restore resumes from here.
    pub seq: u64,
    /// Per-shard states, in shard order.
    pub shards: Vec<ShardState>,
}

impl EngineState {
    /// Captures a live engine's state (see
    /// [`ShardedEngine::snapshot_state`] for the consistency contract).
    pub fn capture(engine: &ShardedEngine, seq: u64) -> Self {
        EngineState {
            scheme: *engine.scheme(),
            nodes: engine.nodes(),
            seq,
            shards: engine.snapshot_state(),
        }
    }

    /// Spawns an engine that continues exactly where this state left off.
    ///
    /// # Errors
    ///
    /// [`ServeError::SnapshotMismatch`] when the shard states are
    /// inconsistent with the recorded width.
    pub fn restore(self) -> Result<ShardedEngine, ServeError> {
        ShardedEngine::with_state(self.scheme, self.nodes, self.shards)
    }
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

fn put_u64(w: &mut impl Write, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn get_u8(r: &mut impl Read) -> io::Result<u8> {
    let mut b = [0u8; 1];
    r.read_exact(&mut b)?;
    Ok(b[0])
}

fn get_u16(r: &mut impl Read) -> io::Result<u16> {
    let mut b = [0u8; 2];
    r.read_exact(&mut b)?;
    Ok(u16::from_le_bytes(b))
}

fn get_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

/// Serializes an engine state to `w` (see the module docs for the
/// layout). Deterministic: equal states produce equal bytes.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_engine_state<W: Write>(w: W, state: &EngineState) -> io::Result<()> {
    let mut w = ChecksumWriter::new(w);
    w.write_all(MAGIC)?;
    let scheme = state.scheme.to_string();
    w.write_all(&(scheme.len() as u16).to_le_bytes())?;
    w.write_all(scheme.as_bytes())?;
    w.write_all(&[state.nodes as u8])?;
    w.write_all(&(state.shards.len() as u16).to_le_bytes())?;
    put_u64(&mut w, state.seq)?;
    let fingerprint = csp_core::version_fingerprint(&state.scheme, state.nodes);
    w.write_all(&fingerprint.to_le_bytes())?;
    w.write_section_crc()?;
    for shard in &state.shards {
        for v in [
            shard.confusion.tp,
            shard.confusion.fp,
            shard.confusion.tn,
            shard.confusion.fn_,
            shard.updates,
            shard.scored,
            shard.queries,
            shard.restarts,
        ] {
            put_u64(&mut w, v)?;
        }
        let mut entries: Vec<(u64, RawEntry)> = shard.table.entries().collect();
        entries.sort_unstable_by_key(|&(key, _)| key);
        put_u64(&mut w, entries.len() as u64)?;
        for (key, entry) in entries {
            put_u64(&mut w, key)?;
            match entry {
                RawEntry::History(raw) => {
                    w.write_all(&[raw.depth, raw.len, raw.head])?;
                    for slot in &raw.bitmaps[..raw.depth as usize] {
                        put_u64(&mut w, slot.bits())?;
                    }
                }
                RawEntry::Pas(raw) => {
                    w.write_all(&[raw.depth])?;
                    w.write_all(&raw.hist)?;
                    w.write_all(&raw.counters)?;
                }
            }
        }
        w.write_section_crc()?;
    }
    Ok(())
}

/// Deserializes an engine state, verifying every section checksum and
/// rejecting structurally impossible entries.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidData`] on bad magic, checksum mismatch, or an
/// entry that no run could have produced; other kinds propagate from the
/// reader (truncation surfaces as `UnexpectedEof`).
pub fn read_engine_state<R: Read>(r: R) -> io::Result<EngineState> {
    let mut r = ChecksumReader::new(r);
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic == LEGACY_MAGIC {
        return Err(bad(
            "snapshot is format revision 1 (no version fingerprint); \
             re-snapshot with a current engine",
        ));
    }
    if &magic != MAGIC {
        return Err(bad("not a snapshot file (bad magic)"));
    }
    let scheme_len = get_u16(&mut r)? as usize;
    let mut scheme_bytes = vec![0u8; scheme_len];
    r.read_exact(&mut scheme_bytes)?;
    let scheme: Scheme = std::str::from_utf8(&scheme_bytes)
        .map_err(|_| bad("scheme is not UTF-8"))?
        .parse()
        .map_err(|e| bad(format!("unparseable scheme: {e}")))?;
    let nodes = get_u8(&mut r)? as usize;
    let shard_count = get_u16(&mut r)? as usize;
    let seq = get_u64(&mut r)?;
    let mut fp_bytes = [0u8; 4];
    r.read_exact(&mut fp_bytes)?;
    let stored_fp = u32::from_le_bytes(fp_bytes);
    r.check_section_crc("snapshot header")?;
    if nodes == 0 || shard_count == 0 {
        return Err(bad("snapshot header has zero nodes or shards"));
    }
    let expected_fp = csp_core::version_fingerprint(&scheme, nodes);
    if stored_fp != expected_fp {
        return Err(bad(format!(
            "snapshot version fingerprint {stored_fp:#010x} does not match \
             this build's {expected_fp:#010x} for {scheme}/{nodes} nodes"
        )));
    }
    let node_mask = SharingBitmap::all(nodes).bits();
    let mut shards = Vec::with_capacity(shard_count);
    for s in 0..shard_count {
        let confusion = ConfusionMatrix {
            tp: get_u64(&mut r)?,
            fp: get_u64(&mut r)?,
            tn: get_u64(&mut r)?,
            fn_: get_u64(&mut r)?,
        };
        let updates = get_u64(&mut r)?;
        let scored = get_u64(&mut r)?;
        let queries = get_u64(&mut r)?;
        let restarts = get_u64(&mut r)?;
        let n_entries = get_u64(&mut r)?;
        let mut table = PredictorTable::new(&scheme, nodes);
        let history_family = table.uses_history();
        for _ in 0..n_entries {
            let key = get_u64(&mut r)?;
            let entry = if history_family {
                let depth = get_u8(&mut r)?;
                let len = get_u8(&mut r)?;
                let head = get_u8(&mut r)?;
                if depth as usize > MAX_DEPTH {
                    return Err(bad(format!("history depth {depth} exceeds {MAX_DEPTH}")));
                }
                let mut bitmaps = [SharingBitmap::empty(); MAX_DEPTH];
                for slot in bitmaps.iter_mut().take(depth as usize) {
                    let bits = get_u64(&mut r)?;
                    if bits & !node_mask != 0 {
                        return Err(bad(format!(
                            "bitmap names nodes beyond the {nodes}-node machine"
                        )));
                    }
                    *slot = SharingBitmap::from_bits(bits);
                }
                RawEntry::History(RawHistoryEntry {
                    bitmaps,
                    depth,
                    len,
                    head,
                })
            } else {
                let depth = get_u8(&mut r)?;
                if depth as usize > MAX_DEPTH {
                    return Err(bad(format!("PAs depth {depth} exceeds {MAX_DEPTH}")));
                }
                let mut hist = vec![0u8; nodes];
                r.read_exact(&mut hist)?;
                let mut counters = vec![0u8; nodes << depth];
                r.read_exact(&mut counters)?;
                RawEntry::Pas(RawPasEntry {
                    hist,
                    counters,
                    depth,
                })
            };
            table.insert_entry(key, entry).map_err(bad)?;
        }
        r.check_section_crc(&format!("shard {s}"))?;
        shards.push(ShardState {
            table,
            confusion,
            updates,
            scored,
            queries,
            restarts,
        });
    }
    Ok(EngineState {
        scheme,
        nodes,
        seq,
        shards,
    })
}

/// A directory of sequence-numbered snapshot files with atomic writes,
/// corrupt-file quarantine, and newest-first restore.
///
/// # Example
///
/// ```no_run
/// use csp_serve::{snapshot::EngineState, ShardedEngine, SnapshotStore};
///
/// let engine = ShardedEngine::new("last(pid+pc8)1[direct]".parse().unwrap(), 16, 4);
/// let store = SnapshotStore::open("/var/lib/csp/snapshots")?;
/// store.save(&EngineState::capture(&engine, 0))?;
/// if let Some((state, path)) = store.load_latest()? {
///     println!("restoring seq {} from {}", state.seq, path.display());
///     let engine = state.restore()?;
/// }
/// # Ok::<(), csp_serve::ServeError>(())
/// ```
#[derive(Clone, Debug)]
pub struct SnapshotStore {
    dir: PathBuf,
    counters: std::sync::Arc<SnapshotCounters>,
}

/// Lifecycle counters for a [`SnapshotStore`], shared by clones of the
/// store. [`SnapshotStore::bind_metrics`] exposes them on a registry so
/// snapshot health shows up in the same scrape as everything else
/// instead of only in server log lines.
#[derive(Debug, Default)]
struct SnapshotCounters {
    writes: csp_obs::Counter,
    prunes: csp_obs::Counter,
    quarantines: csp_obs::Counter,
}

/// Snapshot files kept by [`SnapshotStore::save`]'s pruning: the one just
/// written plus one predecessor, so there is always a fallback if the
/// newest file is lost with the machine.
const RETAIN: usize = 2;

impl SnapshotStore {
    /// Opens (creating if needed) a snapshot directory.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, ServeError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| ServeError::io(&dir, e))?;
        Ok(SnapshotStore {
            dir,
            counters: std::sync::Arc::default(),
        })
    }

    /// The directory this store manages.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Registers this store's lifecycle counters (`csp_snapshot_*`) on
    /// `registry` — typically the engine registry, so one scrape covers
    /// predictions and durability alike. Clones of the store share the
    /// counters, so bind once per store lineage.
    pub fn bind_metrics(&self, registry: &csp_obs::Registry) {
        let poll = |f: fn(&SnapshotCounters) -> &csp_obs::Counter| {
            let c = std::sync::Arc::clone(&self.counters);
            move || f(&c).get()
        };
        registry.register_counter_fn(
            "csp_snapshot_writes_total",
            "Snapshot files written durably.",
            &[],
            poll(|c| &c.writes),
        );
        registry.register_counter_fn(
            "csp_snapshot_prunes_total",
            "Obsolete snapshot files removed by retention.",
            &[],
            poll(|c| &c.prunes),
        );
        registry.register_counter_fn(
            "csp_snapshot_quarantines_total",
            "Corrupt snapshot files renamed aside during restore.",
            &[],
            poll(|c| &c.quarantines),
        );
    }

    fn path_for(&self, seq: u64) -> PathBuf {
        // Zero-padded so casual `ls` shows sequence order; retention and
        // restore order parse the number back out rather than trusting
        // name order or mtime.
        self.dir.join(format!("snap-{seq:020}.cspsnap"))
    }

    /// The sequence number embedded in a snapshot filename, if it is one.
    fn parse_seq(path: &Path) -> Option<u64> {
        let name = path.file_name()?.to_str()?;
        let digits = name.strip_prefix("snap-")?.strip_suffix(".cspsnap")?;
        digits.parse().ok()
    }

    /// Writes `state` durably (tmp sibling + fsync + rename, so a crash
    /// mid-write never damages an existing snapshot) and prunes all but
    /// the newest two files. Returns the written path.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on any filesystem failure.
    pub fn save(&self, state: &EngineState) -> Result<PathBuf, ServeError> {
        let mut bytes = Vec::new();
        write_engine_state(&mut bytes, state).map_err(|e| ServeError::io(&self.dir, e))?;
        let path = self.path_for(state.seq);
        write_file_atomically(&path, &bytes).map_err(|e| ServeError::io(&path, e))?;
        self.counters.writes.inc();
        for (_, old) in self.list()?.into_iter().rev().skip(RETAIN) {
            // Pruning is best-effort: a leftover file only wastes space.
            if std::fs::remove_file(old).is_ok() {
                self.counters.prunes.inc();
            }
        }
        Ok(path)
    }

    /// Snapshot files in ascending order of their *embedded* sequence
    /// number. Retention and restore must never order by filename string
    /// or mtime: an unpadded name sorts wrong lexicographically, and
    /// mtimes can collide (coarse filesystem timestamps) or run backwards
    /// (clock skew, restored backups) — either would prune the newest
    /// snapshot. Files without a parseable sequence are not snapshots and
    /// are ignored.
    fn list(&self) -> Result<Vec<(u64, PathBuf)>, ServeError> {
        let mut files: Vec<(u64, PathBuf)> = std::fs::read_dir(&self.dir)
            .map_err(|e| ServeError::io(&self.dir, e))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter_map(|p| Self::parse_seq(&p).map(|seq| (seq, p)))
            .collect();
        files.sort();
        Ok(files)
    }

    /// Loads the newest readable snapshot, if any.
    ///
    /// Files that fail to parse or checksum are *quarantined* (renamed to
    /// `<name>.corrupt`) and the next-newest is tried — one damaged file
    /// never blocks recovery while an older good snapshot exists.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the directory cannot be scanned.
    pub fn load_latest(&self) -> Result<Option<(EngineState, PathBuf)>, ServeError> {
        for (_, path) in self.list()?.into_iter().rev() {
            match std::fs::File::open(&path) {
                Ok(file) => match read_engine_state(io::BufReader::new(file)) {
                    Ok(state) => return Ok(Some((state, path))),
                    Err(_) => self.quarantine(&path),
                },
                Err(_) => self.quarantine(&path),
            }
        }
        Ok(None)
    }

    fn quarantine(&self, path: &Path) {
        let mut to = path.as_os_str().to_owned();
        to.push(".corrupt");
        if std::fs::rename(path, PathBuf::from(to)).is_ok() {
            self.counters.quarantines.inc();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csp_trace::fault::{all_single_byte_flips, Mutation, MutationStream};
    use csp_trace::{LineAddr, NodeId, Pc, SharingEvent, Trace};

    fn training_trace(events: usize) -> Trace {
        let mut t = Trace::new(16);
        let mut prev: Vec<Option<(NodeId, Pc)>> = vec![None; 6];
        for i in 0..events {
            let line = (i % 6) as u64;
            let writer = NodeId(((i * 7) % 16) as u8);
            let pc = Pc(64 + (i % 5) as u32);
            let inv = match prev[line as usize] {
                None => SharingBitmap::empty(),
                Some((w, _)) => {
                    SharingBitmap::from_nodes(&[NodeId((w.index() as u8 + 3) % 16), writer])
                }
            };
            t.push(SharingEvent::new(
                writer,
                pc,
                LineAddr(line),
                NodeId((line % 4) as u8),
                inv,
                prev[line as usize],
            ));
            prev[line as usize] = Some((writer, pc));
        }
        for line in 0..6u64 {
            t.set_final_readers(LineAddr(line), SharingBitmap::from_nodes(&[NodeId(2)]));
        }
        t
    }

    fn trained_state(spec: &str, shards: usize) -> EngineState {
        let trace = training_trace(300);
        let engine = ShardedEngine::new(spec.parse().unwrap(), trace.nodes(), shards);
        engine.replay_trace(&trace).unwrap();
        EngineState::capture(&engine, trace.len() as u64)
    }

    fn assert_states_equal(a: &EngineState, b: &EngineState) {
        // Byte-level determinism doubles as deep equality.
        let (mut ab, mut bb) = (Vec::new(), Vec::new());
        write_engine_state(&mut ab, a).unwrap();
        write_engine_state(&mut bb, b).unwrap();
        assert_eq!(ab, bb);
    }

    #[test]
    fn snapshot_roundtrip_is_bit_identical() {
        for spec in [
            "last(pid+pc8)1[direct]",
            "union(pid+pc4+add4)2[forwarded]",
            "inter(dir+add8)3[direct]",
            "pas(pid+pc6)2[direct]",
        ] {
            let state = trained_state(spec, 4);
            let mut bytes = Vec::new();
            write_engine_state(&mut bytes, &state).unwrap();
            let back = read_engine_state(bytes.as_slice()).unwrap();
            assert_eq!(back.scheme, state.scheme, "{spec}");
            assert_eq!(back.nodes, state.nodes, "{spec}");
            assert_eq!(back.seq, state.seq, "{spec}");
            assert_states_equal(&back, &state);
        }
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let state = trained_state("union(pid+pc8)2[direct]", 3);
        let mut bytes = Vec::new();
        write_engine_state(&mut bytes, &state).unwrap();
        for m in all_single_byte_flips(&bytes, 0x01) {
            let corrupt = m.apply(&bytes);
            assert!(
                read_engine_state(corrupt.as_slice()).is_err(),
                "{m:?} went undetected"
            );
        }
    }

    #[test]
    fn random_mutations_never_panic_the_reader() {
        let state = trained_state("pas(pid+pc4)2[direct]", 2);
        let mut bytes = Vec::new();
        write_engine_state(&mut bytes, &state).unwrap();
        for m in MutationStream::new(bytes.len(), 0xC0FFEE).take(500) {
            let corrupt = m.apply(&bytes);
            let _ = read_engine_state(corrupt.as_slice());
        }
        // Truncations in particular must be clean errors.
        for len in [0, 1, 7, 8, 20, bytes.len() - 1] {
            let m = Mutation::Truncate { len };
            assert!(read_engine_state(m.apply(&bytes).as_slice()).is_err());
        }
    }

    #[test]
    fn impossible_rings_are_rejected_as_invalid_data() {
        // One `union(pid)4` entry after one update: len 1, head 1.
        let scheme: Scheme = "union(pid)4[direct]".parse().unwrap();
        let mut shard = ShardState::empty(&scheme, 16);
        shard
            .table
            .update(5, SharingBitmap::from_nodes(&[NodeId(2)]));
        let state = EngineState {
            scheme,
            nodes: 16,
            seq: 1,
            shards: vec![shard],
        };
        let mut bytes = Vec::new();
        write_engine_state(&mut bytes, &state).unwrap();
        let header = 8 + 2 + scheme.to_string().len() + 1 + 2 + 8 + 4 + 4;
        // Counters, entry count and key, then depth, len and head.
        let ring = header + 8 * 8 + 8 + 8;
        assert_eq!(bytes[ring..ring + 3], [4, 1, 1]);
        let slot = |i: usize| ring + 3 + 8 * i;
        assert!(read_engine_state(bytes.as_slice()).is_ok());
        for (name, at, value) in [
            // Slot 3 lies outside the one stored position (slot 1).
            ("bitmap outside the stored positions", slot(3), 0x01),
            ("head that no update count reaches", ring + 2, 3),
        ] {
            let mut bad = bytes.clone();
            bad[at] = value;
            let body = header..bad.len() - 4;
            let crc = csp_trace::crc32c::checksum(&bad[body.clone()]);
            bad[body.end..].copy_from_slice(&crc.to_le_bytes());
            let err = read_engine_state(bad.as_slice()).expect_err(name);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{name}: {err}");
        }
    }

    #[test]
    fn store_saves_prunes_quarantines_and_restores_the_newest() {
        let dir = std::env::temp_dir().join(format!("csp-snap-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = SnapshotStore::open(&dir).unwrap();
        assert!(store.load_latest().unwrap().is_none());

        let mut state = trained_state("last(pid+pc8)1[direct]", 2);
        for seq in [10, 20, 30] {
            state.seq = seq;
            store.save(&state).unwrap();
        }
        // Pruned down to RETAIN files, newest wins.
        assert_eq!(store.list().unwrap().len(), RETAIN);
        let (loaded, path) = store.load_latest().unwrap().unwrap();
        assert_eq!(loaded.seq, 30);
        assert!(path.ends_with("snap-00000000000000000030.cspsnap"));

        // Corrupt the newest: restore falls back and quarantines.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let (fallback, fb_path) = store.load_latest().unwrap().unwrap();
        assert_eq!(fallback.seq, 20);
        assert!(fb_path.ends_with("snap-00000000000000000020.cspsnap"));
        assert!(!path.exists(), "corrupt file still in the way");
        let mut quarantined = path.as_os_str().to_owned();
        quarantined.push(".corrupt");
        assert!(PathBuf::from(quarantined).exists());

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retention_orders_by_embedded_seq_not_name_or_mtime() {
        let dir = std::env::temp_dir().join(format!("csp-snap-order-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = SnapshotStore::open(&dir).unwrap();
        let mut state = trained_state("last(pid+pc8)1[direct]", 2);

        // Saved newest-first, so mtime order contradicts sequence order.
        state.seq = 30;
        store.save(&state).unwrap();
        state.seq = 10;
        store.save(&state).unwrap();
        // An unpadded filename (an operator-restored backup, say): it
        // sorts *after* every zero-padded name lexicographically even
        // though its sequence is the oldest of all.
        state.seq = 5;
        let mut bytes = Vec::new();
        write_engine_state(&mut bytes, &state).unwrap();
        let unpadded = dir.join("snap-5.cspsnap");
        std::fs::write(&unpadded, &bytes).unwrap();
        // Identical mtimes on everything: a coarse-timestamp filesystem.
        let stamp = std::time::SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(1_000_000);
        for entry in std::fs::read_dir(&dir).unwrap() {
            let f = std::fs::File::options()
                .write(true)
                .open(entry.unwrap().path())
                .unwrap();
            f.set_modified(stamp).unwrap();
        }

        // This save prunes: only the two highest sequences may survive.
        state.seq = 20;
        store.save(&state).unwrap();
        let kept: Vec<u64> = store.list().unwrap().into_iter().map(|(s, _)| s).collect();
        assert_eq!(kept, vec![20, 30], "retention kept the wrong snapshots");
        assert!(!unpadded.exists(), "stale unpadded snapshot survived");
        let (latest, _) = store.load_latest().unwrap().unwrap();
        assert_eq!(latest.seq, 30, "restore picked a stale snapshot");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lifecycle_counters_surface_through_a_registry() {
        let dir = std::env::temp_dir().join(format!("csp-snap-metrics-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = SnapshotStore::open(&dir).unwrap();
        let registry = csp_obs::Registry::new();
        store.bind_metrics(&registry);

        let mut state = trained_state("last(pid+pc8)1[direct]", 2);
        for seq in [1, 2, 3] {
            state.seq = seq;
            store.save(&state).unwrap();
        }
        // Corrupt the newest so a restore must quarantine it.
        let (_, newest) = store.load_latest().unwrap().unwrap();
        std::fs::write(&newest, b"garbage").unwrap();
        store.load_latest().unwrap().unwrap();

        let samples = csp_obs::parse_text(&registry.encode_prometheus());
        let get = |name: &str| csp_obs::sum_counter(&samples, name);
        assert_eq!(get("csp_snapshot_writes_total"), 3);
        assert_eq!(get("csp_snapshot_prunes_total"), 1); // 3 saved, RETAIN=2
        assert_eq!(get("csp_snapshot_quarantines_total"), 1);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restore_then_capture_resaves_byte_for_byte() {
        let trace = training_trace(300);
        let scheme: Scheme = "union(pid+pc8)2[forwarded]".parse().unwrap();
        let engine = ShardedEngine::new(scheme, trace.nodes(), 3);
        engine.replay_trace(&trace).unwrap();
        // Query counts live outside the workers' state; the bytes must
        // still carry them.
        engine.predict_keys(&(0..100).collect::<Vec<u64>>());
        let mut saved = Vec::new();
        write_engine_state(&mut saved, &EngineState::capture(&engine, 7)).unwrap();
        let restored = read_engine_state(saved.as_slice())
            .unwrap()
            .restore()
            .unwrap();
        assert_eq!(restored.stats().queries, 100);
        let mut resaved = Vec::new();
        write_engine_state(&mut resaved, &EngineState::capture(&restored, 7)).unwrap();
        assert_eq!(saved, resaved);
    }

    #[test]
    fn restored_engine_predicts_identically() {
        let trace = training_trace(300);
        let scheme: Scheme = "union(pid+pc8)2[forwarded]".parse().unwrap();
        let engine = ShardedEngine::new(scheme, trace.nodes(), 4);
        engine.replay_trace(&trace).unwrap();
        let mut bytes = Vec::new();
        write_engine_state(&mut bytes, &EngineState::capture(&engine, 0)).unwrap();
        let restored = read_engine_state(bytes.as_slice())
            .unwrap()
            .restore()
            .unwrap();

        let nb = csp_core::node_bits(trace.nodes());
        let keys: Vec<u64> = trace
            .events()
            .iter()
            .map(|e| scheme.index.key_of(e, nb))
            .collect();
        assert_eq!(engine.predict_keys(&keys), restored.predict_keys(&keys));
        let (a, b) = (engine.stats(), restored.stats());
        assert_eq!(a.confusion, b.confusion);
        assert_eq!(a.updates, b.updates);
        assert_eq!(a.entries, b.entries);
    }
}
