//! One adversarial suite for every append-only log built on
//! `csp_trace::frame`: the replication journal, the decision audit log,
//! the `csp-bar` trajectory and the sweep checkpoint.
//!
//! Each format is driven through its public reader with a small file of
//! three frames, cut at every byte and with every single bit flipped:
//!
//! * damage in the header is an error (for the checkpoint, a cache, the
//!   file restarts instead);
//! * a cut after the header reads back as a prefix of whole frames, torn
//!   exactly when the cut is off a frame boundary;
//! * a flip is an error or, only inside the final frame, that frame
//!   dropped as torn (the checkpoint instead keeps the frames before the
//!   damaged one and recomputes the rest);
//! * nothing ever decodes to a record that differs from what was written.

use csp::bar::record::{read_records, write_records};
use csp::bar::{BarRecord, SCHEMA_VERSION, TRAJECTORY_FORMAT};
use csp::core::engine::FamilyResult;
use csp::core::{IndexSpec, UpdateMode};
use csp::harness::checkpoint::{CheckpointPayload, SweepCheckpoint};
use csp::harness::runner::FamilyCell;
use csp::metrics::ConfusionMatrix;
use csp::trace::audit::{read_audit_log, AuditHeader, AuditRecord, AuditWriter};
use csp::trace::frame::FrameReader;
use csp::trace::journal::{read_journal, JournalHeader, JournalSegment, SegmentWriter};
use csp::trace::SharingBitmap;
use std::fmt::Debug;

/// What a public reader made of some bytes: every record it returned and
/// whether it reported a torn tail, or its error message.
type Outcome<T> = Result<(Vec<T>, bool), String>;

/// One format's sample file and what each of its frames holds.
struct Case<T> {
    name: &'static str,
    bytes: Vec<u8>,
    header: usize,
    /// Encoded size of each frame, from the format's own layout.
    sizes: Vec<usize>,
    /// The records each frame holds, in write order.
    frames: Vec<Vec<T>>,
    /// A cache recovers from corruption by keeping the frames before the
    /// damage; every other format refuses the read.
    truncates_on_corruption: bool,
}

impl<T: Clone + PartialEq + Debug> Case<T> {
    fn prefix(&self, frames: usize) -> Vec<T> {
        self.frames[..frames].concat()
    }

    fn check(&self, read: impl Fn(&[u8]) -> Outcome<T>) {
        let name = self.name;
        let mut ends = vec![self.header];
        for size in &self.sizes {
            ends.push(ends[ends.len() - 1] + size);
        }
        assert_eq!(
            ends[ends.len() - 1],
            self.bytes.len(),
            "{name}: frame sizes"
        );
        let last = self.frames.len() - 1;
        // The frame holding byte `at`, 0-based.
        let frame_of = |at: usize| ends.iter().filter(|&&e| e <= at).count() - 1;

        assert_eq!(
            read(&self.bytes),
            Ok((self.prefix(self.frames.len()), false)),
            "{name}"
        );

        for cut in 0..self.bytes.len() {
            let got = read(&self.bytes[..cut]);
            if cut < self.header {
                assert!(
                    got.is_err(),
                    "{name}: cut at {cut} inside the header read {got:?}"
                );
                continue;
            }
            let torn = !ends.contains(&cut);
            assert_eq!(
                got,
                Ok((self.prefix(frame_of(cut)), torn)),
                "{name}: cut at {cut}"
            );
        }

        for at in 0..self.bytes.len() {
            for bit in 0..8 {
                let mut hurt = self.bytes.clone();
                hurt[at] ^= 1 << bit;
                let got = read(&hurt);
                if at < self.header {
                    assert!(got.is_err(), "{name}: header flip {at}.{bit} read {got:?}");
                    continue;
                }
                let k = frame_of(at);
                match got {
                    Err(e) => {
                        assert!(
                            !self.truncates_on_corruption,
                            "{name}: flip {at}.{bit}: {e}"
                        );
                        assert!(e.contains("at byte"), "{name}: flip {at}.{bit}: {e}");
                    }
                    Ok((records, torn)) => {
                        assert!(torn, "{name}: flip {at}.{bit} went unnoticed");
                        assert_eq!(records, self.prefix(k), "{name}: flip {at}.{bit}");
                        assert!(
                            self.truncates_on_corruption || k == last,
                            "{name}: flip {at}.{bit} in frame {k} of {} read as a torn tail",
                            last + 1
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn journal_survives_every_cut_and_flip() {
    let seg = |count, records: &[u8]| {
        vec![JournalSegment {
            count,
            records: records.to_vec(),
        }]
    };
    let frames = vec![seg(2, b"abcde"), seg(3, b"fghijklmn"), seg(1, b"op")];
    let header = JournalHeader {
        fingerprint: 0xFEED_FACE,
        start_offset: 40,
        epoch: 3,
    };
    let mut bytes = Vec::new();
    let mut w = SegmentWriter::create(&mut bytes, &header).unwrap();
    for seg in frames.iter().flatten() {
        w.append(seg.count, &seg.records).unwrap();
    }
    let case = Case {
        name: "journal",
        header: 8 + 20 + 4,
        sizes: frames.iter().map(|s| 12 + s[0].records.len()).collect(),
        frames,
        bytes,
        truncates_on_corruption: false,
    };
    case.check(|bytes| {
        let back = read_journal(bytes).map_err(|e| e.to_string())?;
        assert_eq!(back.header, header);
        Ok((back.segments, back.torn))
    });
}

#[test]
fn audit_log_survives_every_cut_and_flip() {
    let record = |seq: u64| AuditRecord {
        seq,
        key: seq.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        predicted: SharingBitmap::from_bits(seq << 3),
        actual: SharingBitmap::from_bits(seq | 1),
        epoch: 2,
        shard: (seq % 3) as u16,
    };
    let frames = vec![vec![record(0)], vec![record(1), record(2)], vec![record(3)]];
    let header = AuditHeader {
        fingerprint: 0xdead_f00d,
        shards: 3,
        sample: 1,
    };
    let mut bytes = Vec::new();
    let mut w = AuditWriter::create(&mut bytes, &header).unwrap();
    for frame in &frames {
        w.append(frame).unwrap();
    }
    let case = Case {
        name: "audit log",
        header: 8 + 10 + 4,
        sizes: frames.iter().map(|f| 8 + 42 * f.len()).collect(),
        frames,
        bytes,
        truncates_on_corruption: false,
    };
    case.check(|bytes| {
        let log = read_audit_log(bytes, None).map_err(|e| e.to_string())?;
        assert_eq!(log.header, header);
        Ok((log.records, log.torn))
    });
}

#[test]
fn trajectory_survives_every_cut_and_flip() {
    let record = |i: u64| BarRecord {
        schema: SCHEMA_VERSION,
        fingerprint: 0xABCD_0000 + i,
        run: format!("run-{i}"),
        unix_ms: 1_700_000_000_000 + i,
        git_rev: "abc123".to_string(),
        host: "host".to_string(),
        engine: "simd".to_string(),
        workload: "water".to_string(),
        scheme: "last(pid)1[direct]".to_string(),
        scale: 0.05,
        seed: i,
        warmup: 1,
        iters: 2,
        shards: 0,
        events: 100 + i,
        seconds: 0.5,
        events_per_sec: 200.0,
        samples: vec![0.5, 0.75],
        p50_ns: 4_096,
        p99_ns: 8_192,
    };
    let frames: Vec<Vec<BarRecord>> = (0..3).map(|i| vec![record(i)]).collect();
    let mut bytes = Vec::new();
    write_records(&mut bytes, &frames.concat()).unwrap();
    let case = Case {
        name: "trajectory",
        header: 8 + 4,
        sizes: frames.iter().map(|r| 8 + r[0].to_json().len()).collect(),
        frames,
        bytes,
        truncates_on_corruption: false,
    };
    case.check(|bytes| {
        let records = read_records(bytes).map_err(|e| e.to_string())?;
        // The trajectory reader keeps its torn flag to itself; read it
        // from the frame layer the reader is built on.
        let mut frames = FrameReader::open(bytes, &TRAJECTORY_FORMAT).unwrap();
        assert_eq!(frames.by_ref().count(), records.len());
        Ok((records, frames.torn()))
    });
}

#[test]
fn checkpoint_survives_every_cut_and_flip() {
    const FINGERPRINT: u64 = 0x5eed;
    let cell = |i: u64| FamilyCell {
        index: IndexSpec::new(true, i as u8, false, 2),
        update: UpdateMode::Forwarded,
        per_benchmark: vec![FamilyResult {
            union: vec![ConfusionMatrix {
                tp: i,
                fp: 2,
                tn: 3,
                fn_: 4,
            }],
            inter: vec![ConfusionMatrix::default()],
        }],
    };
    let dir = std::env::temp_dir().join(format!("csp-durable-{}", std::process::id()));
    let path = dir.join("sweep.ckpt");
    let cells: Vec<(usize, FamilyCell)> = [(4, cell(1)), (0, cell(2)), (9, cell(3))].into();
    {
        let (mut ckpt, done) = SweepCheckpoint::<FamilyCell>::open(&path, FINGERPRINT).unwrap();
        assert!(done.is_empty());
        for (index, c) in &cells {
            ckpt.record(*index, c).unwrap();
        }
    }
    let bytes = std::fs::read(&path).unwrap();
    let sizes = cells
        .iter()
        .map(|(_, c)| {
            let mut payload = Vec::new();
            c.encode(&mut payload);
            12 + payload.len()
        })
        .collect();
    let header = 8 + 12 + 4;
    let case = Case {
        name: "sweep checkpoint",
        header,
        sizes,
        frames: cells.iter().map(|cell| vec![cell.clone()]).collect(),
        bytes,
        truncates_on_corruption: true,
    };
    case.check(|bytes| {
        std::fs::write(&path, bytes).unwrap();
        let (ckpt, done) =
            SweepCheckpoint::<FamilyCell>::open(&path, FINGERPRINT).map_err(|e| e.to_string())?;
        drop(ckpt);
        let kept = std::fs::read(&path).unwrap();
        // A restarted checkpoint holds a fresh header where the damaged
        // or missing one was: the file was refused.
        if bytes.len() < header || kept[..header] != bytes[..header] {
            assert!(done.is_empty() && kept.len() == header);
            return Err("restarted".to_string());
        }
        Ok((done, kept.len() < bytes.len()))
    });
    // The log keeps working after recovery: the cell lost to a tear is
    // recorded again, and the next open resumes every cell.
    std::fs::write(&path, &case.bytes[..case.bytes.len() - 5]).unwrap();
    let (mut ckpt, done) = SweepCheckpoint::<FamilyCell>::open(&path, FINGERPRINT).unwrap();
    assert_eq!(done, cells[..2]);
    ckpt.record(cells[2].0, &cells[2].1).unwrap();
    drop(ckpt);
    let (_, done) = SweepCheckpoint::<FamilyCell>::open(&path, FINGERPRINT).unwrap();
    assert_eq!(done, cells);
    let _ = std::fs::remove_dir_all(&dir);
}
