//! Robustness tests for the trajectory record codec: property-based
//! round-trips over adversarial field contents, torn-tail tolerance at
//! every byte boundary, and fingerprint gatekeeping against a
//! definitions file.

use csp_bar::record::{
    append_records_file, read_records, read_records_file, require_fingerprint, write_records,
};
use csp_bar::{BarDefs, BarRecord, SCHEMA_VERSION};
use proptest::prelude::*;

/// Strings drawn from a deliberately nasty alphabet: quotes, escapes,
/// control characters, multi-byte code points, JSON syntax.
fn wild_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(0u32..16, 0..24).prop_map(|picks| {
        const ALPHABET: [char; 16] = [
            'a',
            'Z',
            '9',
            '"',
            '\\',
            '\n',
            '\t',
            '\u{1}',
            '\u{1f}',
            '{',
            '}',
            ':',
            ',',
            'é',
            '€',
            '\u{10348}',
        ];
        picks.into_iter().map(|i| ALPHABET[i as usize]).collect()
    })
}

fn milli_f64() -> impl Strategy<Value = f64> {
    (1u64..2_000_000_000).prop_map(|v| v as f64 / 1000.0)
}

/// Sample durations as multiples of 1/512 s: at most 9 fractional
/// decimal digits, so the `{:.9}` JSON rendering is exact and samples
/// round-trip bit for bit.
fn exact_f64() -> impl Strategy<Value = f64> {
    (1u64..1_000_000).prop_map(|v| v as f64 / 512.0)
}

fn arbitrary_record() -> impl Strategy<Value = BarRecord> {
    (
        (wild_string(), wild_string(), wild_string(), wild_string()),
        (wild_string(), wild_string()),
        (
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            0u32..1000,
            0u32..1000,
        ),
        (
            milli_f64(),
            milli_f64(),
            any::<u64>(),
            any::<u64>(),
            0u32..64,
        ),
        proptest::collection::vec(exact_f64(), 0..6),
    )
        .prop_map(
            |(
                (run, git_rev, host, engine),
                (workload, scheme),
                (fingerprint, unix_ms, seed, warmup, iters),
                (seconds, events_per_sec, p50_ns, p99_ns, shards),
                samples,
            )| BarRecord {
                schema: SCHEMA_VERSION,
                fingerprint,
                run,
                unix_ms,
                git_rev,
                host,
                engine,
                workload,
                scheme,
                scale: 0.05,
                seed,
                warmup,
                iters: iters.max(1),
                shards,
                events: unix_ms.wrapping_mul(31) % 1_000_000,
                seconds,
                events_per_sec,
                samples,
                p50_ns,
                p99_ns,
            },
        )
}

/// `to_json` rounds seconds/events_per_sec to fixed precision; compare
/// everything else exactly and those within the printed precision.
fn assert_round_trip_eq(a: &BarRecord, b: &BarRecord) {
    assert!(
        (a.seconds - b.seconds).abs() < 1e-6,
        "{} vs {}",
        a.seconds,
        b.seconds
    );
    assert!(
        (a.events_per_sec - b.events_per_sec).abs() < 1e-2,
        "{} vs {}",
        a.events_per_sec,
        b.events_per_sec
    );
    let mut a = a.clone();
    let mut b = b.clone();
    a.seconds = 0.0;
    b.seconds = 0.0;
    a.events_per_sec = 0.0;
    b.events_per_sec = 0.0;
    assert_eq!(a, b);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any record — including quotes, backslashes, control characters,
    /// and astral-plane code points in every string field — survives
    /// JSON encode/decode.
    #[test]
    fn prop_json_round_trips(record in arbitrary_record()) {
        let back = BarRecord::from_json(&record.to_json()).expect("parse back");
        assert_round_trip_eq(&record, &back);
    }

    /// Full stream framing round-trips a batch of arbitrary records.
    #[test]
    fn prop_stream_round_trips(records in proptest::collection::vec(arbitrary_record(), 0..8)) {
        let mut buf = Vec::new();
        write_records(&mut buf, &records).expect("in-memory write");
        let back = read_records(&buf[..]).expect("read back");
        assert_eq!(back.len(), records.len());
        for (a, b) in records.iter().zip(&back) {
            assert_round_trip_eq(a, b);
        }
    }
}

/// A crash mid-append may truncate the file at ANY byte. Everything
/// after the 12-byte header (magic + CRC) must read back as a clean
/// prefix of fully-checksummed records — never an error, never a
/// half-parsed record.
#[test]
fn torn_tail_at_every_byte_boundary_yields_a_clean_prefix() {
    let records: Vec<BarRecord> = (0..3)
        .map(|i| {
            let mut r = sample(i);
            r.run = format!("torn-{i}");
            r
        })
        .collect();
    let mut buf = Vec::new();
    write_records(&mut buf, &records).expect("in-memory write");
    let header = csp_bar::RECORD_MAGIC.len() + 4;

    // Frame boundaries: after the header, then after each record frame.
    let mut boundaries = vec![header];
    for r in &records {
        let frame = 4 + r.to_json().len() + 4;
        boundaries.push(boundaries.last().copied().unwrap_or(0) + frame);
    }
    assert_eq!(*boundaries.last().expect("nonempty"), buf.len());

    for cut in 0..=buf.len() {
        let torn = &buf[..cut];
        if cut < header {
            // Inside the header there is no trajectory to salvage.
            assert!(read_records(torn).is_err(), "cut {cut} should be fatal");
            continue;
        }
        let got = read_records(torn).unwrap_or_else(|e| panic!("cut {cut}: {e}"));
        let complete = boundaries
            .iter()
            .filter(|&&b| b > header && b <= cut)
            .count();
        assert_eq!(got.len(), complete, "cut {cut}");
        for (a, b) in records.iter().take(complete).zip(&got) {
            assert_eq!(a.run, b.run, "cut {cut}");
        }
    }
}

/// Corruption *inside* a complete record (not at the tail) must be an
/// error — torn-tail tolerance must never become silent data loss.
#[test]
fn mid_file_corruption_is_fatal_not_skipped() {
    let records = vec![sample(1), sample(2), sample(3)];
    let mut buf = Vec::new();
    write_records(&mut buf, &records).expect("in-memory write");
    // Flip a byte inside the first record's JSON body (well past the
    // header, well before the tail).
    let at = csp_bar::RECORD_MAGIC.len() + 4 + 4 + 10;
    buf[at] ^= 0x40;
    let err = read_records(&buf[..]).expect_err("corruption must surface");
    assert!(err.to_string().contains("measurement record"), "{err}");
}

/// Records measured under a different matrix shape are rejected against
/// the definitions file's fingerprint.
#[test]
fn fingerprint_mismatch_against_defs_is_rejected() {
    let defs = BarDefs::builtin();
    let mut matching = sample(1);
    matching.fingerprint = defs.fingerprint();
    let mut reshaped = sample(2);
    reshaped.fingerprint = {
        let mut other = defs.clone();
        other.schemes.pop();
        other.fingerprint()
    };
    assert_ne!(matching.fingerprint, reshaped.fingerprint);

    require_fingerprint(&[matching.clone()], defs.fingerprint()).expect("matching history gates");
    let err = require_fingerprint(&[matching, reshaped], defs.fingerprint())
        .expect_err("reshaped history must not gate");
    let msg = err.to_string();
    assert!(msg.contains("fingerprint"), "{msg}");
    assert!(msg.contains("record 1"), "{msg}");
}

/// The on-disk append path tolerates a torn tail and keeps accepting
/// appends afterwards (the reader simply stops at the tear).
#[test]
fn torn_file_on_disk_still_reads_its_prefix() {
    let dir = std::env::temp_dir().join(format!("csp-bar-torn-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let path = dir.join("trajectory.bar");
    append_records_file(&path, &[sample(1), sample(2)]).expect("create");
    // Tear the file mid-way through the second record.
    let bytes = std::fs::read(&path).expect("read file");
    let first_frame_end = csp_bar::RECORD_MAGIC.len() + 4 + 4 + sample(1).to_json().len() + 4;
    std::fs::write(&path, &bytes[..first_frame_end + 7]).expect("tear");
    let got = read_records_file(&path).expect("prefix survives");
    assert_eq!(got.len(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

fn sample(i: u64) -> BarRecord {
    BarRecord {
        schema: SCHEMA_VERSION,
        fingerprint: 0xABCD_0000 + i,
        run: format!("run-{i}"),
        unix_ms: 1_700_000_000_000 + i,
        git_rev: "abc123def456".to_string(),
        host: "linux-x86_64-testbox".to_string(),
        engine: "simd".to_string(),
        workload: "water".to_string(),
        scheme: "union(pid+pc8)2[forwarded]".to_string(),
        scale: 0.05,
        seed: 1,
        warmup: 1,
        iters: 3,
        shards: 0,
        events: 123_456,
        seconds: 0.004,
        events_per_sec: 30_864_000.0,
        samples: vec![0.004, 0.005, 0.004_5],
        p50_ns: 4_194_304,
        p99_ns: 8_388_608,
    }
}
