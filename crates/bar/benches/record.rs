//! Bench the measurement-record codec: JSON encode, the CRC32c-framed
//! stream write, and the torn-tail-tolerant read back.
//!
//! The trajectory file is append-only and read in full by `diff`,
//! `rank`, and every CI `check`, so decode throughput bounds how long a
//! committed history can grow before gating gets slow.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use csp_bar::record::{read_records, write_records};
use csp_bar::{BarRecord, SCHEMA_VERSION};

fn sample(i: u64) -> BarRecord {
    BarRecord {
        schema: SCHEMA_VERSION,
        fingerprint: 0x00C0_FFEE_0000_0000 | i,
        run: format!("bench-run-{}", i / 63),
        unix_ms: 1_700_000_000_000 + i,
        git_rev: "abc123def456".to_string(),
        host: "linux-x86_64-benchbox".to_string(),
        engine: ["reference", "simd", "sharded"][(i % 3) as usize].to_string(),
        workload: [
            "barnes", "em3d", "gauss", "mp3d", "ocean", "unstruct", "water",
        ][(i % 7) as usize]
            .to_string(),
        scheme: "union(pid+pc8)2[forwarded]".to_string(),
        scale: 0.05,
        seed: 1,
        warmup: 1,
        iters: 3,
        shards: if i % 3 == 2 { 4 } else { 0 },
        events: 100_000 + i,
        seconds: 0.004 + (i as f64) * 1e-6,
        events_per_sec: 25_000_000.0 + (i as f64),
        samples: vec![
            0.004 + (i as f64) * 1e-6,
            0.0041 + (i as f64) * 1e-6,
            0.00405 + (i as f64) * 1e-6,
        ],
        p50_ns: 4_194_304,
        p99_ns: 8_388_608,
    }
}

fn bench_record_codec(c: &mut Criterion) {
    // A plausible multi-year trajectory: ~16 runs of the full
    // 7x3x3 matrix.
    const RECORDS: u64 = 1008;
    let records: Vec<BarRecord> = (0..RECORDS).map(sample).collect();
    let mut encoded = Vec::new();
    write_records(&mut encoded, &records).expect("in-memory write");

    let mut group = c.benchmark_group("bar_record_codec");
    group.throughput(Throughput::Elements(RECORDS));
    group.bench_function("encode_stream", |b| {
        b.iter(|| {
            let mut buf = Vec::with_capacity(encoded.len());
            write_records(&mut buf, &records).expect("in-memory write");
            buf
        })
    });
    group.bench_function("decode_stream", |b| {
        b.iter(|| read_records(&encoded[..]).expect("decode"))
    });
    group.bench_function("json_round_trip_one", |b| {
        let one = sample(7);
        b.iter(|| BarRecord::from_json(&one.to_json()).expect("round-trip"))
    });
    group.finish();
}

criterion_group!(benches, bench_record_codec);
criterion_main!(benches);
