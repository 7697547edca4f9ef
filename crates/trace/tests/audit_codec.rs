//! Property tests for the audit-record codec: round-trips over
//! adversarial field contents, the sampling predicate, and
//! version-fingerprint gatekeeping. Torn tails and corruption are
//! covered for every framed format by the root `durable_formats` suite.

use csp_trace::audit::{
    read_audit_log, sample_keeps, AuditHeader, AuditRecord, AuditWriter, RECORD_LEN,
};
use csp_trace::SharingBitmap;
use proptest::prelude::*;

/// Keys, bitmaps, and epochs drawn from the full u64 range plus the
/// classic boundary values the generators rarely hit on their own.
fn wild_u64() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        Just(1u64),
        Just(u64::MAX),
        Just(u64::MAX - 1),
        Just(1u64 << 63),
        Just(0x5555_5555_5555_5555),
        Just(0xAAAA_AAAA_AAAA_AAAA),
        any::<u64>(),
    ]
}

fn arbitrary_record() -> impl Strategy<Value = AuditRecord> {
    (
        wild_u64(),
        wild_u64(),
        wild_u64(),
        wild_u64(),
        wild_u64(),
        any::<u16>(),
    )
        .prop_map(|(seq, key, predicted, actual, epoch, shard)| AuditRecord {
            seq,
            key,
            predicted: SharingBitmap::from_bits(predicted),
            actual: SharingBitmap::from_bits(actual),
            epoch,
            shard,
        })
}

fn arbitrary_header() -> impl Strategy<Value = AuditHeader> {
    (any::<u32>(), 1u16..=u16::MAX, any::<u32>()).prop_map(|(fingerprint, shards, sample)| {
        AuditHeader {
            fingerprint,
            shards,
            sample,
        }
    })
}

fn encode_log(header: &AuditHeader, records: &[AuditRecord]) -> Vec<u8> {
    let mut buf = Vec::new();
    let mut w = AuditWriter::create(&mut buf, header).expect("in-memory create");
    w.append(records).expect("in-memory append");
    buf
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any record — every u64 boundary value in every field — survives
    /// the fixed 42-byte encode/decode exactly.
    #[test]
    fn prop_record_encoding_round_trips(record in arbitrary_record()) {
        let bytes = record.encode();
        prop_assert_eq!(bytes.len(), RECORD_LEN);
        prop_assert_eq!(AuditRecord::decode(&bytes), record);
    }

    /// Full log framing round-trips a batch of arbitrary records under an
    /// arbitrary header, split across several appends.
    #[test]
    fn prop_log_round_trips(
        header in arbitrary_header(),
        records in proptest::collection::vec(arbitrary_record(), 0..64),
        split in 0usize..64,
    ) {
        let mut buf = Vec::new();
        let mut w = AuditWriter::create(&mut buf, &header).expect("create");
        let cut = split.min(records.len());
        w.append(&records[..cut]).expect("append");
        w.append(&records[cut..]).expect("append");
        let log = read_audit_log(buf.as_slice(), Some(header.fingerprint))
            .expect("read back");
        prop_assert_eq!(log.header, header);
        prop_assert_eq!(log.records, records);
        prop_assert!(!log.torn);
    }

    /// The sampling predicate is a pure function of the key: whatever an
    /// engine kept, an offline verifier keeps — and `sample <= 1` keeps
    /// everything.
    #[test]
    fn prop_sampling_is_a_pure_key_predicate(key in wild_u64(), sample in any::<u32>()) {
        prop_assert_eq!(sample_keeps(key, sample), sample_keeps(key, sample));
        if sample <= 1 {
            prop_assert!(sample_keeps(key, sample));
        }
    }
}

/// A log recorded under a different version fingerprint is rejected at
/// the header, before any record is read, naming both values.
#[test]
fn fingerprint_mismatch_is_rejected_with_both_values() {
    let header = AuditHeader {
        fingerprint: 0x1111_2222,
        shards: 4,
        sample: 1,
    };
    let buf = encode_log(&header, &[]);
    read_audit_log(buf.as_slice(), Some(0x1111_2222)).expect("matching fingerprint reads");
    read_audit_log(buf.as_slice(), None).expect("unchecked read is allowed");
    let err = read_audit_log(buf.as_slice(), Some(0x3333_4444)).expect_err("mismatch");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    let msg = err.to_string();
    assert!(
        msg.contains("0x11112222") && msg.contains("0x33334444"),
        "{msg}"
    );
}
