//! Durable journal segments: the append-only on-disk log replication
//! builds on (`csp-serve`).
//!
//! A journal file is a [`crate::frame`] log. Each frame is one
//! *segment*: an opaque batch of records the caller defines.
//!
//! ```text
//! file:
//!   magic "CSPJRNL3"
//!   header: fingerprint u32 | start_offset u64 | epoch u64 | crc u32
//!           (crc over the magic and the 20 header bytes)
//! segment (one frame, repeated):
//!   len u32 | count u32 | records[len - 4] | crc u32     (crc over len, count and records)
//! ```
//!
//! The epoch is an opaque caller-defined term; replication uses it to
//! fence writes from a deposed leader across a failover.
//!
//! # Failure model
//!
//! The writer flushes after every appended segment, so a process killed
//! hard (SIGKILL, power loss short of media failure) leaves at most one
//! *torn* segment at the tail. [`read_journal`] applies the frame
//! layer's torn-tail rule: it returns every whole segment and reports a
//! torn tail with [`JournalContents::torn`]; any other damage, such as a
//! flipped byte followed by whole segments, is an error naming the byte
//! offset. A new writer then starts a *new* file at the recovered offset
//! instead of appending past the tear.
//!
//! # Example
//!
//! ```
//! use csp_trace::journal::{read_journal, JournalHeader, SegmentWriter};
//!
//! let mut bytes = Vec::new();
//! let header = JournalHeader { fingerprint: 0xFEED, start_offset: 42, epoch: 3 };
//! let mut w = SegmentWriter::create(&mut bytes, &header)?;
//! w.append(2, b"ab")?;
//! w.append(1, b"c")?;
//! let back = read_journal(bytes.as_slice())?;
//! assert_eq!(back.header.start_offset, 42);
//! assert_eq!(back.header.epoch, 3);
//! assert_eq!(back.segments.len(), 2);
//! assert!(!back.torn);
//! # Ok::<(), std::io::Error>(())
//! ```

use crate::frame::{u32_at, u64_at, Format, FrameReader, FrameWriter};
use std::io::{self, Read, Write};

/// Hard ceiling on one segment's record bytes: bounds what a corrupt
/// length field can make the reader allocate.
pub const MAX_SEGMENT_BYTES: usize = 1 << 24;

/// The journal file format (version 3: the header CRC covers the magic
/// and the segment count sits inside the frame body).
pub const JOURNAL_FORMAT: Format = Format {
    name: "journal",
    magic: *b"CSPJRNL3",
    header_len: 20,
    max_body: 4 + MAX_SEGMENT_BYTES as u32,
};

/// The self-describing prefix of a journal file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JournalHeader {
    /// Caller-defined compatibility fingerprint; a reader that expects a
    /// different fingerprint must treat the file as foreign.
    pub fingerprint: u32,
    /// The logical offset (in records) of the first record in this file.
    pub start_offset: u64,
    /// Caller-defined epoch (fencing term) the records were written
    /// under.
    pub epoch: u64,
}

/// One decoded segment: `count` records packed into `records` (the
/// caller defines the record encoding).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JournalSegment {
    /// Number of records in this segment.
    pub count: u32,
    /// The packed record bytes.
    pub records: Vec<u8>,
}

/// Everything [`read_journal`] recovered from one file.
#[derive(Clone, Debug)]
pub struct JournalContents {
    /// The file header.
    pub header: JournalHeader,
    /// Whole, checksum-verified segments, in append order.
    pub segments: Vec<JournalSegment>,
    /// `true` when the file ended in a torn segment that was discarded;
    /// the recovered prefix is still trustworthy.
    pub torn: bool,
}

/// Appends segments to a journal, flushing after each so a hard kill
/// loses at most the segment being written.
#[derive(Debug)]
pub struct SegmentWriter<W: Write> {
    inner: FrameWriter<W>,
}

impl<W: Write> SegmentWriter<W> {
    /// Writes the magic and header, returning a writer positioned for
    /// the first segment.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn create(inner: W, header: &JournalHeader) -> io::Result<Self> {
        let mut fields = [0u8; 20];
        fields[..4].copy_from_slice(&header.fingerprint.to_le_bytes());
        fields[4..12].copy_from_slice(&header.start_offset.to_le_bytes());
        fields[12..].copy_from_slice(&header.epoch.to_le_bytes());
        Ok(SegmentWriter {
            inner: FrameWriter::create(inner, &JOURNAL_FORMAT, &fields)?,
        })
    }

    /// Appends one segment of `count` records packed into `records` and
    /// flushes, so the segment is out of this process's hands when the
    /// call returns.
    ///
    /// # Errors
    ///
    /// Rejects segments over [`MAX_SEGMENT_BYTES`]; propagates I/O
    /// errors.
    pub fn append(&mut self, count: u32, records: &[u8]) -> io::Result<()> {
        self.inner.append(&[&count.to_le_bytes(), records])
    }

    /// [`append`](Self::append) for a segment whose checksum the caller
    /// already holds: `body_crc` is the CRC32c of `count` (little-endian)
    /// followed by `records`, the segment's frame body. The records go
    /// out without being read for a checksum again.
    ///
    /// # Errors
    ///
    /// As [`append`](Self::append).
    pub fn append_checksummed(
        &mut self,
        count: u32,
        records: &[u8],
        body_crc: u32,
    ) -> io::Result<()> {
        self.inner
            .append_checksummed(&[&count.to_le_bytes(), records], body_crc)
    }
}

/// Reads a journal, tolerating a torn tail: every whole, checksummed
/// segment is returned and a torn tail is reported as
/// [`JournalContents::torn`].
///
/// # Errors
///
/// [`io::ErrorKind::InvalidData`] when the header is bad (nothing can be
/// trusted then) or a segment is damaged anywhere but a torn tail, with
/// the byte offset in the message; transport errors propagate.
pub fn read_journal<R: Read>(r: R) -> io::Result<JournalContents> {
    let mut frames = FrameReader::open(r, &JOURNAL_FORMAT)?;
    let fields = frames.header();
    let header = JournalHeader {
        fingerprint: u32_at(fields, 0),
        start_offset: u64_at(fields, 4),
        epoch: u64_at(fields, 12),
    };
    let mut segments = Vec::new();
    while let Some(frame) = frames.next() {
        let mut records = frame?;
        if records.len() < 4 {
            return Err(frames.corrupt_body(records.len(), "segment has no record count"));
        }
        let count = u32_at(&records, 0);
        records.drain(..4);
        segments.push(JournalSegment { count, records });
    }
    Ok(JournalContents {
        header,
        segments,
        torn: frames.torn(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crc32c;

    #[test]
    fn oversized_append_is_rejected() {
        let mut bytes = Vec::new();
        let header = JournalHeader {
            fingerprint: 1,
            start_offset: 0,
            epoch: 1,
        };
        let mut w = SegmentWriter::create(&mut bytes, &header).unwrap();
        let big = vec![0u8; MAX_SEGMENT_BYTES + 1];
        assert!(w.append(1, &big).is_err());
    }

    #[test]
    fn checksummed_append_writes_the_same_bytes() {
        let header = JournalHeader {
            fingerprint: 7,
            start_offset: 3,
            epoch: 2,
        };
        let (records, count) = (b"seventeen bytes!!", 1u32);
        let mut plain = Vec::new();
        SegmentWriter::create(&mut plain, &header)
            .and_then(|mut w| w.append(count, records))
            .unwrap();
        let mut body = count.to_le_bytes().to_vec();
        body.extend_from_slice(records);
        let mut derived = Vec::new();
        SegmentWriter::create(&mut derived, &header)
            .and_then(|mut w| w.append_checksummed(count, records, crc32c::checksum(&body)))
            .unwrap();
        assert_eq!(plain, derived);
        assert_eq!(read_journal(derived.as_slice()).unwrap().segments.len(), 1);
    }
}
