//! A compact, self-describing, *checksummed* binary on-disk format for
//! traces.
//!
//! Traces can be expensive to regenerate (they come out of the
//! memory-system simulator), so the harness caches them on disk (see
//! `csp-harness`'s `cache` module). The format is deliberately simple —
//! little-endian fixed-width fields with a magic header and version byte —
//! and has no external dependencies. Version 2 adds per-section CRC32c
//! checksums ([`crate::crc32c`]) so that a bit-flip inside a structurally
//! valid file is detected instead of silently skewing results.
//!
//! # Layout (version 2)
//!
//! ```text
//! magic      [8]  b"CSPTRC\0\0"
//! version    [1]  2
//! nodes      [1]
//! n_events   [8]  u64
//! events     [n_events x 32]:
//!     writer[1] pc[4] line[8] home[1] invalidated[8]
//!     has_prev[1] prev_writer[1] prev_pc[4] pad[4] (pad must be zero)
//! events_crc [4]  CRC32c of every byte above (magic through events)
//! n_final    [8]  u64
//! finals     [n_final x 16]: line[8] readers[8]
//! finals_crc [4]  CRC32c of n_final + finals
//! ```
//!
//! # Version negotiation
//!
//! [`write_trace`] always writes the current version
//! ([`FORMAT_VERSION`] = 2). [`read_trace`] accepts both versions: v1
//! files (no checksums, laxer field validation) remain readable forever;
//! v2 files are verified section by section and additionally reject
//! non-canonical encodings (nonzero padding, out-of-range bitmap bits,
//! nonzero prev-writer fields when `has_prev` is 0). A checksum mismatch
//! surfaces as [`std::io::ErrorKind::InvalidData`] with a message naming
//! the failing section, which the harness cache uses to quarantine the
//! file and regenerate.
//!
//! # Example
//!
//! ```
//! # fn main() -> std::io::Result<()> {
//! use csp_trace::{io, Trace};
//! let trace = Trace::new(16);
//! let mut buf = Vec::new();
//! io::write_trace(&mut buf, &trace)?;
//! let back = io::read_trace(&mut buf.as_slice())?;
//! assert_eq!(trace, back);
//! # Ok(())
//! # }
//! ```

use crate::crc32c;
use crate::{LineAddr, NodeId, Pc, SharingBitmap, SharingEvent, Trace};
use std::io::{self, Read, Write};

const MAGIC: &[u8; 8] = b"CSPTRC\0\0";

/// The version [`write_trace`] produces.
pub const FORMAT_VERSION: u8 = 2;

/// The legacy, checksum-free version still accepted by [`read_trace`].
pub const LEGACY_VERSION: u8 = 1;

/// A writer wrapper that checksums everything written through it.
///
/// The building block of the sectioned whole-file formats: the trace
/// format here, and the `csp-serve` snapshot format (append-only logs
/// use [`crate::frame`] instead). Write section
/// bytes through the wrapper, then call
/// [`write_section_crc`](Self::write_section_crc) to emit the CRC32c of
/// the section and start the next one.
pub struct ChecksumWriter<W> {
    inner: W,
    hasher: crc32c::Hasher,
}

impl<W: Write> ChecksumWriter<W> {
    /// Wraps `inner`, starting the first section.
    pub fn new(inner: W) -> Self {
        ChecksumWriter {
            inner,
            hasher: crc32c::Hasher::new(),
        }
    }

    /// Emits the current section checksum (unhashed) and starts the next
    /// section.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the inner writer.
    pub fn write_section_crc(&mut self) -> io::Result<()> {
        let crc = self.hasher.finalize();
        self.inner.write_all(&crc.to_le_bytes())?;
        self.hasher = crc32c::Hasher::new();
        Ok(())
    }
}

impl<W: Write> Write for ChecksumWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.hasher.update(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// A reader wrapper that checksums everything read through it — the
/// decoding twin of [`ChecksumWriter`].
#[derive(Debug)]
pub struct ChecksumReader<R> {
    inner: R,
    hasher: crc32c::Hasher,
}

impl<R: Read> ChecksumReader<R> {
    /// Wraps `inner`, starting the first section.
    pub fn new(inner: R) -> Self {
        ChecksumReader {
            inner,
            hasher: crc32c::Hasher::new(),
        }
    }

    /// Reads the stored section checksum (unhashed), compares it with the
    /// computed one, and starts the next section.
    ///
    /// # Errors
    ///
    /// Returns [`std::io::ErrorKind::InvalidData`] naming `section` on a
    /// mismatch, and propagates I/O errors from the inner reader.
    pub fn check_section_crc(&mut self, section: &str) -> io::Result<()> {
        let computed = self.hasher.finalize();
        let mut b = [0u8; 4];
        self.inner.read_exact(&mut b)?;
        let stored = u32::from_le_bytes(b);
        if stored != computed {
            return Err(bad(&format!(
                "{section} checksum mismatch (stored {stored:#010x}, computed {computed:#010x})"
            )));
        }
        self.hasher = crc32c::Hasher::new();
        Ok(())
    }
}

impl<R: Read> Read for ChecksumReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.hasher.update(&buf[..n]);
        Ok(n)
    }
}

/// Serializes `trace` to `w` in the current format version (v2, with
/// per-section CRC32c checksums).
///
/// Callers with a file should wrap it in a `BufWriter`; a `&mut Vec<u8>`
/// works directly.
///
/// # Errors
///
/// Propagates any I/O error from the writer.
pub fn write_trace<W: Write>(w: W, trace: &Trace) -> io::Result<()> {
    let mut w = ChecksumWriter::new(w);
    write_header_and_events(&mut w, trace, FORMAT_VERSION)?;
    w.write_section_crc()?;
    write_finals(&mut w, trace)?;
    w.write_section_crc()?;
    Ok(())
}

/// Serializes `trace` in the legacy v1 layout (no checksums).
///
/// Exists for compatibility testing and for the fault-injection harness;
/// new files should use [`write_trace`].
///
/// # Errors
///
/// Propagates any I/O error from the writer.
pub fn write_trace_v1<W: Write>(mut w: W, trace: &Trace) -> io::Result<()> {
    write_header_and_events(&mut w, trace, LEGACY_VERSION)?;
    write_finals(&mut w, trace)?;
    Ok(())
}

fn write_header_and_events<W: Write>(w: &mut W, trace: &Trace, version: u8) -> io::Result<()> {
    w.write_all(MAGIC)?;
    w.write_all(&[version, trace.nodes() as u8])?;
    w.write_all(&(trace.len() as u64).to_le_bytes())?;
    for e in trace.events() {
        w.write_all(&[e.writer.0])?;
        w.write_all(&e.pc.0.to_le_bytes())?;
        w.write_all(&e.line.0.to_le_bytes())?;
        w.write_all(&[e.home.0])?;
        w.write_all(&e.invalidated.bits().to_le_bytes())?;
        match e.prev_writer {
            Some((n, pc)) => {
                w.write_all(&[1, n.0])?;
                w.write_all(&pc.0.to_le_bytes())?;
            }
            None => {
                w.write_all(&[0, 0])?;
                w.write_all(&0u32.to_le_bytes())?;
            }
        }
        w.write_all(&[0u8; 4])?;
    }
    Ok(())
}

fn write_finals<W: Write>(w: &mut W, trace: &Trace) -> io::Result<()> {
    // Final reader sets, in deterministic (sorted) order so identical traces
    // serialize identically.
    let mut finals: Vec<(u64, u64)> = trace
        .events()
        .iter()
        .map(|e| e.line)
        .collect::<std::collections::HashSet<_>>()
        .into_iter()
        .filter_map(|l| trace.final_readers(l).map(|r| (l.0, r.bits())))
        .collect();
    finals.sort_unstable();
    w.write_all(&(finals.len() as u64).to_le_bytes())?;
    for (line, readers) in finals {
        w.write_all(&line.to_le_bytes())?;
        w.write_all(&readers.to_le_bytes())?;
    }
    Ok(())
}

/// Reads just the header of a trace stream and returns its format
/// version, without validating the body.
///
/// Useful for tooling that reports whether a file is the checksummed v2
/// format or a legacy v1 file.
///
/// # Errors
///
/// Returns [`std::io::ErrorKind::InvalidData`] on a bad magic or an
/// unsupported version, and propagates I/O errors from the reader.
pub fn probe_version<R: Read>(mut r: R) -> io::Result<u8> {
    let mut header = [0u8; 9];
    r.read_exact(&mut header)?;
    if header[..8] != MAGIC[..] {
        return Err(bad("bad magic; not a CSP trace file"));
    }
    let version = header[8];
    if version != LEGACY_VERSION && version != FORMAT_VERSION {
        return Err(bad(&format!(
            "unsupported trace format version {version} (this build reads 1..={FORMAT_VERSION})"
        )));
    }
    Ok(version)
}

/// Deserializes a trace from `r`, accepting format versions 1 and 2.
///
/// # Errors
///
/// Returns [`std::io::ErrorKind::InvalidData`] if the magic, version, any
/// field, or (v2) any section checksum is malformed, and propagates I/O
/// errors from the reader. Never panics, for any input bytes.
pub fn read_trace<R: Read>(r: R) -> io::Result<Trace> {
    let mut stream = EventStream::new(r)?;
    let mut trace = Trace::new(stream.nodes());
    while let Some(event) = stream.next_event()? {
        trace.push(event);
    }
    for (line, readers) in stream.finish()? {
        trace.set_final_readers(line, readers);
    }
    Ok(trace)
}

/// An incremental reader over the events of a trace stream.
///
/// Where [`read_trace`] materializes the whole [`Trace`] (events plus
/// final-reader state), this yields one [`SharingEvent`] at a time, so a
/// consumer — the `csp-serve` ingest path, `csp-trace-tool cat` — can
/// process arbitrarily long streams in constant memory. Both format
/// versions are accepted; for v2 the event-section checksum is verified
/// when the last event has been read (or in [`finish`](Self::finish)),
/// so a consumer that stops early trades away corruption detection for
/// latency, exactly like any streaming decoder.
///
/// # Example
///
/// ```
/// # fn main() -> std::io::Result<()> {
/// use csp_trace::{io, Trace, SharingEvent, SharingBitmap, NodeId, Pc, LineAddr};
/// let mut t = Trace::new(4);
/// t.push(SharingEvent::new(NodeId(1), Pc(2), LineAddr(3), NodeId(0),
///                          SharingBitmap::empty(), None));
/// let mut buf = Vec::new();
/// io::write_trace(&mut buf, &t)?;
/// let mut stream = io::EventStream::new(buf.as_slice())?;
/// assert_eq!(stream.nodes(), 4);
/// assert_eq!(stream.remaining(), 1);
/// let event = stream.next_event()?.expect("one event");
/// assert_eq!(event.writer, NodeId(1));
/// let finals = stream.finish()?;
/// assert!(finals.is_empty());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct EventStream<R> {
    r: ChecksumReader<R>,
    version: u8,
    nodes: usize,
    remaining: u64,
    events_verified: bool,
}

impl<R: Read> EventStream<R> {
    /// Opens a stream, consuming and validating the header.
    ///
    /// # Errors
    ///
    /// Returns [`std::io::ErrorKind::InvalidData`] on a bad magic, an
    /// unsupported version or an out-of-range node count, and propagates
    /// I/O errors from the reader.
    pub fn new(r: R) -> io::Result<Self> {
        let mut r = ChecksumReader::new(r);
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(bad("bad magic; not a CSP trace file"));
        }
        let mut head = [0u8; 2];
        r.read_exact(&mut head)?;
        let version = head[0];
        if version != LEGACY_VERSION && version != FORMAT_VERSION {
            return Err(bad(&format!(
                "unsupported trace format version {version} (this build reads 1..={FORMAT_VERSION})"
            )));
        }
        let nodes = head[1] as usize;
        if nodes == 0 || nodes > crate::MAX_NODES {
            return Err(bad("node count out of range"));
        }
        let remaining = read_u64(&mut r)?;
        Ok(EventStream {
            r,
            version,
            nodes,
            remaining,
            events_verified: false,
        })
    }

    /// The format version of the stream (1 or 2).
    pub fn version(&self) -> u8 {
        self.version
    }

    /// The machine's node count.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Events not yet read.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// Whether this stream's sections carry (and are checked against)
    /// CRC32c checksums.
    fn checked(&self) -> bool {
        self.version >= FORMAT_VERSION
    }

    /// Reads the next event, or `None` when the event section is done.
    ///
    /// Reading the final event of a v2 stream also verifies the
    /// event-section checksum.
    ///
    /// # Errors
    ///
    /// Returns [`std::io::ErrorKind::InvalidData`] on any malformed field
    /// or checksum mismatch, and propagates I/O errors.
    pub fn next_event(&mut self) -> io::Result<Option<SharingEvent>> {
        if self.remaining == 0 {
            if self.checked() && !self.events_verified {
                self.r.check_section_crc("event section")?;
                self.events_verified = true;
            }
            return Ok(None);
        }
        let checked = self.checked();
        let nodes = self.nodes;
        let r = &mut self.r;
        let writer = read_u8(r)?;
        let pc = read_u32(r)?;
        let line = read_u64(r)?;
        let home = read_u8(r)?;
        let invalidated = read_u64(r)?;
        let has_prev = read_u8(r)?;
        let prev_writer = read_u8(r)?;
        let prev_pc = read_u32(r)?;
        let mut pad = [0u8; 4];
        r.read_exact(&mut pad)?;
        if writer as usize >= nodes || home as usize >= nodes {
            return Err(bad("event references node outside the machine"));
        }
        let bitmap = SharingBitmap::from_bits(invalidated);
        if checked {
            // v2 encodings are canonical: reserved bytes are zero and
            // bitmaps carry no bits outside the machine.
            if pad != [0u8; 4] {
                return Err(bad("nonzero reserved padding"));
            }
            if bitmap.masked(nodes) != bitmap {
                return Err(bad("invalidated bitmap has bits outside the machine"));
            }
            if has_prev == 0 && (prev_writer != 0 || prev_pc != 0) {
                return Err(bad("nonzero prev-writer fields without has_prev"));
            }
        }
        let prev = match has_prev {
            0 => None,
            1 if checked && prev_writer as usize >= nodes => {
                return Err(bad("prev-writer outside the machine"));
            }
            1 => Some((NodeId(prev_writer), Pc(prev_pc))),
            _ => return Err(bad("corrupt prev-writer flag")),
        };
        self.remaining -= 1;
        Ok(Some(SharingEvent::new(
            NodeId(writer),
            Pc(pc),
            LineAddr(line),
            NodeId(home),
            bitmap.masked(nodes),
            prev,
        )))
    }

    /// Drains any unread events, verifies the remaining checksums, and
    /// returns the final-reader section as `(line, readers)` pairs.
    ///
    /// # Errors
    ///
    /// Returns [`std::io::ErrorKind::InvalidData`] on any malformed field
    /// or checksum mismatch, and propagates I/O errors.
    pub fn finish(mut self) -> io::Result<Vec<(LineAddr, SharingBitmap)>> {
        while self.next_event()?.is_some() {}
        let checked = self.checked();
        let nodes = self.nodes;
        let r = &mut self.r;
        let n_final = read_u64(r)?;
        let mut finals = Vec::new();
        for _ in 0..n_final {
            let line = read_u64(r)?;
            let readers = read_u64(r)?;
            let bitmap = SharingBitmap::from_bits(readers);
            if checked && bitmap.masked(nodes) != bitmap {
                return Err(bad("final-reader bitmap has bits outside the machine"));
            }
            finals.push((LineAddr(line), bitmap.masked(nodes)));
        }
        if checked {
            r.check_section_crc("final-reader section")?;
        }
        Ok(finals)
    }
}

impl<R: Read> Iterator for EventStream<R> {
    type Item = io::Result<SharingEvent>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_event().transpose()
    }
}

/// Writes `bytes` to `path` via a `.tmp` sibling, fsync, and rename — the
/// workspace-wide convention for crash-safe file writes (the harness
/// trace cache and the `csp-serve` snapshot store both use it): a crash
/// mid-write never leaves a plausible half-file under the real name.
///
/// # Errors
///
/// Propagates I/O errors from creating, writing, syncing, or renaming the
/// temporary file.
pub fn write_file_atomically(path: &std::path::Path, bytes: &[u8]) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    let mut file = std::fs::File::create(&tmp)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp, path)
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

fn read_u8<R: Read>(r: &mut R) -> io::Result<u8> {
    let mut b = [0u8; 1];
    r.read_exact(&mut b)?;
    Ok(b[0])
}

fn read_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        let mut t = Trace::new(16);
        t.push(SharingEvent::new(
            NodeId(0),
            Pc(0x400),
            LineAddr(42),
            NodeId(2),
            SharingBitmap::empty(),
            None,
        ));
        t.push(SharingEvent::new(
            NodeId(3),
            Pc(0x404),
            LineAddr(42),
            NodeId(2),
            SharingBitmap::from_nodes(&[NodeId(1), NodeId(5)]),
            Some((NodeId(0), Pc(0x400))),
        ));
        t.set_final_readers(LineAddr(42), SharingBitmap::from_nodes(&[NodeId(7)]));
        t
    }

    #[test]
    fn roundtrip() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_trace(&mut buf, &t).unwrap();
        let back = read_trace(buf.as_slice()).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn roundtrip_empty() {
        let t = Trace::new(2);
        let mut buf = Vec::new();
        write_trace(&mut buf, &t).unwrap();
        assert_eq!(read_trace(buf.as_slice()).unwrap(), t);
    }

    #[test]
    fn v1_files_still_read() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_trace_v1(&mut buf, &t).unwrap();
        assert_eq!(buf[8], LEGACY_VERSION);
        assert_eq!(read_trace(buf.as_slice()).unwrap(), t);
    }

    #[test]
    fn v2_is_v1_plus_checksums() {
        // The v2 payload is byte-identical to v1 apart from the version
        // byte and the two interleaved CRC fields.
        let t = sample_trace();
        let (mut v1, mut v2) = (Vec::new(), Vec::new());
        write_trace_v1(&mut v1, &t).unwrap();
        write_trace(&mut v2, &t).unwrap();
        assert_eq!(v2.len(), v1.len() + 8);
        let events_end = 10 + 8 + t.len() * 32;
        assert_eq!(v1[..8], v2[..8]);
        assert_eq!(v1[9..events_end], v2[9..events_end]);
        assert_eq!(v1[events_end..], v2[events_end + 4..v2.len() - 4]);
    }

    #[test]
    fn rejects_bad_magic() {
        let err = read_trace(&b"NOTATRACE........"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn rejects_bad_version() {
        let mut buf = Vec::new();
        write_trace(&mut buf, &Trace::new(2)).unwrap();
        buf[8] = 99; // version byte
        assert!(read_trace(buf.as_slice()).is_err());
    }

    #[test]
    fn rejects_truncated_input() {
        let mut buf = Vec::new();
        write_trace(&mut buf, &sample_trace()).unwrap();
        for cut in [3, buf.len() / 2, buf.len() - 3] {
            let mut short = buf.clone();
            short.truncate(buf.len() - cut);
            assert!(read_trace(short.as_slice()).is_err(), "cut {cut} accepted");
        }
    }

    #[test]
    fn rejects_out_of_range_node() {
        let mut buf = Vec::new();
        let mut t = Trace::new(16);
        t.push(SharingEvent::new(
            NodeId(15),
            Pc(0),
            LineAddr(0),
            NodeId(0),
            SharingBitmap::empty(),
            None,
        ));
        write_trace_v1(&mut buf, &t).unwrap();
        buf[9] = 4; // shrink machine to 4 nodes; writer 15 now invalid
        assert!(read_trace(buf.as_slice()).is_err());
    }

    #[test]
    fn serialization_is_deterministic() {
        let t = sample_trace();
        let mut a = Vec::new();
        let mut b = Vec::new();
        write_trace(&mut a, &t).unwrap();
        write_trace(&mut b, &t).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn checksum_catches_payload_corruption_v2_but_not_v1() {
        let t = sample_trace();
        // Flip one bit inside the invalidated bitmap of the second event:
        // structurally valid, semantically corrupt.
        let offset = 10 + 8 + 32 + 14; // header + count + event 0 + event 1 field offset
        let mut v2 = Vec::new();
        write_trace(&mut v2, &t).unwrap();
        v2[offset] ^= 1 << 2;
        let err = read_trace(v2.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("checksum"), "got: {err}");

        let mut v1 = Vec::new();
        write_trace_v1(&mut v1, &t).unwrap();
        v1[offset] ^= 1 << 2;
        // The legacy format cannot tell: the corrupt trace parses fine.
        let back = read_trace(v1.as_slice()).unwrap();
        assert_ne!(back, t, "flip should have changed the decoded trace");
    }

    #[test]
    fn event_stream_yields_same_events_as_read_trace() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_trace(&mut buf, &t).unwrap();
        let stream = EventStream::new(buf.as_slice()).unwrap();
        assert_eq!(stream.version(), FORMAT_VERSION);
        assert_eq!(stream.nodes(), 16);
        assert_eq!(stream.remaining(), 2);
        let events: Vec<SharingEvent> = stream.map(|e| e.unwrap()).collect();
        assert_eq!(events, t.events());
    }

    #[test]
    fn event_stream_finish_returns_finals_and_drains() {
        let t = sample_trace();
        type WriterFn = fn(&mut Vec<u8>, &Trace) -> io::Result<()>;
        let writers: [WriterFn; 2] = [|w, t| write_trace(w, t), |w, t| write_trace_v1(w, t)];
        for writer in writers {
            let mut buf = Vec::new();
            writer(&mut buf, &t).unwrap();
            // Finish without reading any event: it must drain and still
            // surface the final-reader section.
            let stream = EventStream::new(buf.as_slice()).unwrap();
            let finals = stream.finish().unwrap();
            assert_eq!(
                finals,
                vec![(LineAddr(42), SharingBitmap::from_nodes(&[NodeId(7)]))]
            );
        }
    }

    #[test]
    fn event_stream_detects_corruption_at_section_end() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_trace(&mut buf, &t).unwrap();
        buf[10 + 8 + 2] ^= 0x10; // inside event 0's pc field
        let mut stream = EventStream::new(buf.as_slice()).unwrap();
        // Individual events still parse (the flip is structurally valid)...
        assert!(stream.next_event().unwrap().is_some());
        assert!(stream.next_event().unwrap().is_some());
        // ...but the section checksum catches it at the end.
        let err = stream.next_event().unwrap_err();
        assert!(err.to_string().contains("checksum"), "got: {err}");
    }

    #[test]
    fn checksum_mismatch_names_the_section() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_trace(&mut buf, &t).unwrap();
        let last = buf.len() - 1;
        buf[last] ^= 0xFF; // the finals CRC itself
        let err = read_trace(buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("final-reader"), "got: {err}");
    }
}
