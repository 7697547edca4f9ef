//! The one framing layer under every append-only log in the workspace:
//! the replication journal ([`crate::journal`]), the decision audit log
//! ([`crate::audit`]), the `csp-bar` trajectory and the sweep
//! checkpoint. The stats-cache header uses the header codec
//! alone.
//!
//! # Layout
//!
//! ```text
//! file:   magic[8] ‖ header fields ‖ crc32c(magic ‖ fields) u32
//! frame:  len u32 ‖ body[len] ‖ crc32c(len ‖ body) u32          (repeated)
//! ```
//!
//! All integers are little-endian and checksums are CRC32c
//! ([`crate::crc32c`]). A [`Format`] fixes the magic, the width of the
//! header fields and the longest body a frame may carry; what the fields
//! and bodies mean is the format's own business.
//!
//! # Torn tails
//!
//! Writers flush after every frame, so a crash leaves at most one
//! partial frame at the end of the file. [`FrameReader`] tells that
//! apart from corruption by one rule:
//!
//! * A frame cut short by EOF is a torn tail.
//! * A frame whose CRC fails is torn only if no byte follows it.
//! * A `len` over the format's maximum is torn only if the file ends
//!   within one maximal frame of it.
//! * A torn tail never holds a whole frame: if a checksummed frame
//!   starts inside the bytes a tail would discard, the `len` before it
//!   was damaged, and the file is corrupt.
//! * Everything else is corruption: an [`io::ErrorKind::InvalidData`]
//!   error that names the format and the byte offset. Damage inside the
//!   header is always an error.
//!
//! A torn tail ends the read: the frames before it are returned and
//! [`FrameReader::torn`] is set. [`open_append`] cuts it off before the
//! next append, so new frames never land behind a tear.
//!
//! # Example
//!
//! ```
//! use csp_trace::frame::{Format, FrameReader, FrameWriter};
//!
//! const LOG: Format = Format { name: "example log", magic: *b"EXAMPLE1", header_len: 0, max_body: 64 };
//! let mut bytes = Vec::new();
//! FrameWriter::create(&mut bytes, &LOG, &[])?.append(&[b"ab", b"c"])?;
//! let frames: Vec<Vec<u8>> = FrameReader::open(bytes.as_slice(), &LOG)?.collect::<Result<_, _>>()?;
//! assert_eq!(frames, [b"abc".to_vec()]);
//! // A cut inside the frame is a torn tail, not an error.
//! let mut r = FrameReader::open(&bytes[..bytes.len() - 2], &LOG)?;
//! assert!(r.next().is_none() && r.torn());
//! # Ok::<(), std::io::Error>(())
//! ```

use crate::crc32c;
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// Bytes a frame adds around its body: the `len` prefix and the CRC.
pub const FRAME_OVERHEAD: usize = 8;

/// One framed file format: its magic, header width and frame bound.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Format {
    /// Name used in every error about this format.
    pub name: &'static str,
    /// The eight bytes that open every file of this format.
    pub magic: [u8; 8],
    /// Width of the header fields between the magic and the header CRC.
    pub header_len: usize,
    /// Longest body one frame may carry. Bounds what a damaged `len`
    /// can make a reader allocate.
    pub max_body: u32,
}

impl Format {
    /// Bytes of the whole file header: magic, fields and CRC.
    pub const fn header_bytes(&self) -> usize {
        8 + self.header_len + 4
    }

    /// An [`io::ErrorKind::InvalidData`] error about the byte at `at`.
    pub fn corrupt(&self, at: u64, what: impl std::fmt::Display) -> io::Error {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{} at byte {at}: {what}", self.name),
        )
    }

    /// Appends the file header — magic, `fields` and their CRC — to `out`.
    ///
    /// # Panics
    ///
    /// If `fields` is not [`header_len`](Self::header_len) bytes: the
    /// layout is fixed by the format, so that is a bug in the caller.
    pub fn encode_header(&self, fields: &[u8], out: &mut Vec<u8>) {
        assert_eq!(fields.len(), self.header_len, "{} header width", self.name);
        let start = out.len();
        out.extend_from_slice(&self.magic);
        out.extend_from_slice(fields);
        let crc = crc32c::checksum(&out[start..]);
        out.extend_from_slice(&crc.to_le_bytes());
    }

    /// Checks a whole file header (exactly [`header_bytes`] long) and
    /// returns its fields.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidData`] on a wrong length, a bad magic or a
    /// header CRC mismatch.
    ///
    /// [`header_bytes`]: Self::header_bytes
    pub fn decode_header<'a>(&self, bytes: &'a [u8]) -> io::Result<&'a [u8]> {
        let n = bytes.len().min(8);
        if bytes[..n] != self.magic[..n] {
            return Err(self.corrupt(0, format!("bad magic; not a {} file", self.name)));
        }
        let (got, want) = (bytes.len(), self.header_bytes());
        if got != want {
            return Err(self.corrupt(0, format!("{got}-byte header, expected {want}")));
        }
        let (covered, crc) = bytes.split_at(8 + self.header_len);
        if u32_at(crc, 0) != crc32c::checksum(covered) {
            return Err(self.corrupt(covered.len() as u64, "header checksum mismatch"));
        }
        Ok(&covered[8..])
    }
}

/// The little-endian `u32` at `bytes[at..]`. Panics past the end:
/// callers read fields whose width the format, or a length check, fixes.
pub fn u32_at(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]])
}

/// The little-endian `u64` at `bytes[at..]`; panics like [`u32_at`].
pub fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from(u32_at(bytes, at)) | u64::from(u32_at(bytes, at + 4)) << 32
}

/// Appends one frame to `out`: the `len` prefix, the body `write_body`
/// appends, and the CRC over both. This lets a caller encode records
/// straight into the frame and checksum outside any shared lock, then
/// hand the bytes to [`FrameWriter::write_encoded`].
///
/// # Panics
///
/// If the body exceeds `u32::MAX` bytes.
pub fn encode_frame(out: &mut Vec<u8>, write_body: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&[0; 4]);
    write_body(out);
    let len = u32::try_from(out.len() - start - 4).expect("frame body over 4 GiB");
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    let crc = crc32c::checksum(&out[start..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// Writes frames of one [`Format`], flushing after each.
#[derive(Debug)]
pub struct FrameWriter<W: Write> {
    inner: W,
    format: Format,
}

impl<W: Write> FrameWriter<W> {
    /// Writes the file header and returns a writer for the first frame.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn create(mut inner: W, format: &Format, fields: &[u8]) -> io::Result<Self> {
        let mut header = Vec::with_capacity(format.header_bytes());
        format.encode_header(fields, &mut header);
        inner.write_all(&header)?;
        inner.flush()?;
        Ok(FrameWriter {
            inner,
            format: *format,
        })
    }

    /// Writes one frame whose body is the concatenation of `parts`, then
    /// flushes, so the frame is out of this process's hands on return.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidInput`] for a body over the format's
    /// maximum (nothing is written); otherwise propagates I/O errors.
    pub fn append(&mut self, parts: &[&[u8]]) -> io::Result<()> {
        let mut crc = crc32c::Hasher::new();
        for part in parts {
            crc.update(part);
        }
        self.append_checksummed(parts, crc.finalize())
    }

    /// [`append`](Self::append) for a body whose CRC32c the caller
    /// already holds: `body_crc` is the checksum of the concatenated
    /// `parts`, and the frame's CRC is derived from it with
    /// [`crc32c::combine`] instead of reading the body again. A wrong
    /// `body_crc` writes a frame every reader rejects.
    ///
    /// # Errors
    ///
    /// As [`append`](Self::append).
    pub fn append_checksummed(&mut self, parts: &[&[u8]], body_crc: u32) -> io::Result<()> {
        let len: usize = parts.iter().map(|p| p.len()).sum();
        let (name, max) = (self.format.name, self.format.max_body);
        if len > max as usize {
            let what = format!("{name}: a {len}-byte frame exceeds the {max}-byte limit");
            return Err(io::Error::new(io::ErrorKind::InvalidInput, what));
        }
        let prefix = (len as u32).to_le_bytes();
        let crc = crc32c::combine(crc32c::checksum(&prefix), body_crc, len as u64);
        self.inner.write_all(&prefix)?;
        for part in parts {
            self.inner.write_all(part)?;
        }
        self.inner.write_all(&crc.to_le_bytes())?;
        self.inner.flush()
    }

    /// Writes frames already built by [`encode_frame`], then flushes.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_encoded(&mut self, frames: &[u8]) -> io::Result<()> {
        self.inner.write_all(frames)?;
        self.inner.flush()
    }

    /// The underlying writer.
    pub fn get_ref(&self) -> &W {
        &self.inner
    }
}

/// Reads the frames of one [`Format`], owning the torn-tail rule.
///
/// Iterating yields each whole, checksummed body in file order. A torn
/// tail ends the iteration and sets [`torn`](Self::torn); corruption
/// yields one `Err` and ends it.
#[derive(Debug)]
pub struct FrameReader<R> {
    inner: R,
    format: Format,
    header: Vec<u8>,
    whole_len: u64,
    torn: bool,
    done: bool,
}

impl<R: Read> FrameReader<R> {
    /// Reads and checks the file header.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidData`] when the header is short, carries a
    /// bad magic or fails its CRC; transport errors propagate.
    pub fn open(mut inner: R, format: &Format) -> io::Result<Self> {
        let mut bytes = Vec::with_capacity(format.header_bytes());
        (&mut inner)
            .take(format.header_bytes() as u64)
            .read_to_end(&mut bytes)?;
        let header = format.decode_header(&bytes)?.to_vec();
        Ok(FrameReader {
            inner,
            format: *format,
            header,
            whole_len: format.header_bytes() as u64,
            torn: false,
            done: false,
        })
    }

    /// The header fields.
    pub fn header(&self) -> &[u8] {
        &self.header
    }

    /// Whether the read ended at a torn tail (set once iteration ends).
    pub fn torn(&self) -> bool {
        self.torn
    }

    /// Byte length of the header plus every whole frame yielded so far:
    /// the length to truncate to so the file ends on a frame boundary.
    pub fn whole_len(&self) -> u64 {
        self.whole_len
    }

    /// An [`io::ErrorKind::InvalidData`] error about the frame last
    /// yielded, for a body its format rejects.
    pub fn corrupt_body(&self, body_len: usize, what: impl std::fmt::Display) -> io::Error {
        let at = self.whole_len - (body_len + FRAME_OVERHEAD) as u64;
        self.format.corrupt(at, what)
    }

    fn next_frame(&mut self) -> io::Result<Option<Vec<u8>>> {
        let at = self.whole_len;
        let max = self.format.max_body as usize;
        let mut frame = Vec::new();
        read_up_to(&mut self.inner, &mut frame, 4)?;
        match frame.len() {
            0 => return Ok(None),
            4 => {}
            _ => return self.torn_tail(at, frame),
        }
        let len = u32_at(&frame, 0) as usize;
        if len > max {
            // Read one byte past one maximal frame at most: a tail that
            // ends within it may be a torn append; one that runs past it
            // cannot be.
            read_up_to(&mut self.inner, &mut frame, max + FRAME_OVERHEAD - 3)?;
            if frame.len() > max + FRAME_OVERHEAD {
                let what = format!("frame length {len} over the {max}-byte maximum");
                return Err(self.format.corrupt(at, what));
            }
            return self.torn_tail(at, frame);
        }
        read_up_to(&mut self.inner, &mut frame, len + 4)?;
        if frame.len() < len + FRAME_OVERHEAD {
            return self.torn_tail(at, frame);
        }
        if crc32c::checksum(&frame[..4 + len]) != u32_at(&frame, 4 + len) {
            let mut probe = Vec::new();
            read_up_to(&mut self.inner, &mut probe, 1)?;
            if !probe.is_empty() {
                let what = "frame checksum mismatch with data following";
                return Err(self.format.corrupt(at, what));
            }
            return self.torn_tail(at, frame);
        }
        self.whole_len += frame.len() as u64;
        frame.truncate(4 + len);
        frame.drain(..4);
        Ok(Some(frame))
    }

    /// Ends the read at the damaged frame at `at`, whose bytes to EOF
    /// are `tail` — torn, unless a whole frame starts inside `tail`.
    fn torn_tail(&mut self, at: u64, tail: Vec<u8>) -> io::Result<Option<Vec<u8>>> {
        if let Some(p) = whole_frame_in(&tail, self.format.max_body as usize) {
            let next = at + p as u64;
            let what = format!("damaged frame with a whole frame following at byte {next}");
            return Err(self.format.corrupt(at, what));
        }
        self.torn = true;
        Ok(None)
    }
}

impl<R: Read> Iterator for FrameReader<R> {
    type Item = io::Result<Vec<u8>>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let frame = self.next_frame().transpose();
        self.done = !matches!(frame, Some(Ok(_)));
        frame
    }
}

/// Appends up to `n` more bytes from `r` to `buf`, stopping early only
/// at EOF. Grows `buf` as bytes arrive, never by `n` up front.
fn read_up_to(r: &mut impl Read, buf: &mut Vec<u8>, n: usize) -> io::Result<()> {
    r.take(n as u64).read_to_end(buf).map(|_| ())
}

/// The offset of the first whole, checksummed frame starting after the
/// first byte of `tail`, if any.
fn whole_frame_in(tail: &[u8], max: usize) -> Option<usize> {
    (1..tail.len().saturating_sub(FRAME_OVERHEAD - 1)).find(|&p| {
        let len = u32_at(tail, p) as usize;
        let end = p + 4 + len;
        len <= max && end + 4 <= tail.len() && crc32c::checksum(&tail[p..end]) == u32_at(tail, end)
    })
}

/// Opens `path` to append frames of `format`, creating parent
/// directories as needed.
///
/// An empty or missing file gets a fresh header of `fields`. Otherwise
/// `keep` sees the whole file and returns how many leading bytes to keep
/// — typically [`FrameReader::whole_len`] after reading every frame, so
/// a torn tail is cut off before anything lands behind it; `0` restarts
/// the file with a fresh header. An error from `keep` is returned
/// before the file is touched.
///
/// # Errors
///
/// Propagates I/O errors and `keep`'s error.
pub fn open_append(
    path: &Path,
    format: &Format,
    fields: &[u8],
    keep: impl FnOnce(&[u8]) -> io::Result<u64>,
) -> io::Result<FrameWriter<BufWriter<File>>> {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent)?;
    }
    let mut file = OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(false)
        .open(path)?;
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)?;
    let keep = if bytes.is_empty() { 0 } else { keep(&bytes)? };
    file.set_len(keep)?;
    file.seek(SeekFrom::Start(keep))?;
    if keep == 0 {
        let w = FrameWriter::create(BufWriter::new(file), format, fields)?;
        w.get_ref().get_ref().sync_data()?;
        return Ok(w);
    }
    Ok(FrameWriter {
        inner: BufWriter::new(file),
        format: *format,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOG: Format = Format {
        name: "test log",
        magic: *b"TESTLOG1",
        header_len: 3,
        max_body: 64,
    };

    #[test]
    fn wild_length_is_torn_only_near_the_end() {
        let mut bytes = Vec::new();
        FrameWriter::create(&mut bytes, &LOG, b"abc")
            .and_then(|mut w| w.append(&[b"one"]))
            .unwrap();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        let read = |bytes: &[u8]| -> io::Result<(usize, bool, u64)> {
            let mut r = FrameReader::open(bytes, &LOG)?;
            let frames = r.by_ref().collect::<io::Result<Vec<_>>>()?;
            Ok((frames.len(), r.torn(), r.whole_len()))
        };
        let whole = (LOG.header_bytes() + 3 + FRAME_OVERHEAD) as u64;
        assert_eq!(read(&bytes).unwrap(), (1, true, whole));
        // More than one maximal frame of bytes after it: corruption.
        bytes.extend_from_slice(&[0x55; 80]);
        let err = read(&bytes).unwrap_err();
        assert!(err.to_string().contains("test log at byte 26"), "{err}");
    }
}
