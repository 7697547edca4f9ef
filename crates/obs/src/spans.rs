//! Lightweight structured tracing: RAII spans, thread-local span
//! stacks, and a bounded ring-buffer sink that serializes to
//! checksummed JSONL.
//!
//! A [`span`] guard records wall-clock-free nanosecond timestamps
//! (monotonic, relative to a process-wide epoch) and pushes its name on
//! a thread-local stack so a nested span knows its parent without any
//! global coordination. On drop, the completed [`SpanRecord`] lands in
//! a [`TraceRing`] — a bounded, drop-oldest buffer, so tracing cost is
//! O(1) and memory is fixed no matter how long the process runs.
//!
//! Ring dumps are a [`csp_trace::frame`] log (`CSPOBSR1`): a checksummed
//! magic, then one frame per record holding its JSON line. A crash
//! mid-write therefore loses at most the torn tail — every earlier span
//! is still verifiable, the same durability story the journal tells.
//!
//! Recording is *disabled by default*: an idle `TraceRing` costs one
//! relaxed atomic load per span, which keeps instrumented hot paths
//! near-free when nobody is watching.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use csp_trace::frame::{self, Format, FrameReader, FrameWriter};

/// The span-ring dump format: no header fields, one JSON line per frame.
pub const RING_FORMAT: Format = Format {
    name: "span-ring dump",
    magic: *b"CSPOBSR1",
    header_len: 0,
    max_body: 1 << 16,
};

/// One completed span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span name (static — spans are code locations, not data).
    pub name: &'static str,
    /// Name of the enclosing span on the same thread, if any.
    pub parent: Option<&'static str>,
    /// Recording thread, as a small process-unique ordinal.
    pub thread: u64,
    /// Start time in nanoseconds since the process trace epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

impl SpanRecord {
    /// Serializes the record as one JSON object (no trailing newline).
    /// Span names are static identifiers, so the only escaping needed
    /// is the conservative kind.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(96);
        s.push_str("{\"name\":\"");
        push_json_str(&mut s, self.name);
        s.push('"');
        if let Some(parent) = self.parent {
            s.push_str(",\"parent\":\"");
            push_json_str(&mut s, parent);
            s.push('"');
        }
        s.push_str(&format!(
            ",\"thread\":{},\"start_ns\":{},\"dur_ns\":{}}}",
            self.thread, self.start_ns, self.dur_ns
        ));
        s
    }
}

fn push_json_str(out: &mut String, v: &str) {
    for ch in v.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// A bounded, drop-oldest sink for completed spans.
///
/// Disabled by default; [`set_enabled`](Self::set_enabled) turns
/// recording on. When full, the oldest record is dropped and counted —
/// a long-running process keeps the most recent window, which is the
/// one you want after an incident.
#[derive(Debug)]
pub struct TraceRing {
    records: Mutex<VecDeque<SpanRecord>>,
    capacity: usize,
    enabled: AtomicBool,
    dropped: AtomicU64,
}

impl TraceRing {
    /// A ring holding at most `capacity` spans.
    pub fn new(capacity: usize) -> Self {
        TraceRing {
            records: Mutex::new(VecDeque::with_capacity(capacity.min(1024))),
            capacity: capacity.max(1),
            enabled: AtomicBool::new(false),
            dropped: AtomicU64::new(0),
        }
    }

    /// Whether spans are currently recorded.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Spans evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Appends a record (dropping the oldest if full). No-op while
    /// disabled.
    pub fn push(&self, record: SpanRecord) {
        if !self.enabled() {
            return;
        }
        let mut records = self.records.lock().unwrap_or_else(|e| e.into_inner());
        if records.len() >= self.capacity {
            records.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        records.push_back(record);
    }

    /// Copies out the buffered records, oldest first.
    pub fn drain_snapshot(&self) -> Vec<SpanRecord> {
        let records = self.records.lock().unwrap_or_else(|e| e.into_inner());
        records.iter().cloned().collect()
    }

    /// Number of buffered records.
    pub fn len(&self) -> usize {
        self.records.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether the ring holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Serializes the buffered spans to `w` as a [`RING_FORMAT`] log:
    /// one frame per record holding its JSON line.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn dump<W: Write>(&self, w: W) -> io::Result<()> {
        let mut frames = Vec::new();
        for record in self.drain_snapshot() {
            frame::encode_frame(&mut frames, |body| {
                body.extend_from_slice(record.to_json().as_bytes());
            });
        }
        FrameWriter::create(w, &RING_FORMAT, &[])?.write_encoded(&frames)
    }
}

/// A span-ring dump read back by [`read_dump`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RingDump {
    /// The verified JSON lines, oldest first.
    pub lines: Vec<String>,
    /// Whether a torn final record was discarded.
    pub torn: bool,
}

/// Reads a span-ring dump written by [`TraceRing::dump`].
///
/// A torn tail — a record cut off mid-write by a crash — ends the read
/// cleanly with every whole record returned and
/// [`RingDump::torn`] set; the rule is [`csp_trace::frame`]'s.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidData`] on a damaged header, a record that is
/// not UTF-8, or damage anywhere but a torn tail; transport errors
/// propagate.
pub fn read_dump<R: Read>(r: R) -> io::Result<RingDump> {
    let mut frames = FrameReader::open(r, &RING_FORMAT)?;
    let mut lines = Vec::new();
    while let Some(frame) = frames.next() {
        let body = frame?;
        let len = body.len();
        lines.push(
            String::from_utf8(body)
                .map_err(|_| frames.corrupt_body(len, "span record is not UTF-8"))?,
        );
    }
    Ok(RingDump {
        lines,
        torn: frames.torn(),
    })
}

/// The process-wide span ring (capacity 4096), shared by all
/// instrumented subsystems. Disabled until something calls
/// `global_ring().set_enabled(true)` — e.g. `csp-served serve
/// --trace-out`.
pub fn global_ring() -> &'static TraceRing {
    static RING: OnceLock<TraceRing> = OnceLock::new();
    RING.get_or_init(|| TraceRing::new(4096))
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process trace epoch (first observability use).
pub fn now_ns() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

thread_local! {
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
    static THREAD_ORDINAL: u64 = {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        NEXT.fetch_add(1, Ordering::Relaxed)
    };
}

/// An RAII guard recording a span into the global ring on drop.
///
/// Construct with [`span`]. While the guard lives, its name sits on the
/// thread-local span stack, so nested spans record it as their parent.
#[derive(Debug)]
pub struct SpanGuard {
    name: &'static str,
    parent: Option<&'static str>,
    start_ns: u64,
    armed: bool,
}

/// Opens a span named `name` on the global ring.
///
/// When the ring is disabled (the default) the guard is a stub: no
/// clock read, no stack push — one relaxed load total.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !global_ring().enabled() {
        return SpanGuard {
            name,
            parent: None,
            start_ns: 0,
            armed: false,
        };
    }
    let parent = SPAN_STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let parent = stack.last().copied();
        stack.push(name);
        parent
    });
    SpanGuard {
        name,
        parent,
        start_ns: now_ns(),
        armed: true,
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        SPAN_STACK.with(|stack| {
            stack.borrow_mut().pop();
        });
        let record = SpanRecord {
            name: self.name,
            parent: self.parent,
            thread: THREAD_ORDINAL.with(|t| *t),
            start_ns: self.start_ns,
            dur_ns: now_ns().saturating_sub(self.start_ns),
        };
        global_ring().push(record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_drops_oldest_when_full() {
        let ring = TraceRing::new(2);
        ring.set_enabled(true);
        for i in 0..4u64 {
            ring.push(SpanRecord {
                name: "s",
                parent: None,
                thread: 0,
                start_ns: i,
                dur_ns: 1,
            });
        }
        let records = ring.drain_snapshot();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].start_ns, 2);
        assert_eq!(records[1].start_ns, 3);
        assert_eq!(ring.dropped(), 2);
    }

    #[test]
    fn disabled_ring_records_nothing() {
        let ring = TraceRing::new(8);
        ring.push(SpanRecord {
            name: "s",
            parent: None,
            thread: 0,
            start_ns: 0,
            dur_ns: 0,
        });
        assert!(ring.is_empty());
    }

    #[test]
    fn dump_and_read_round_trip() {
        let ring = TraceRing::new(8);
        ring.set_enabled(true);
        for i in 0..3u64 {
            ring.push(SpanRecord {
                name: "serve.request",
                parent: (i > 0).then_some("serve.connection"),
                thread: i,
                start_ns: i * 100,
                dur_ns: 50,
            });
        }
        let mut buf = Vec::new();
        ring.dump(&mut buf).unwrap();
        let dump = read_dump(buf.as_slice()).unwrap();
        assert!(!dump.torn);
        let lines = dump.lines;
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"name\":\"serve.request\""));
        assert!(lines[0].contains("\"start_ns\":0"));
        assert!(!lines[0].contains("parent"));
        assert!(lines[1].contains("\"parent\":\"serve.connection\""));
    }

    /// Tests touching the process-wide ring serialize through this.
    fn global_ring_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn spans_nest_through_the_thread_local_stack() {
        let _guard = global_ring_lock();
        let ring = global_ring();
        ring.set_enabled(true);
        {
            let _outer = span("outer");
            let _inner = span("inner");
        }
        ring.set_enabled(false);
        let records = ring.drain_snapshot();
        let inner = records
            .iter()
            .rev()
            .find(|r| r.name == "inner")
            .expect("inner span recorded");
        assert_eq!(inner.parent, Some("outer"));
        let outer = records
            .iter()
            .rev()
            .find(|r| r.name == "outer")
            .expect("outer span recorded");
        assert_eq!(outer.parent, None);
        assert!(outer.dur_ns >= inner.dur_ns);
    }

    #[test]
    fn disabled_span_is_inert() {
        let _guard = global_ring_lock();
        let before = SPAN_STACK.with(|s| s.borrow().len());
        {
            let ring = global_ring();
            let was = ring.enabled();
            ring.set_enabled(false);
            let _s = span("inert");
            ring.set_enabled(was);
        }
        let after = SPAN_STACK.with(|s| s.borrow().len());
        assert_eq!(before, after);
    }

    #[test]
    fn json_escapes_quotes_and_controls() {
        let record = SpanRecord {
            name: "a\"b",
            parent: None,
            thread: 1,
            start_ns: 2,
            dur_ns: 3,
        };
        let json = record.to_json();
        assert!(json.contains("a\\\"b"));
    }
}
