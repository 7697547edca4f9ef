//! The open-loop load generator.
//!
//! Frames go out on one connection at a fixed rate, whether or not
//! earlier frames have been answered: a send thread writes each frame at
//! its due time and a receive thread reads the replies in order (the
//! server answers one connection's frames in sequence). A frame's latency
//! runs from when it was due, not from when it left, so a generator or a
//! server that falls behind shows up as latency rather than hiding it.
//! Every sample is kept; percentiles are exact.

use csp_serve::wire::{self, Response};
use std::io::{BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The latency sample of a failed frame: it misses every limit.
pub const FAILED: u64 = u64::MAX;

/// How long the receiver waits for the next reply before it gives up on
/// the frames still outstanding.
const REPLY_TIMEOUT: Duration = Duration::from_secs(2);

/// How long before a frame is due the sender stops sleeping and spins.
const SPIN: Duration = Duration::from_millis(1000);

/// What the caller makes of one reply.
pub enum Verdict {
    /// The reply is what the frame asked for.
    Answered,
    /// A refused or failed frame: counted in `failed`, not an error.
    Failed,
    /// A wrong answer: the run's correctness check fails.
    Wrong(String),
}

/// One open-loop stream.
pub struct Load<'a> {
    /// Request frames, framed for the wire; frame `k` is
    /// `frames[k % frames.len()]`.
    pub frames: &'a [Vec<u8>],
    /// Frames per second; infinite sends them back to back.
    pub rate: f64,
    /// Frames to send.
    pub count: u64,
    /// Whether the sender spins (yielding) for the last stretch before a
    /// frame is due rather than sleeping.
    pub spin: bool,
    /// Judges the reply to frame `k`.
    pub check: &'a (dyn Fn(usize, &Response) -> Verdict + Sync),
    /// Ends the stream early once set.
    pub until: Option<&'a AtomicBool>,
}

/// What one stream measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Per frame, ns from its due time to its reply; [`FAILED`] for a
    /// failed or unanswered frame.
    pub latency_ns: Vec<u64>,
    /// Per frame sent, ns by which the send ran behind its due time.
    pub late_ns: Vec<u64>,
    /// Frames failed or never answered.
    pub failed: u64,
    /// ns from the stream's start to its last reply.
    pub last_reply_ns: u64,
}

/// Drives `load` over `stream` with two threads and returns when every
/// sent frame has been answered or timed out. The stream is closed for
/// writing at the end, so it serves one load only.
///
/// # Errors
///
/// A wrong answer, or a connection that cannot be set up.
pub fn open_loop(stream: &TcpStream, load: &Load) -> Result<Outcome, String> {
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let reader = stream.try_clone().map_err(|e| e.to_string())?;
    reader
        .set_read_timeout(Some(REPLY_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let period = Duration::from_secs_f64(1.0 / load.rate);
    let total = load.count;
    let sent = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let start = Instant::now() + Duration::from_millis(1);
    let due = |k: u64| start + period.mul_f64(k as f64);

    std::thread::scope(|s| {
        let sender = s.spawn(|| {
            let mut late_ns = Vec::with_capacity(total.min(1 << 16) as usize);
            for k in 0..total {
                if stop.load(Ordering::Relaxed)
                    || load.until.is_some_and(|u| u.load(Ordering::Relaxed))
                {
                    break;
                }
                let at = due(k);
                wait_until(at, load.spin);
                late_ns.push(Instant::now().saturating_duration_since(at).as_nanos() as u64);
                let frame = &load.frames[k as usize % load.frames.len()];
                if writer.write_all(frame).is_err() {
                    break;
                }
                sent.store(k + 1, Ordering::Release);
            }
            // The server answers what it has and then sees the end of
            // the stream, so the receiver's last read ends promptly.
            let _ = writer.shutdown(Shutdown::Write);
            late_ns
        });

        let mut reader = BufReader::new(reader);
        let mut out = Outcome::default();
        let mut wrong = None;
        let mut k = 0u64;
        while k < total {
            let reply = match wire::read_response(&mut reader) {
                Ok(reply) => reply,
                Err(_) => break,
            };
            let now = Instant::now();
            let latency = now.saturating_duration_since(due(k)).as_nanos() as u64;
            out.last_reply_ns = now.saturating_duration_since(start).as_nanos() as u64;
            match (load.check)(k as usize % load.frames.len(), &reply) {
                Verdict::Answered => out.latency_ns.push(latency),
                Verdict::Failed => {
                    out.failed += 1;
                    out.latency_ns.push(FAILED);
                }
                Verdict::Wrong(why) => {
                    wrong = Some(why);
                    break;
                }
            }
            k += 1;
        }
        stop.store(true, Ordering::Relaxed);
        out.late_ns = sender.join().unwrap_or_default();
        // Frames sent but never answered failed.
        let unanswered = sent.load(Ordering::Acquire).saturating_sub(k);
        out.failed += unanswered;
        out.latency_ns
            .extend(std::iter::repeat_n(FAILED, unanswered as usize));
        match wrong {
            Some(why) => Err(why),
            None => Ok(out),
        }
    })
}

/// One round trip at a time over `stream`, timing each: the closed-loop
/// producer of the ingest workload and the traced run's socket probe.
/// `check` judges each reply as in [`open_loop`].
///
/// # Errors
///
/// A wrong answer or a broken connection.
pub fn closed_loop(
    stream: &TcpStream,
    frames: &[Vec<u8>],
    check: &dyn Fn(usize, &Response) -> Verdict,
) -> Result<Outcome, String> {
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let reader = stream.try_clone().map_err(|e| e.to_string())?;
    reader
        .set_read_timeout(Some(REPLY_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(reader);
    let mut out = Outcome::default();
    for (k, frame) in frames.iter().enumerate() {
        let started = Instant::now();
        writer.write_all(frame).map_err(|e| format!("send: {e}"))?;
        let reply = wire::read_response(&mut reader).map_err(|e| format!("reply: {e}"))?;
        let latency = started.elapsed().as_nanos() as u64;
        match check(k, &reply) {
            Verdict::Answered => out.latency_ns.push(latency),
            Verdict::Failed => {
                out.failed += 1;
                out.latency_ns.push(FAILED);
            }
            Verdict::Wrong(why) => return Err(why),
        }
    }
    Ok(out)
}

/// Waits for `at`: sleeps while it is far off, then (with `spin`) spins,
/// yielding the processor to any runnable thread. Spinning keeps this processor
/// awake, so a frame leaves on time instead of after the wake-up delay
/// of an idle processor, which on a virtual machine can reach
/// milliseconds.
fn wait_until(at: Instant, spin: bool) {
    let margin = if spin { SPIN } else { Duration::ZERO };
    loop {
        let now = Instant::now();
        if now >= at {
            return;
        }
        if at - now > margin {
            std::thread::sleep(at - now - margin);
        } else {
            std::thread::yield_now();
        }
    }
}

/// Frames a request for the wire.
pub fn frame(request: &wire::Request) -> Vec<u8> {
    let mut out = Vec::new();
    wire::write_frame(&mut out, &wire::encode_request(request))
        .expect("writing to a Vec cannot fail and requests fit a frame");
    out
}

/// Latency percentiles over exact samples.
#[derive(Clone, Copy, Debug, Default)]
pub struct Percentiles {
    /// Samples, failed ones included.
    pub count: usize,
    /// Median, µs.
    pub p50_us: f64,
    /// 90th percentile, µs.
    pub p90_us: f64,
    /// The 99th percentile, µs, or with fewer than 1000 samples the
    /// highest percentile with ten samples beyond it (infinite when
    /// failed frames reach it).
    pub tail_us: f64,
}

/// The median and the tail quantile of `samples` (ns).
pub fn percentiles(samples: &[u64]) -> Percentiles {
    let mut v = samples.to_vec();
    v.sort_unstable();
    let n = v.len();
    if n == 0 {
        return Percentiles::default();
    }
    let tail_q = if n >= 1000 {
        0.99
    } else {
        (1.0 - 10.0 / n as f64).max(0.5)
    };
    let at = |q: f64| {
        let i = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
        match v[i] {
            FAILED => f64::INFINITY,
            ns => ns as f64 / 1e3,
        }
    };
    Percentiles {
        count: n,
        p50_us: at(0.5),
        p90_us: at(0.9),
        tail_us: at(tail_q),
    }
}
