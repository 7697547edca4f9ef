//! SIMD batch scoring: the confusion accumulator behind the kernel.
//!
//! The scoring fold of every scheme is pure bitmap algebra, and the
//! confusion-matrix bookkeeping reduces to three exact popcount sums per
//! decision:
//!
//! ```text
//! tp        += popcount(predicted & actual)
//! predicted += popcount(predicted)
//! actual    += popcount(actual)
//! ```
//!
//! with `fp = predicted − tp`, `fn = actual − tp` and
//! `tn = decisions − tp − fp − fn` recovered at the end. Integer sums are
//! order- and grouping-independent, so the decisions can be accumulated
//! in batches of 8 with `core::arch::x86_64` vector popcounts and remain
//! **bit-identical** to per-event [`ConfusionMatrix::record`] calls.
//!
//! The vector path is selected at runtime with
//! `is_x86_feature_detected!("avx2")`; every other build (or
//! `CSP_SIMD=scalar` in the environment) takes the scalar-POPCNT
//! fallback, which sums the same integers and therefore produces the
//! same matrix. [`crate::engine::run_scheme_with_backend`] pins a backend
//! explicitly.
//!
//! This module is the only place in the crate allowed to use `unsafe`
//! (the crate is `deny(unsafe_code)`): the intrinsics below are
//! feature-gated by the runtime dispatch and touch only stack buffers.

#![allow(unsafe_code)]

use csp_metrics::ConfusionMatrix;

/// Which accumulation path the kernel's confusion accumulator uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimdBackend {
    /// 256-bit AVX2 nibble-LUT popcounts, 8 decisions per flush.
    Avx2,
    /// Scalar `count_ones` (hardware POPCNT on x86-64-v2 builds).
    Scalar,
}

impl SimdBackend {
    /// Stable lowercase name (for logs and diagnostics).
    pub fn name(self) -> &'static str {
        match self {
            SimdBackend::Avx2 => "avx2",
            SimdBackend::Scalar => "scalar",
        }
    }
}

/// Picks the fastest backend the host supports.
///
/// Setting `CSP_SIMD=scalar` in the environment forces the scalar
/// fallback (used by CI to exercise that path on AVX2 hosts); any other
/// value is ignored. Non-x86 targets always get the scalar path.
pub fn detect_backend() -> SimdBackend {
    if std::env::var_os("CSP_SIMD").is_some_and(|v| v == "scalar") {
        return SimdBackend::Scalar;
    }
    if avx2_available() {
        SimdBackend::Avx2
    } else {
        SimdBackend::Scalar
    }
}

fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Requests the head of the next slot's pre-gathered payload span into
/// cache while the current slot's batch is still scoring. A miss costs
/// nothing (prefetch is a hint and any address is allowed); past the last
/// slot the slice is empty and no hint is issued.
#[inline(always)]
pub(crate) fn prefetch_next<T>(upcoming: &[T]) {
    #[cfg(target_arch = "x86_64")]
    if let Some(first) = upcoming.first() {
        // SAFETY: prefetch performs no memory access; the pointer is a
        // valid in-bounds reference anyway.
        unsafe {
            use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            _mm_prefetch::<_MM_HINT_T0>(first as *const T as *const i8);
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = upcoming;
}

/// Decisions per accumulator flush: two 256-bit vectors of packed
/// bitmaps.
const BATCH: usize = 8;

/// The batched confusion accumulator: buffers `(predicted, actual)` bit
/// pairs and folds full batches into the three popcount sums.
pub(crate) struct BatchAcc {
    pred: [u64; BATCH],
    act: [u64; BATCH],
    fill: usize,
    tp: u64,
    predicted: u64,
    actual: u64,
    scored: u64,
    backend: SimdBackend,
}

impl BatchAcc {
    /// An empty accumulator. An `Avx2` request on a host without AVX2
    /// falls back to the scalar path, so the vector intrinsics only ever
    /// run where the CPU has them.
    pub(crate) fn new(backend: SimdBackend) -> Self {
        let backend = match backend {
            SimdBackend::Avx2 if !avx2_available() => SimdBackend::Scalar,
            other => other,
        };
        BatchAcc {
            pred: [0; BATCH],
            act: [0; BATCH],
            fill: 0,
            tp: 0,
            predicted: 0,
            actual: 0,
            scored: 0,
            backend,
        }
    }

    #[inline(always)]
    pub(crate) fn push(&mut self, predicted: u64, actual: u64) {
        self.pred[self.fill] = predicted;
        self.act[self.fill] = actual;
        self.fill += 1;
        if self.fill == BATCH {
            self.flush();
        }
    }

    #[inline]
    fn flush(&mut self) {
        let n = self.fill;
        self.fill = 0;
        self.scored += n as u64;
        #[cfg(target_arch = "x86_64")]
        if self.backend == SimdBackend::Avx2 && n == BATCH {
            // SAFETY: `BatchAcc::new` keeps the Avx2 backend only where
            // `is_x86_feature_detected!("avx2")` holds.
            let (tp, p, a) = unsafe { avx2_batch(&self.pred, &self.act) };
            self.tp += tp;
            self.predicted += p;
            self.actual += a;
            return;
        }
        for i in 0..n {
            let (p, a) = (self.pred[i], self.act[i]);
            self.tp += (p & a).count_ones() as u64;
            self.predicted += p.count_ones() as u64;
            self.actual += a.count_ones() as u64;
        }
    }

    /// Recovers the full matrix from the three sums.
    pub(crate) fn finalize(mut self, nodes: usize) -> ConfusionMatrix {
        self.flush();
        let tp = self.tp;
        let fp = self.predicted - tp;
        let fn_ = self.actual - tp;
        let decisions = self.scored * nodes as u64;
        ConfusionMatrix {
            tp,
            fp,
            fn_,
            tn: decisions - tp - fp - fn_,
        }
    }
}

/// Popcount-accumulates one full batch: returns the exact
/// `(Σ popcount(p & a), Σ popcount(p), Σ popcount(a))` over all 8 lanes.
///
/// # Safety
///
/// Requires AVX2 (callers gate on runtime feature detection).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn avx2_batch(pred: &[u64; BATCH], act: &[u64; BATCH]) -> (u64, u64, u64) {
    use core::arch::x86_64::*;
    // SAFETY: loads read 32 in-bounds bytes from the 64-byte stack
    // buffers; all other intrinsics are register-only.
    unsafe {
        let mut tp = _mm256_setzero_si256();
        let mut pp = _mm256_setzero_si256();
        let mut aa = _mm256_setzero_si256();
        for half in 0..2 {
            let p = _mm256_loadu_si256(pred.as_ptr().add(half * 4) as *const __m256i);
            let a = _mm256_loadu_si256(act.as_ptr().add(half * 4) as *const __m256i);
            tp = _mm256_add_epi64(tp, popcnt_epi64(_mm256_and_si256(p, a)));
            pp = _mm256_add_epi64(pp, popcnt_epi64(p));
            aa = _mm256_add_epi64(aa, popcnt_epi64(a));
        }
        (hsum_epi64(tp), hsum_epi64(pp), hsum_epi64(aa))
    }
}

/// Per-lane 64-bit popcount via the pshufb nibble LUT (Muła's method):
/// exact counts, no precision caveats.
///
/// # Safety
///
/// Requires AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn popcnt_epi64(v: core::arch::x86_64::__m256i) -> core::arch::x86_64::__m256i {
    use core::arch::x86_64::*;
    // Register-only AVX2 operations (safe in a matching
    // `target_feature` context).
    #[rustfmt::skip]
    let lut = _mm256_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
    );
    let low_mask = _mm256_set1_epi8(0x0f);
    let lo = _mm256_and_si256(v, low_mask);
    let hi = _mm256_and_si256(_mm256_srli_epi16::<4>(v), low_mask);
    let per_byte = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi));
    // Sum the byte counts of each 64-bit lane.
    _mm256_sad_epu8(per_byte, _mm256_setzero_si256())
}

/// Horizontal sum of the four 64-bit lanes.
///
/// # Safety
///
/// Requires AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn hsum_epi64(v: core::arch::x86_64::__m256i) -> u64 {
    use core::arch::x86_64::*;
    let mut lanes = [0u64; 4];
    // Stores 32 bytes into the 32-byte stack buffer.
    _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, v);
    lanes[0] + lanes[1] + lanes[2] + lanes[3]
}

#[cfg(test)]
mod tests {
    use super::*;
    use csp_trace::SharingBitmap;

    #[test]
    fn backends_accumulate_exactly_what_record_sums() {
        let mut backends = vec![SimdBackend::Scalar];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            backends.push(SimdBackend::Avx2);
        }
        // 8k+5 decisions: full batches plus a partial tail flush.
        let pairs: Vec<(u64, u64)> = (0..8 * 7 + 5u64)
            .map(|i| {
                let p = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) & 0xFFFF;
                let a = (i * 0x2545_F491) & 0xFFFF;
                (p, a)
            })
            .collect();
        let mut expected = ConfusionMatrix::default();
        for &(p, a) in &pairs {
            expected.record(SharingBitmap::from_bits(p), SharingBitmap::from_bits(a), 16);
        }
        for backend in backends {
            let mut acc = BatchAcc::new(backend);
            for &(p, a) in &pairs {
                acc.push(p, a);
            }
            assert_eq!(acc.finalize(16), expected, "{}", backend.name());
        }
    }

    #[test]
    fn backend_names_are_stable() {
        assert_eq!(SimdBackend::Avx2.name(), "avx2");
        assert_eq!(SimdBackend::Scalar.name(), "scalar");
        // Whatever the host supports, detection never panics.
        let _ = detect_backend();
    }
}
