//! Portable 16-bit integer lanes for the x-drop kernel, and the
//! [`SimdMode`] switch between that kernel and its scalar oracle.
//!
//! # Why hand-rolled lanes
//!
//! The lane kernel in `xdrop.rs` needs exact, deterministic integer
//! arithmetic — its contract is **bit-identity** with the scalar core,
//! checked by a differential test suite (`tests/simd_identity.rs`,
//! `tests/kernel_golden.rs`). On stable Rust there is no `std::simd`, and
//! explicit `core::arch` intrinsics would tie the crate to one ISA and
//! drag in `unsafe`. A lane vector is instead a plain fixed-size array
//! worked on by `#[inline(always)]` element-wise loops: every op is
//! branchless straight-line integer code, which LLVM auto-vectorizes to
//! SSE2 on the x86-64 baseline and to NEON on aarch64 — and on any other
//! target it is still the *same arithmetic*, so results never depend on
//! the ISA.
//!
//! The width is [`I16x16`]: 16-bit lanes are what the SSE2 baseline has a
//! native signed `max`/`min` and saturating add for (`pmaxsw`, `pminsw`,
//! `paddsw`; the 32-bit `max` is a compare-and-blend there), and twice as
//! many cells fit a register.

/// Lane count of [`I16x16`] (two SSE2 registers or one AVX2 register).
/// The x-drop kernel's rows and staged sequence copies are padded by this
/// much.
pub const LANES16: usize = 16;

/// Which x-drop core an extension runs.
///
/// The two are bit-identical — scores, extents and `cells` — so this
/// never changes output, only throughput. Production callers pass
/// [`SimdMode::Auto`]; [`SimdMode::Scalar`] exists so tests can hold the
/// lane kernel against the scalar core through one shared workspace.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SimdMode {
    /// The scalar `i32` core for every input: the differential oracle.
    Scalar,
    /// The 16-bit lane kernel wherever the scoring and `x` fit its rows
    /// (`x ≤ 4000`; `|match|`, `|mismatch|`, `|gap| ≤ 64`), the scalar
    /// core otherwise — or when an in-band cell sinks out of the 16-bit
    /// range mid-extension. Portable, so the same on every target.
    #[default]
    Auto,
}

/// `PAST_N[n]`: zero in the first `n` lanes, `i16::MIN` in the rest.
static PAST_N: [[i16; LANES16]; LANES16 + 1] = {
    let mut table = [[i16::MIN; LANES16]; LANES16 + 1];
    let mut n = 0;
    while n <= LANES16 {
        let mut k = 0;
        while k < n {
            table[n][k] = 0;
            k += 1;
        }
        n += 1;
    }
    table
};

/// Sixteen `i16` lanes with branchless element-wise operations. Adds
/// saturate: a row's out-of-range marker is `i16::MIN`, and saturation is
/// what keeps terms fed by it pinned near the bottom instead of wrapping.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct I16x16(pub [i16; LANES16]);

impl I16x16 {
    /// All lanes = `v`.
    #[inline(always)]
    pub fn splat(v: i16) -> Self {
        Self([v; LANES16])
    }

    /// Load lanes from `buf[at .. at + LANES16]`.
    #[inline(always)]
    pub fn load(buf: &[i16], at: usize) -> Self {
        Self(buf[at..at + LANES16].try_into().expect("lane load in bounds"))
    }

    /// Store lanes into `buf[at .. at + LANES16]`.
    #[inline(always)]
    pub fn store(self, buf: &mut [i16], at: usize) {
        buf[at..at + LANES16].copy_from_slice(&self.0);
    }

    /// Substitution scores of the first [`LANES16`] bytes of `a` against
    /// those of `b`: `on` where the bytes are equal, `off` elsewhere.
    #[inline(always)]
    pub fn select_eq_bytes(a: &[u8], b: &[u8], on: i16, off: i16) -> Self {
        let a: [u8; LANES16] = a[..LANES16].try_into().expect("byte load in bounds");
        let b: [u8; LANES16] = b[..LANES16].try_into().expect("byte load in bounds");
        let mut v = [0i16; LANES16];
        for ((slot, &x), &y) in v.iter_mut().zip(&a).zip(&b) {
            *slot = if x == y { on } else { off };
        }
        Self(v)
    }

    /// Lane-wise saturating addition.
    #[inline(always)]
    pub fn sat_add(self, o: Self) -> Self {
        let mut a = self.0;
        for (x, &y) in a.iter_mut().zip(&o.0) {
            *x = x.saturating_add(y);
        }
        Self(a)
    }

    /// Lane-wise saturating subtraction.
    #[inline(always)]
    pub fn sat_sub(self, o: Self) -> Self {
        let mut a = self.0;
        for (x, &y) in a.iter_mut().zip(&o.0) {
            *x = x.saturating_sub(y);
        }
        Self(a)
    }

    /// Lane-wise signed maximum.
    #[inline(always)]
    pub fn max(self, o: Self) -> Self {
        let mut a = self.0;
        for (x, &y) in a.iter_mut().zip(&o.0) {
            *x = (*x).max(y);
        }
        Self(a)
    }

    /// Lane-wise signed minimum.
    #[inline(always)]
    pub fn min(self, o: Self) -> Self {
        let mut a = self.0;
        for (x, &y) in a.iter_mut().zip(&o.0) {
            *x = (*x).min(y);
        }
        Self(a)
    }

    /// Zero in the first `n ≤` [`LANES16`] lanes and `i16::MIN` in the
    /// rest: added with saturation it pins the lanes past `n` at or below
    /// −1, subtracted at or above 0, and leaves the first `n` as they are.
    #[inline(always)]
    pub fn past(n: usize) -> Self {
        // A table row per `n`: computing the lanes from `n` in the chunk
        // loop defeats the vectorizer.
        Self(PAST_N[n])
    }

    /// Horizontal maximum over all lanes.
    #[inline(always)]
    pub fn hmax(self) -> i16 {
        self.0.into_iter().fold(i16::MIN, i16::max)
    }

    /// Horizontal minimum over all lanes.
    #[inline(always)]
    pub fn hmin(self) -> i16 {
        self.0.into_iter().fold(i16::MAX, i16::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn i16_lane_ops() {
        let mut buf = vec![0i16; 40];
        for (k, slot) in buf.iter_mut().enumerate() {
            *slot = k as i16 - 20;
        }
        let a = I16x16::load(&buf, 3); // -17 ..= -2
        let b = I16x16::load(&buf, 23); // 3 ..= 18
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!((a.hmax(), a.hmin()), (-2, -17));
        // Saturation pins both ends instead of wrapping.
        let low = I16x16::splat(i16::MIN).sat_add(I16x16::splat(-5));
        assert_eq!(low, I16x16::splat(i16::MIN));
        assert_eq!(I16x16::splat(i16::MAX).sat_add(b), I16x16::splat(i16::MAX));
        assert_eq!(a.sat_add(b).0[0], -14);
        assert_eq!(a.sat_sub(b).0[0], -20);
        assert_eq!(I16x16::splat(i16::MIN).sat_sub(b), I16x16::splat(i16::MIN));
        // `past(n)` keeps the first n lanes and pins the rest below 0
        // (added) or at or above 0 (subtracted).
        let past = I16x16::past(2);
        assert_eq!(&b.sat_add(past).0[..3], &[3, 4, i16::MIN + 5]);
        assert_eq!(&a.sat_sub(past).0[..3], &[-17, -16, i16::MAX - 14]);
        assert_eq!(I16x16::splat(i16::MAX).sat_add(I16x16::past(0)), I16x16::splat(-1));
        assert_eq!(b.sat_add(I16x16::past(LANES16)), b);
        let sub = I16x16::select_eq_bytes(b"ACGTACGTACGTACGTA", b"ACGAACGTACGTTCGTyy", 2, -3);
        assert_eq!(&sub.0[..5], &[2, 2, 2, -3, 2]);
        assert_eq!(sub.0[12], -3);
        b.store(&mut buf, 0);
        assert_eq!(I16x16::load(&buf, 0), b);
    }
}
