//! Portable integer SIMD lanes for the alignment kernels, and the
//! `DIBELLA_SIMD` kernel-selection knob.
//!
//! # Why hand-rolled lanes
//!
//! The lane kernels in [`crate::xdrop`] and [`crate::banded`] need exact,
//! deterministic integer arithmetic — their contract is **bit-identity**
//! with the scalar kernels, checked by a differential test suite
//! (`tests/simd_identity.rs`, `tests/kernel_golden.rs`). On stable Rust
//! there is no `std::simd`, and explicit `core::arch` intrinsics would
//! tie the crate to one ISA and drag in `unsafe`. A lane vector is
//! instead a plain fixed-size array worked on by `#[inline(always)]`
//! element-wise loops: every op is branchless straight-line integer
//! code, which LLVM auto-vectorizes to SSE2 on the x86-64 baseline and to
//! NEON on aarch64 — and on any other target it is still the *same
//! arithmetic*, so results never depend on the ISA.
//!
//! Two widths are in use. The banded kernel computes in [`I32x8`]
//! (`[i32; 8]`, two SSE2 registers). The x-drop kernel computes in
//! [`I16x16`]: 16-bit lanes are what the SSE2 baseline has a native
//! signed `max`/`min` and saturating add for (`pmaxsw`, `pminsw`,
//! `paddsw`; the 32-bit `max` is a compare-and-blend there), and twice as
//! many cells fit a register.
//!
//! # Kernel selection
//!
//! Two implementations of each hot kernel exist forever (scalar and
//! lane-vectorized); [`KernelImpl`] names them. Every kernel entry point
//! ending in `_with` takes one explicitly. The `*_with_workspace`
//! variants resolve it from [`SimdMode::from_env`] — the `DIBELLA_SIMD`
//! environment variable (`scalar` | `auto`), read once per process, else
//! [`SimdMode::Auto`], which runs the lane kernels. The pipeline resolves
//! `PipelineConfig::simd` (falling back to the same environment knob)
//! once per alignment batch and passes the [`KernelImpl`] down, so the
//! choice follows the config onto whichever executor thread runs the
//! batch.
//!
//! `scalar` pins the historical kernels — both paths stay reachable on
//! every build, which is what lets CI run the whole test suite under
//! `DIBELLA_SIMD=scalar` and the differential suites flip per call. The
//! scalar x-drop is also where the lane x-drop sends what its 16-bit
//! rows cannot represent (see [`crate::xdrop`]).

use std::sync::OnceLock;

/// Lane count of [`I32x8`]. The banded kernel pads its rows by this much
/// so full-width loads never run out of bounds.
pub const LANES: usize = 8;

/// Lane count of [`I16x16`] (two SSE2 registers or one AVX2 register).
/// The x-drop kernel's rows and staged sequence copies are padded by this
/// much.
pub const LANES16: usize = 16;

/// Which implementation of a hot alignment kernel to run.
///
/// Every auto-dispatching kernel entry point has an `*_with` twin taking
/// this explicitly — the differential tests drive both paths through one
/// shared dirty workspace and assert bit-identical results.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelImpl {
    /// The historical branchy scalar kernel.
    Scalar,
    /// The lane-SIMD kernel ([`I16x16`] for x-drop, [`I32x8`] for banded
    /// Smith-Waterman).
    Simd,
}

/// The `DIBELLA_SIMD` knob: how auto-dispatching kernels pick a
/// [`KernelImpl`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SimdMode {
    /// Force the scalar kernels everywhere.
    Scalar,
    /// Use the lane-SIMD kernels (the default; they are portable, so
    /// "auto" resolves to SIMD on every target).
    #[default]
    Auto,
}

impl std::str::FromStr for SimdMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Ok(SimdMode::Scalar),
            "auto" | "simd" => Ok(SimdMode::Auto),
            other => Err(format!("invalid SIMD mode {other:?} (scalar|auto)")),
        }
    }
}

impl std::fmt::Display for SimdMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SimdMode::Scalar => "scalar",
            SimdMode::Auto => "auto",
        })
    }
}

impl SimdMode {
    /// The process-wide default: `DIBELLA_SIMD` parsed once per process,
    /// [`SimdMode::Auto`] when unset.
    ///
    /// # Panics
    /// Panics on an unparsable value — a silently ignored kernel knob is
    /// worse than a crash.
    pub fn from_env() -> Self {
        static ENV: OnceLock<SimdMode> = OnceLock::new();
        *ENV.get_or_init(|| match std::env::var("DIBELLA_SIMD") {
            Err(_) => SimdMode::default(),
            Ok(v) => v.parse().unwrap_or_else(|e| panic!("DIBELLA_SIMD: {e}")),
        })
    }

    /// The [`KernelImpl`] this mode resolves to.
    pub fn kernel(self) -> KernelImpl {
        match self {
            SimdMode::Scalar => KernelImpl::Scalar,
            SimdMode::Auto => KernelImpl::Simd,
        }
    }
}

/// Eight `i32` lanes with branchless element-wise operations.
///
/// Addition wraps, so a lane kernel behaves the same in debug and
/// release builds; the kernels keep their values (`NEG_INF = i32::MIN /
/// 4` included) far from the `i32` limits, where wrapping and checked
/// addition agree.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct I32x8(pub [i32; LANES]);

impl I32x8 {
    /// All lanes = `v`.
    #[inline(always)]
    pub fn splat(v: i32) -> Self {
        Self([v; LANES])
    }

    /// Load lanes from `buf[at .. at + LANES]`.
    #[inline(always)]
    pub fn load(buf: &[i32], at: usize) -> Self {
        Self(buf[at..at + LANES].try_into().expect("lane load in bounds"))
    }

    /// Widen `buf[at .. at + LANES]` bytes to `i32` lanes.
    #[inline(always)]
    pub fn load_bytes(buf: &[u8], at: usize) -> Self {
        let b: [u8; LANES] = buf[at..at + LANES].try_into().expect("byte lane load in bounds");
        let mut a = [0i32; LANES];
        for (slot, &v) in a.iter_mut().zip(&b) {
            *slot = v as i32;
        }
        Self(a)
    }

    /// Store lanes into `buf[at .. at + LANES]`.
    #[inline(always)]
    pub fn store(self, buf: &mut [i32], at: usize) {
        buf[at..at + LANES].copy_from_slice(&self.0);
    }

    /// Lane-wise wrapping addition. Deliberately not `std::ops::Add`:
    /// `+` would suggest overflow-checked semantics.
    #[inline(always)]
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, o: Self) -> Self {
        let mut a = self.0;
        for (x, &y) in a.iter_mut().zip(&o.0) {
            *x = x.wrapping_add(y);
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

    /// Lane-wise equality mask against another vector: all-ones lanes
    /// where equal, 0 elsewhere.
    #[inline(always)]
    pub fn eq_lanes(self, o: Self) -> Self {
        let mut a = [0i32; LANES];
        for ((slot, &x), &y) in a.iter_mut().zip(&self.0).zip(&o.0) {
            *slot = -((x == y) as i32);
        }
        Self(a)
    }

    /// Treat `self` as a mask: lanes from `on` where the mask is set,
    /// from `off` elsewhere.
    #[inline(always)]
    pub fn blend(self, on: Self, off: Self) -> Self {
        let mut a = [0i32; LANES];
        for (k, slot) in a.iter_mut().enumerate() {
            *slot = (on.0[k] & self.0[k]) | (off.0[k] & !self.0[k]);
        }
        Self(a)
    }
}

/// `FIRST_N[n]`: all-ones in the first `n` lanes, zero in the rest.
static FIRST_N: [[i16; LANES16]; LANES16 + 1] = {
    let mut table = [[0i16; LANES16]; LANES16 + 1];
    let mut n = 0;
    while n <= LANES16 {
        let mut k = 0;
        while k < n {
            table[n][k] = -1;
            k += 1;
        }
        n += 1;
    }
    table
};

/// Sixteen `i16` lanes for the x-drop kernel — the same array-of-lanes
/// scheme as [`I32x8`], with saturating adds: a row's out-of-range
/// marker is `i16::MIN`, and saturation is what keeps terms fed by it
/// pinned near the bottom instead of wrapping.
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

    /// The first `n` lanes of `self`, `fill` in the rest.
    #[inline(always)]
    pub fn first_n_or(self, n: usize, fill: i16) -> Self {
        // A table row per `n`: computing the mask from `n` in the lane
        // loop defeats the vectorizer.
        let keep = &FIRST_N[n.min(LANES16)];
        let mut a = self.0;
        for (x, &m) in a.iter_mut().zip(keep) {
            *x = (*x & m) | (fill & !m);
        }
        Self(a)
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
    fn lane_ops_elementwise() {
        let a = I32x8([0, 1, 2, 3, 4, 5, 6, 7]);
        let b = I32x8::splat(3);
        assert_eq!(a.add(b).0, [3, 4, 5, 6, 7, 8, 9, 10]);
        assert_eq!(a.max(b).0, [3, 3, 3, 3, 4, 5, 6, 7]);
        let m = a.eq_lanes(b);
        assert_eq!(m.0, [0, 0, 0, -1, 0, 0, 0, 0]);
        let sel = m.blend(I32x8::splat(1), I32x8::splat(-9));
        assert_eq!(sel.0, [-9, -9, -9, 1, -9, -9, -9, -9]);
    }

    #[test]
    fn byte_lanes_and_eq() {
        let bytes = *b"ACGTACGT";
        let v = I32x8::load_bytes(&bytes, 0);
        assert_eq!(v.0[0], b'A' as i32);
        let eq = v.eq_lanes(I32x8::splat(b'C' as i32));
        assert_eq!(eq.0, [0, -1, 0, 0, 0, -1, 0, 0]);
    }

    #[test]
    fn load_store_roundtrip() {
        let mut buf = vec![0i32; 24];
        let v = I32x8([5, 6, 7, 8, 9, 10, 11, 12]);
        v.store(&mut buf, 8);
        assert_eq!(I32x8::load(&buf, 8), v);
        assert_eq!(&buf[..8], &[0; 8]);
    }

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
        let cut = b.first_n_or(2, -9);
        assert_eq!(&cut.0[..3], &[3, 4, -9]);
        assert_eq!(b.first_n_or(0, 7), I16x16::splat(7));
        assert_eq!(b.first_n_or(LANES16, 7), b);
        let sub = I16x16::select_eq_bytes(b"ACGTACGTACGTACGTA", b"ACGAACGTACGTTCGTyy", 2, -3);
        assert_eq!(&sub.0[..5], &[2, 2, 2, -3, 2]);
        assert_eq!(sub.0[12], -3);
        b.store(&mut buf, 0);
        assert_eq!(I16x16::load(&buf, 0), b);
    }

    #[test]
    fn mode_parsing_and_resolution() {
        assert_eq!("scalar".parse::<SimdMode>().unwrap(), SimdMode::Scalar);
        assert_eq!("AUTO".parse::<SimdMode>().unwrap(), SimdMode::Auto);
        assert!("avx512".parse::<SimdMode>().is_err());
        assert_eq!(SimdMode::Scalar.kernel(), KernelImpl::Scalar);
        assert_eq!(SimdMode::Auto.kernel(), KernelImpl::Simd);
        assert_eq!(SimdMode::Auto.to_string(), "auto");
        // The process default is DIBELLA_SIMD if the suite runs with it
        // set — CI forces `scalar` in one pass — else Auto.
        let env_default = std::env::var("DIBELLA_SIMD")
            .ok()
            .map_or(SimdMode::Auto, |v| v.parse().expect("valid DIBELLA_SIMD"));
        assert_eq!(SimdMode::from_env(), env_default);
    }
}
