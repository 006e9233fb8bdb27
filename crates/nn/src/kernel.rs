//! Cache-blocked, register-tiled f32 matmul kernels and fused layer ops.
//!
//! All three GEMM orientations the MLP needs are covered, each shaped so the
//! innermost loop is a fixed-width multiply-accumulate over contiguous memory
//! that LLVM autovectorizes:
//!
//! * [`gemm_nn`] — `C = A × B` (forward pass). `MR × NR` output tiles are
//!   accumulated in registers while streaming rows of `B`.
//! * [`gemm_nt`] — `C = A × Bᵀ` (backward `dX = δ × Wᵀ`). Since the dot-product
//!   orientation reads `B` row-wise, `NR` rows of `B` are first packed into an
//!   interleaved column panel so the inner loop regains the broadcast-×-vector
//!   shape of `gemm_nn`.
//! * [`gemm_tn`] — `C = Aᵀ × B` (backward `dW = Xᵀ × δ`). The reduction runs
//!   over the batch dimension with the output tile held in registers.
//!
//! Fused layer ops keep the training step down to one memory pass per tensor:
//! [`gemm_bias_act`] applies bias and activation on the output tile while it
//! is still cache-hot, and [`act_grad_mul`] folds the activation derivative
//! into the backpropagated delta in place.
//!
//! On x86-64 CPUs with AVX2+FMA (detected once per process) the forward
//! orientation runs explicit fused-multiply-add tiles for every `(m, n)` —
//! 4-row tiles, masked column tails and a row-streaming GEMV for batch-1
//! inference — with bias, ReLU and an 8-lane [`crate::ops::tanh`] applied in
//! registers; the portable microkernels are the implementation everywhere
//! else and the differential reference in the tests.
//!
//! Every kernel writes its full output (no read-modify-write), takes plain
//! slices, and allocates nothing — scratch space (the `gemm_nt` pack panel)
//! is caller-owned so steady-state training performs zero heap allocations.

use crate::mlp::Activation;
use crate::ops;

/// Register-tile height: rows of `A` (or columns of `Aᵀ`) per microkernel.
pub const MR: usize = 4;
/// Register-tile width: output columns per microkernel. Two 8-lane AVX
/// vectors; `MR × NR` f32 accumulators fit the 16 vector registers of both
/// AVX2 and NEON-class machines with room for the `B` row and broadcast.
pub const NR: usize = 16;

/// Explicit AVX2+FMA kernels, used when the CPU supports them.
///
/// The portable microkernels below compile against the x86-64 baseline
/// (SSE2, no FMA), so autovectorization leaves most of a modern core idle.
/// Here one register tile, [`tile_nn`], is written directly with 256-bit
/// fused multiply-adds and instantiated at every shape the forward pass
/// needs, so no `(m, n)` falls back to the portable code:
///
/// * `4 × 16`, unmasked — full tiles (8 accumulators, one broadcast per row
///   and two `B`-row loads per reduction step);
/// * `4 × 1..=16`, last vector masked — the `n mod 16` column tail of a
///   4-row block (the 9-wide policy head, the 1-wide value head);
/// * `1 × 1..=64`, last vector masked — row streaming for rows that do not
///   fill a 4-row block (all of batch-1 inference, the `m mod 4` tail):
///   one broadcast of `x[t]` feeds up to eight accumulators from 64
///   *contiguous* columns of `W`, so `W` is read once, sequentially, with
///   eight independent FMA chains.
///
/// Every output element, in every instantiation, is the same chain
/// `acc = fma(x[t], w[t][j], acc)` for `t = 0..k` from zero, then `+ bias`,
/// then the activation — all lane-wise — so **a row's output does not depend
/// on the batch it is evaluated in**. The choice of this module is made once
/// per process via CPUID (`is_x86_feature_detected!` caches its answer), so
/// every machine runs one kernel consistently and training stays bitwise
/// reproducible across runs and worker counts.
#[cfg(target_arch = "x86_64")]
mod fma {
    use super::{Activation, MR, NR};
    use crate::ops::tanh_poly::{ALPHA, BETA, CLAMP, TINY};
    use std::arch::x86_64::*;

    /// f32 lanes per 256-bit vector.
    const LANES: usize = 8;
    /// Columns one row-streaming pass covers: eight accumulators.
    const ROW_COLS: usize = 8 * LANES;

    /// Whether the AVX2+FMA kernels may be called on this CPU.
    #[inline]
    pub fn available() -> bool {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }

    /// A mask enabling the first `lanes` (1..=8) lanes of a vector.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn lane_mask(lanes: usize) -> __m256i {
        _mm256_cmpgt_epi32(_mm256_set1_epi32(lanes as i32), _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7))
    }

    /// Eight lanes of [`crate::ops::tanh`]: the same operations in the same
    /// order, so each lane holds the bits the scalar function returns.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    fn tanh8(x: __m256) -> __m256 {
        // `min`/`max` return their second operand when either is NaN, so with
        // `x` second a NaN lane passes through the clamp.
        let c = _mm256_max_ps(_mm256_set1_ps(-CLAMP), _mm256_min_ps(_mm256_set1_ps(CLAMP), x));
        let c2 = _mm256_mul_ps(c, c);
        let horner = |coeffs: &[f32]| {
            let (&top, rest) = coeffs.split_last().expect("non-empty polynomial");
            rest.iter().rev().fold(_mm256_set1_ps(top), |p, &a| _mm256_fmadd_ps(c2, p, _mm256_set1_ps(a)))
        };
        let p = _mm256_mul_ps(c, horner(&ALPHA));
        let q = horner(&BETA);
        let abs_x = _mm256_andnot_ps(_mm256_set1_ps(-0.0), x);
        let tiny = _mm256_cmp_ps::<_CMP_LT_OQ>(abs_x, _mm256_set1_ps(TINY));
        _mm256_blendv_ps(_mm256_div_ps(p, q), x, tiny)
    }

    /// `out = act(a × b + bias)` on an `R`-row tile of `cols` columns held in
    /// `R × NV` vector accumulators, `(NV − 1) · 8 < cols ≤ NV · 8`. With
    /// `MASKED`, the last vector of each row is loaded and stored under a lane
    /// mask, so nothing beyond column `cols` of `b`, `bias` or `out` is
    /// touched; without it `cols` must be `NV · 8`.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2+FMA are available (see [`available`]).
    /// Shape bounds are asserted.
    #[allow(clippy::too_many_arguments)] // mirrors the BLAS microkernel signature
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn tile_nn<const R: usize, const NV: usize, const MASKED: bool>(
        k: usize,
        cols: usize,
        a: &[f32],
        lda: usize,
        b: &[f32],
        ldb: usize,
        bias: Option<&[f32]>,
        act: Option<Activation>,
        out: &mut [f32],
        ldc: usize,
    ) {
        assert!(cols <= NV * LANES && cols + LANES > NV * LANES, "fma tile width outside its vectors");
        assert!(MASKED || cols == NV * LANES, "fma unmasked tile must be full");
        assert!(a.len() >= (R - 1) * lda + k, "fma nn a slice too short");
        assert!(k == 0 || b.len() >= (k - 1) * ldb + cols, "fma nn b slice too short");
        assert!(bias.is_none_or(|bias| bias.len() >= cols), "fma nn bias slice too short");
        assert!(out.len() >= (R - 1) * ldc + cols, "fma nn out slice too short");
        // SAFETY: the asserts above bound every access below: row `r` of `a`
        // is read at `r * lda + t` for `t < k`; row `t` of `b`, `bias`, and
        // row `r` of `out` are touched at columns `< cols` only — full
        // vectors end at `(NV - 1) * 8 < cols`, and the last vector is either
        // full (`cols == NV * 8`) or masked to its first `cols - (NV - 1) * 8`
        // lanes, and masked-off lanes are never accessed.
        unsafe {
            let mask = lane_mask(cols - (NV - 1) * LANES);
            let load = |p: *const f32, v: usize| {
                if MASKED && v == NV - 1 {
                    _mm256_maskload_ps(p.add(v * LANES), mask)
                } else {
                    _mm256_loadu_ps(p.add(v * LANES))
                }
            };
            let ap = a.as_ptr();
            let mut bp = b.as_ptr();
            let mut acc = [[_mm256_setzero_ps(); NV]; R];
            for t in 0..k {
                let mut brow = [_mm256_setzero_ps(); NV];
                for (v, bv) in brow.iter_mut().enumerate() {
                    *bv = load(bp, v);
                }
                for (r, accr) in acc.iter_mut().enumerate() {
                    let x = _mm256_set1_ps(*ap.add(r * lda + t));
                    for (accv, &bv) in accr.iter_mut().zip(&brow) {
                        *accv = _mm256_fmadd_ps(x, bv, *accv);
                    }
                }
                bp = bp.add(ldb);
            }
            let op = out.as_mut_ptr();
            for v in 0..NV {
                let bias_v = bias.map(|bias| load(bias.as_ptr(), v));
                for (r, accr) in acc.iter().enumerate() {
                    let mut y = accr[v];
                    if let Some(bias_v) = bias_v {
                        y = _mm256_add_ps(y, bias_v);
                    }
                    y = match act {
                        // Operand order keeps `f32::max`'s NaN → 0 of the portable path.
                        Some(Activation::Relu) => _mm256_max_ps(y, _mm256_setzero_ps()),
                        Some(Activation::Tanh) => tanh8(y),
                        None => y,
                    };
                    let dst = op.add(r * ldc + v * LANES);
                    if MASKED && v == NV - 1 {
                        _mm256_maskstore_ps(dst, mask, y);
                    } else {
                        _mm256_storeu_ps(dst, y);
                    }
                }
            }
        }
    }

    /// The fused forward layer of [`super::gemm_bias_act`]: 4-row blocks in
    /// 16-column tiles with a masked column tail, then the remaining rows one
    /// at a time through the row-streaming tiles.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2+FMA are available (see [`available`]). A slice
    /// shorter than the `m/k/n` shape implies panics.
    #[allow(clippy::too_many_arguments)] // mirrors the BLAS layer-op signature
    pub unsafe fn gemm_bias_act(
        m: usize,
        k: usize,
        n: usize,
        a: &[f32],
        w: &[f32],
        bias: Option<&[f32]>,
        act: Option<Activation>,
        out: &mut [f32],
    ) {
        // The tile of `R` rows and `NV` vectors whose top-left output element
        // is `(i, j)`.
        macro_rules! tile {
            ($r:expr, $nv:expr, $masked:expr, $i:expr, $j:expr, $cols:expr) => {
                // SAFETY: AVX2+FMA are this function's own precondition.
                unsafe {
                    tile_nn::<$r, $nv, $masked>(
                        k,
                        $cols,
                        &a[$i * k..],
                        k,
                        &w[$j..],
                        n,
                        bias.map(|bias| &bias[$j..]),
                        act,
                        &mut out[$i * n + $j..],
                        n,
                    )
                }
            };
        }
        let blocked = m - m % MR;
        for i in (0..blocked).step_by(MR) {
            for j in (0..n).step_by(NR) {
                let cols = NR.min(n - j);
                match cols.div_ceil(LANES) {
                    2 if cols == NR => tile!(MR, 2, false, i, j, cols),
                    2 => tile!(MR, 2, true, i, j, cols),
                    _ => tile!(MR, 1, true, i, j, cols),
                }
            }
        }
        for i in blocked..m {
            for j in (0..n).step_by(ROW_COLS) {
                let cols = ROW_COLS.min(n - j);
                match cols.div_ceil(LANES) {
                    1 => tile!(1, 1, true, i, j, cols),
                    2 => tile!(1, 2, true, i, j, cols),
                    3 => tile!(1, 3, true, i, j, cols),
                    4 => tile!(1, 4, true, i, j, cols),
                    5 => tile!(1, 5, true, i, j, cols),
                    6 => tile!(1, 6, true, i, j, cols),
                    7 => tile!(1, 7, true, i, j, cols),
                    _ => tile!(1, 8, true, i, j, cols),
                }
            }
        }
    }

    /// FMA twin of [`super::micro_tn_full`].
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2+FMA are available (see [`available`]).
    /// Shape bounds are asserted.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn micro_tn(
        m: usize,
        a: &[f32],
        lda: usize,
        b: &[f32],
        ldb: usize,
        out: &mut [f32],
        ldc: usize,
    ) {
        assert!(m == 0 || a.len() >= (m - 1) * lda + MR, "fma tn a slice too short");
        assert!(m == 0 || b.len() >= (m - 1) * ldb + NR, "fma tn b slice too short");
        assert!(out.len() >= (MR - 1) * ldc + NR, "fma tn out slice too short");
        unsafe {
            let mut ap = a.as_ptr();
            let mut bp = b.as_ptr();
            let mut acc = [[_mm256_setzero_ps(); 2]; MR];
            for _ in 0..m {
                let b0 = _mm256_loadu_ps(bp);
                let b1 = _mm256_loadu_ps(bp.add(8));
                for (r, accr) in acc.iter_mut().enumerate() {
                    let x = _mm256_set1_ps(*ap.add(r));
                    accr[0] = _mm256_fmadd_ps(x, b0, accr[0]);
                    accr[1] = _mm256_fmadd_ps(x, b1, accr[1]);
                }
                ap = ap.add(lda);
                bp = bp.add(ldb);
            }
            let op = out.as_mut_ptr();
            for (r, accr) in acc.iter().enumerate() {
                _mm256_storeu_ps(op.add(r * ldc), accr[0]);
                _mm256_storeu_ps(op.add(r * ldc + 8), accr[1]);
            }
        }
    }
}

/// True when the explicit FMA microkernels are usable on this machine.
#[inline]
fn fma_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        fma::available()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Full-tile `nn` microkernel dispatch: FMA when detected, portable otherwise.
#[inline]
#[allow(clippy::too_many_arguments)] // mirrors the BLAS microkernel signature
fn micro_nn_sel(
    use_fma: bool,
    k: usize,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    out: &mut [f32],
    ldc: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if use_fma {
        // SAFETY: `use_fma` is only true when `fma::available()` reported
        // AVX2+FMA support.
        unsafe { fma::tile_nn::<MR, 2, false>(k, NR, a, lda, b, ldb, None, None, out, ldc) };
        return;
    }
    let _ = use_fma;
    micro_nn_full(k, a, lda, b, ldb, out, ldc);
}

/// Full-tile `tn` microkernel dispatch: FMA when detected, portable otherwise.
#[inline]
#[allow(clippy::too_many_arguments)] // mirrors the BLAS microkernel signature
fn micro_tn_sel(
    use_fma: bool,
    m: usize,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    out: &mut [f32],
    ldc: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if use_fma {
        // SAFETY: `use_fma` is only true when `fma::available()` reported
        // AVX2+FMA support.
        unsafe { fma::micro_tn(m, a, lda, b, ldb, out, ldc) };
        return;
    }
    let _ = use_fma;
    micro_tn_full(m, a, lda, b, ldb, out, ldc);
}

/// `out = a × b` where `a` is `m × k`, `b` is `k × n`, `out` is `m × n`,
/// all row-major. `out` is fully overwritten.
///
/// # Panics
///
/// Panics if a slice is shorter than its `m/k/n` shape implies.
pub fn gemm_nn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    gemm_bias_act(m, k, n, a, b, None, None, out);
}

/// `out = act(a × w + bias)` — the fused forward layer. `bias` (length `n`)
/// and `act` are applied to each output tile immediately after it is
/// computed, while it is still in registers or cache; pass `None` for a
/// plain GEMM.
///
/// Row `i` of `out` depends on row `i` of `a` only, **bit for bit**: on an
/// AVX2+FMA CPU every element is the same fused chain whichever tile shape
/// computes it (see the `fma` module), and on the portable path the full and
/// edge microkernels accumulate in the same order. A policy therefore
/// answers a request identically alone and in any batch.
///
/// # Panics
///
/// Panics if a slice is shorter than its shape implies.
#[allow(clippy::too_many_arguments)] // mirrors the BLAS layer-op signature
pub fn gemm_bias_act(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    w: &[f32],
    bias: Option<&[f32]>,
    act: Option<Activation>,
    out: &mut [f32],
) {
    assert!(a.len() >= m * k, "gemm a slice too short");
    assert!(w.len() >= k * n, "gemm b slice too short");
    assert!(out.len() >= m * n, "gemm out slice too short");
    if let Some(bias) = bias {
        assert_eq!(bias.len(), n, "bias length mismatch");
    }
    #[cfg(target_arch = "x86_64")]
    if fma::available() {
        // SAFETY: AVX2+FMA support was just detected.
        unsafe { fma::gemm_bias_act(m, k, n, a, w, bias, act, out) };
        return;
    }
    gemm_bias_act_portable(m, k, n, a, w, bias, act, out);
}

/// [`gemm_bias_act`] over the portable microkernels: the implementation on
/// CPUs without AVX2+FMA, and the differential reference on those with.
#[allow(clippy::too_many_arguments)] // mirrors the BLAS layer-op signature
fn gemm_bias_act_portable(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    w: &[f32],
    bias: Option<&[f32]>,
    act: Option<Activation>,
    out: &mut [f32],
) {
    for ib in (0..m).step_by(MR) {
        let mr = MR.min(m - ib);
        for jb in (0..n).step_by(NR) {
            let nr = NR.min(n - jb);
            let tile = &mut out[ib * n + jb..];
            if mr == MR && nr == NR {
                micro_nn_full(k, &a[ib * k..], k, &w[jb..], n, tile, n);
            } else {
                micro_nn_edge(k, mr, nr, &a[ib * k..], k, &w[jb..], n, tile, n);
            }
            finish_tile(tile, n, mr, nr, bias.map(|b| &b[jb..jb + nr]), act);
        }
    }
}

/// `out = a × bᵀ` where `a` is `m × k`, `b` is `r × k`, `out` is `m × r`,
/// all row-major — the backward-pass `dX = δ × Wᵀ` orientation.
///
/// `NR` rows of `b` at a time are packed into `pack` as an interleaved
/// `k × NR` panel (`pack[t * NR + j] = b[(jb + j) * k + t]`), restoring the
/// broadcast-×-contiguous-vector microkernel shape. `pack` is resized to
/// `k * NR` and reused; after warmup it never reallocates.
///
/// # Panics
///
/// Panics if a slice is shorter than its shape implies.
pub fn gemm_nt(
    m: usize,
    k: usize,
    r: usize,
    a: &[f32],
    b: &[f32],
    pack: &mut Vec<f32>,
    out: &mut [f32],
) {
    assert!(a.len() >= m * k, "gemm a slice too short");
    assert!(b.len() >= r * k, "gemm b slice too short");
    assert!(out.len() >= m * r, "gemm out slice too short");
    pack.resize(k * NR, 0.0);
    let use_fma = fma_available();
    for jb in (0..r).step_by(NR) {
        let nr = NR.min(r - jb);
        if nr < NR {
            pack.fill(0.0); // zero-pad the ragged final panel
        }
        for j in 0..nr {
            let brow = &b[(jb + j) * k..(jb + j) * k + k];
            for (t, &v) in brow.iter().enumerate() {
                pack[t * NR + j] = v;
            }
        }
        for ib in (0..m).step_by(MR) {
            let mr = MR.min(m - ib);
            let tile = &mut out[ib * r + jb..];
            if mr == MR && nr == NR {
                micro_nn_sel(use_fma, k, &a[ib * k..], k, pack, NR, tile, r);
            } else {
                micro_nn_edge(k, mr, nr, &a[ib * k..], k, pack, NR, tile, r);
            }
        }
    }
}

/// `out = aᵀ × b` where `a` is `m × k`, `b` is `m × n`, `out` is `k × n`,
/// all row-major — the backward-pass `dW = Xᵀ × δ` orientation. The
/// reduction runs over `m` (the batch) with each `MR × NR` output tile held
/// in registers. `out` is fully overwritten.
///
/// # Panics
///
/// Panics if a slice is shorter than its shape implies.
pub fn gemm_tn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    assert!(a.len() >= m * k, "gemm a slice too short");
    assert!(b.len() >= m * n, "gemm b slice too short");
    assert!(out.len() >= k * n, "gemm out slice too short");
    let use_fma = fma_available();
    for jb in (0..n).step_by(NR) {
        let nr = NR.min(n - jb);
        for kb in (0..k).step_by(MR) {
            let mr = MR.min(k - kb);
            let tile = &mut out[kb * n + jb..];
            if mr == MR && nr == NR {
                micro_tn_sel(use_fma, m, &a[kb..], k, &b[jb..], n, tile, n);
            } else {
                micro_tn_edge(m, mr, nr, &a[kb..], k, &b[jb..], n, tile, n);
            }
        }
    }
}

/// Full `MR × NR` microkernel for the `nn` orientation: `A` rows are
/// contiguous (stride `lda`), `B` rows are read at stride `ldb` as fixed
/// `NR`-wide vectors, and the `MR × NR` accumulator lives in registers for
/// the whole `k` loop.
#[inline(always)]
fn micro_nn_full(k: usize, a: &[f32], lda: usize, b: &[f32], ldb: usize, out: &mut [f32], ldc: usize) {
    // Exact-length row slices let the compiler drop the `a*[t]` bounds checks.
    let a0 = &a[0..k];
    let a1 = &a[lda..lda + k];
    let a2 = &a[2 * lda..2 * lda + k];
    let a3 = &a[3 * lda..3 * lda + k];
    let mut acc = [[0.0f32; NR]; MR];
    let mut boff = 0usize;
    for t in 0..k {
        let brow: &[f32; NR] = b[boff..boff + NR].try_into().expect("NR-wide B row");
        let xs = [a0[t], a1[t], a2[t], a3[t]];
        for (r, x) in xs.into_iter().enumerate() {
            let accr = &mut acc[r];
            for c in 0..NR {
                accr[c] += x * brow[c];
            }
        }
        boff += ldb;
    }
    for (r, accr) in acc.iter().enumerate() {
        out[r * ldc..r * ldc + NR].copy_from_slice(accr);
    }
}

/// Ragged-edge variant of [`micro_nn_full`] for `mr < MR` and/or `nr < NR`.
#[inline(always)]
#[allow(clippy::too_many_arguments)] // mirrors the BLAS microkernel signature
fn micro_nn_edge(
    k: usize,
    mr: usize,
    nr: usize,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    out: &mut [f32],
    ldc: usize,
) {
    let mut acc = [[0.0f32; NR]; MR];
    for t in 0..k {
        let brow = &b[t * ldb..t * ldb + nr];
        for r in 0..mr {
            let x = a[r * lda + t];
            let accr = &mut acc[r];
            for (c, &bv) in brow.iter().enumerate() {
                accr[c] += x * bv;
            }
        }
    }
    for r in 0..mr {
        out[r * ldc..r * ldc + nr].copy_from_slice(&acc[r][..nr]);
    }
}

/// Full `MR × NR` microkernel for the `tn` orientation: the reduction index
/// is the leading (batch) dimension of both operands, so `A` contributes
/// `MR` strided scalars and `B` one contiguous `NR`-vector per step.
#[inline(always)]
fn micro_tn_full(m: usize, a: &[f32], lda: usize, b: &[f32], ldb: usize, out: &mut [f32], ldc: usize) {
    let mut acc = [[0.0f32; NR]; MR];
    let mut aoff = 0usize;
    let mut boff = 0usize;
    for _ in 0..m {
        let brow: &[f32; NR] = b[boff..boff + NR].try_into().expect("NR-wide B row");
        let xs: &[f32; MR] = a[aoff..aoff + MR].try_into().expect("MR-wide A chunk");
        for (r, &x) in xs.iter().enumerate() {
            let accr = &mut acc[r];
            for c in 0..NR {
                accr[c] += x * brow[c];
            }
        }
        aoff += lda;
        boff += ldb;
    }
    for (r, accr) in acc.iter().enumerate() {
        out[r * ldc..r * ldc + NR].copy_from_slice(accr);
    }
}

/// Ragged-edge variant of [`micro_tn_full`].
#[inline(always)]
#[allow(clippy::too_many_arguments)] // mirrors the BLAS microkernel signature
fn micro_tn_edge(
    m: usize,
    mr: usize,
    nr: usize,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    out: &mut [f32],
    ldc: usize,
) {
    let mut acc = [[0.0f32; NR]; MR];
    for i in 0..m {
        let brow = &b[i * ldb..i * ldb + nr];
        for r in 0..mr {
            let x = a[i * lda + r];
            let accr = &mut acc[r];
            for (c, &bv) in brow.iter().enumerate() {
                accr[c] += x * bv;
            }
        }
    }
    for r in 0..mr {
        out[r * ldc..r * ldc + nr].copy_from_slice(&acc[r][..nr]);
    }
}

/// Applies bias and activation to a freshly written `mr × nr` output tile.
#[inline(always)]
fn finish_tile(
    tile: &mut [f32],
    ldc: usize,
    mr: usize,
    nr: usize,
    bias: Option<&[f32]>,
    act: Option<Activation>,
) {
    if bias.is_none() && act.is_none() {
        return;
    }
    for r in 0..mr {
        let row = &mut tile[r * ldc..r * ldc + nr];
        if let Some(bias) = bias {
            for (v, &b) in row.iter_mut().zip(bias) {
                *v += b;
            }
        }
        match act {
            Some(Activation::Relu) => {
                for v in row.iter_mut() {
                    *v = v.max(0.0);
                }
            }
            Some(Activation::Tanh) => {
                for v in row.iter_mut() {
                    *v = ops::tanh(*v);
                }
            }
            None => {}
        }
    }
}

/// Fused backward activation: `delta[i] *= act'(activated[i])` where the
/// derivative is expressed in terms of the activated output (ReLU: 1 if
/// `a > 0`; Tanh: `1 − a²`) — one in-place pass, no temporary.
///
/// # Panics
///
/// Panics on length mismatch.
pub fn act_grad_mul(act: Activation, delta: &mut [f32], activated: &[f32]) {
    assert_eq!(delta.len(), activated.len(), "act_grad_mul length mismatch");
    match act {
        Activation::Relu => {
            for (d, &a) in delta.iter_mut().zip(activated) {
                *d = if a > 0.0 { *d } else { 0.0 };
            }
        }
        Activation::Tanh => {
            for (d, &a) in delta.iter_mut().zip(activated) {
                *d *= 1.0 - a * a;
            }
        }
    }
}

/// Column sums of an `m × n` row-major matrix into `out` (length `n`,
/// overwritten) — the bias gradient, vectorized along rows.
///
/// # Panics
///
/// Panics if slices are shorter than the shape implies.
pub fn col_sums_into(m: usize, n: usize, src: &[f32], out: &mut [f32]) {
    assert!(src.len() >= m * n, "col_sums src too short");
    assert_eq!(out.len(), n, "col_sums out length mismatch");
    out.fill(0.0);
    for i in 0..m {
        let row = &src[i * n..i * n + n];
        for (o, &v) in out.iter_mut().zip(row) {
            *o += v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The pre-fast-path naive kernels, kept verbatim as the differential
    /// reference the tiled kernels are tested against.
    mod naive {
        pub fn nn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
            let mut out = vec![0.0f32; m * n];
            for i in 0..m {
                for t in 0..k {
                    let x = a[i * k + t];
                    for j in 0..n {
                        out[i * n + j] += x * b[t * n + j];
                    }
                }
            }
            out
        }

        pub fn nt(m: usize, k: usize, r: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
            let mut out = vec![0.0f32; m * r];
            for i in 0..m {
                for j in 0..r {
                    let mut acc = 0.0;
                    for t in 0..k {
                        acc += a[i * k + t] * b[j * k + t];
                    }
                    out[i * r + j] = acc;
                }
            }
            out
        }

        pub fn tn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
            let mut out = vec![0.0f32; k * n];
            for i in 0..m {
                for t in 0..k {
                    let x = a[i * k + t];
                    for j in 0..n {
                        out[t * n + j] += x * b[i * n + j];
                    }
                }
            }
            out
        }
    }

    fn rand_vec(rng: &mut StdRng, len: usize) -> Vec<f32> {
        (0..len).map(|_| rng.gen_range(-2.0f32..2.0)).collect()
    }

    fn assert_close(tiled: &[f32], naive: &[f32], what: &str) {
        assert_eq!(tiled.len(), naive.len());
        for (i, (t, n)) in tiled.iter().zip(naive).enumerate() {
            // Summation order differs between the tiled and naive kernels,
            // so compare with a tolerance scaled to the magnitude.
            let tol = 1e-4f32.max(n.abs() * 1e-4);
            assert!((t - n).abs() <= tol, "{what}[{i}]: tiled {t} vs naive {n}");
        }
    }

    /// Adversarial shapes: degenerate vectors, exact tile multiples, and
    /// every off-by-one around the MR/NR boundaries.
    fn shapes() -> Vec<(usize, usize, usize)> {
        vec![
            (1, 1, 1),
            (1, 7, 1),
            (1, 64, 17),
            (5, 1, 5),
            (3, 3, 3),
            (MR, 8, NR),
            (MR + 1, 8, NR + 1),
            (MR - 1, 9, NR - 1),
            (2 * MR, 32, 2 * NR),
            (13, 21, 33),
            (32, 128, 9),
            (1, 128, 64),
            (64, 1, 64),
        ]
    }

    #[test]
    fn gemm_nn_matches_naive() {
        let mut rng = StdRng::seed_from_u64(1);
        for (m, k, n) in shapes() {
            let a = rand_vec(&mut rng, m * k);
            let b = rand_vec(&mut rng, k * n);
            let mut out = vec![f32::NAN; m * n];
            gemm_nn(m, k, n, &a, &b, &mut out);
            assert_close(&out, &naive::nn(m, k, n, &a, &b), "nn");
        }
    }

    #[test]
    fn gemm_nt_matches_naive() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut pack = Vec::new();
        for (m, k, r) in shapes() {
            let a = rand_vec(&mut rng, m * k);
            let b = rand_vec(&mut rng, r * k);
            let mut out = vec![f32::NAN; m * r];
            gemm_nt(m, k, r, &a, &b, &mut pack, &mut out);
            assert_close(&out, &naive::nt(m, k, r, &a, &b), "nt");
        }
    }

    #[test]
    fn gemm_tn_matches_naive() {
        let mut rng = StdRng::seed_from_u64(3);
        for (m, k, n) in shapes() {
            let a = rand_vec(&mut rng, m * k);
            let b = rand_vec(&mut rng, m * n);
            let mut out = vec![f32::NAN; k * n];
            gemm_tn(m, k, n, &a, &b, &mut out);
            assert_close(&out, &naive::tn(m, k, n, &a, &b), "tn");
        }
    }

    /// `act(a × w + bias)` by the naive kernel and the scalar activations.
    fn naive_layer(
        m: usize,
        k: usize,
        n: usize,
        a: &[f32],
        w: &[f32],
        bias: &[f32],
        act: Option<Activation>,
    ) -> Vec<f32> {
        let mut out = naive::nn(m, k, n, a, w);
        for row in out.chunks_mut(n) {
            for (v, &b) in row.iter_mut().zip(bias) {
                *v = act.map_or(*v + b, |act| act.apply(*v + b));
            }
        }
        out
    }

    /// Both implementations of the fused layer against the naive one: the
    /// dispatching entry point, and the portable microkernels called directly
    /// — on a CPU with AVX2+FMA nothing else would run them.
    #[test]
    fn fused_bias_act_matches_separate_passes() {
        type Layer = fn(usize, usize, usize, &[f32], &[f32], Option<&[f32]>, Option<Activation>, &mut [f32]);
        let layers: [(&str, Layer); 2] = [("fused", gemm_bias_act), ("portable", gemm_bias_act_portable)];
        let mut rng = StdRng::seed_from_u64(4);
        for (what, layer) in layers {
            for act in [None, Some(Activation::Relu), Some(Activation::Tanh)] {
                for (m, k, n) in shapes() {
                    let a = rand_vec(&mut rng, m * k);
                    let w = rand_vec(&mut rng, k * n);
                    let bias = rand_vec(&mut rng, n);
                    let mut out = vec![f32::NAN; m * n];
                    layer(m, k, n, &a, &w, Some(&bias), act, &mut out);
                    assert_close(&out, &naive_layer(m, k, n, &a, &w, &bias, act), what);
                }
            }
        }
    }

    /// The row-invariance contract on the portable path (`tests/props.rs`
    /// checks it through `Mlp` on whichever path this CPU selects).
    #[test]
    fn portable_rows_do_not_depend_on_their_batch() {
        let mut rng = StdRng::seed_from_u64(8);
        for (m, k, n) in shapes() {
            let a = rand_vec(&mut rng, m * k);
            let w = rand_vec(&mut rng, k * n);
            let bias = rand_vec(&mut rng, n);
            let act = Some(Activation::Tanh);
            let mut batched = vec![f32::NAN; m * n];
            gemm_bias_act_portable(m, k, n, &a, &w, Some(&bias), act, &mut batched);
            for (row, got) in a.chunks(k).zip(batched.chunks(n)) {
                let mut alone = vec![f32::NAN; n];
                gemm_bias_act_portable(1, k, n, row, &w, Some(&bias), act, &mut alone);
                assert!(got.iter().zip(&alone).all(|(g, w)| g.to_bits() == w.to_bits()), "({m},{k},{n})");
            }
        }
    }

    /// Nothing outside the `m × n` output may be written, whichever tile
    /// covers the ragged edge (the FMA tiles store under a lane mask).
    #[test]
    fn ragged_edges_leave_the_rest_of_out_untouched() {
        let mut rng = StdRng::seed_from_u64(7);
        for (m, k, n) in shapes() {
            let a = rand_vec(&mut rng, m * k);
            let w = rand_vec(&mut rng, k * n);
            let mut out = vec![7.5f32; m * n + 2 * NR];
            gemm_nn(m, k, n, &a, &w, &mut out);
            assert!(out[m * n..].iter().all(|&v| v == 7.5), "({m},{k},{n}) wrote past its output");
        }
    }

    /// The epilogue's 8-lane tanh and [`ops::tanh`] are one function: with
    /// `k = 1` and `a = [1]` the layer is `tanh(w[j])` lane by lane (`−0` is
    /// absent: `0 + 1 · −0 = +0`, no accumulator chain can produce it).
    #[test]
    fn epilogue_tanh_lanes_equal_scalar_tanh_bitwise() {
        let mut xs: Vec<f32> = (0..200_000).map(|i| -12.0 + i as f32 * (24.0 / 200_000.0)).collect();
        xs.extend([0.0, f32::MIN_POSITIVE, -f32::MIN_POSITIVE, 1e-40, -1e-40]);
        xs.extend([f32::INFINITY, f32::NEG_INFINITY, f32::NAN, 3.9e-4, 4.1e-4, 7.9988, 8.0]);
        let n = xs.len();
        let mut out = vec![0.0f32; n];
        gemm_bias_act(1, 1, n, &[1.0], &xs, None, Some(Activation::Tanh), &mut out);
        for (&x, &y) in xs.iter().zip(&out) {
            let want = Activation::Tanh.apply(x);
            assert_eq!(y.to_bits(), want.to_bits(), "tanh({x}): lane {y} vs scalar {want}");
        }
        assert!(out[n - 5].is_nan(), "NaN must propagate through the epilogue");
    }

    #[test]
    fn act_grad_mul_matches_derivatives() {
        let acts = vec![-1.5f32, -0.0, 0.0, 0.5, 0.9];
        let mut d_relu = vec![2.0f32; acts.len()];
        act_grad_mul(Activation::Relu, &mut d_relu, &acts);
        assert_eq!(d_relu, vec![0.0, 0.0, 0.0, 2.0, 2.0]);
        let mut d_tanh = vec![2.0f32; acts.len()];
        act_grad_mul(Activation::Tanh, &mut d_tanh, &acts);
        for (d, a) in d_tanh.iter().zip(&acts) {
            assert!((d - 2.0 * (1.0 - a * a)).abs() < 1e-6);
        }
    }

    #[test]
    fn col_sums_into_matches_reference() {
        let src = [1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0];
        let mut out = vec![0.0f32; 2];
        col_sums_into(3, 2, &src, &mut out);
        assert_eq!(out, vec![9.0, 12.0]);
    }

    #[test]
    fn gemm_nt_pack_buffer_is_reused_across_shapes() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut pack = Vec::new();
        // Large shape first: later smaller shapes must not read stale panel
        // columns beyond their zero-padded width.
        for (m, k, r) in [(8, 64, 20), (3, 5, 3), (6, 64, 20)] {
            let a = rand_vec(&mut rng, m * k);
            let b = rand_vec(&mut rng, r * k);
            let mut out = vec![0.0f32; m * r];
            gemm_nt(m, k, r, &a, &b, &mut pack, &mut out);
            assert_close(&out, &naive::nt(m, k, r, &a, &b), "nt-reuse");
        }
    }
}
