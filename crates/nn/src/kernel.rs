//! Cache-blocked, register-tiled f32 matmul kernels and fused layer ops.
//!
//! All three GEMM orientations the MLP needs are covered:
//!
//! * [`gemm_nn`] / [`gemm_bias_act`] — `C = A × B` (forward pass). Output
//!   tiles are accumulated in registers while streaming rows of `B`.
//! * [`gemm_nt`] — `C = A × Bᵀ` (backward `dX = δ × Wᵀ`). Since the dot-product
//!   orientation reads `B` row-wise, a panel of `B`'s rows is first packed
//!   into an interleaved column panel so the inner loop regains the
//!   broadcast-×-vector shape of `gemm_nn`.
//! * [`gemm_tn`] — `C = Aᵀ × B` (backward `dW = Xᵀ × δ`). The reduction runs
//!   over the batch dimension with the output tile held in registers.
//!
//! Fused layer ops keep the training step down to one memory pass per tensor:
//! [`gemm_bias_act`] applies bias and activation on the output tile while it
//! is still in registers, and [`act_grad_mul`] folds the activation
//! derivative into the backpropagated delta in place.
//!
//! **One FMA tile family.** On x86-64 every orientation and every
//! `(m, k, n)` runs one const-generic register tile, `fma::tile::<R, NV,
//! MASKED>` (`R` rows × `NV` vectors, the last vector optionally under a lane
//! mask), written once over a small lane trait and instantiated for 256-bit
//! AVX2+FMA and for 512-bit AVX-512F. It serves 4-row blocks in full tiles
//! (2 vectors on AVX2, 4 on AVX-512), their masked column tails, the rows
//! past the last 4-row block one at a time in passes of up to eight
//! vectors, and a ragged last `gemm_nt` panel under a mask. CPUID picks the
//! instantiation once per process (AVX-512F where present, else AVX2+FMA);
//! there is no option, feature flag or environment variable.
//!
//! **The optimizer.** The same family carries [`adam`], the one pass of
//! `optim::Adam::step`: per element two products and a sum for each moment,
//! a square root and a division for the update, in the order of the portable
//! loop [`adam`] falls back to and is tested against, so every instantiation
//! stores its bits. The pass stores a moment below `f32::MIN_POSITIVE` in
//! magnitude as `+0.0`. That flush is explicit and ISA-independent, and it is
//! the optimizer's alone: no kernel here flushes, and MXCSR's FTZ/DAZ stay
//! off, so the forward pass the learner, the explorers and the serve fleet
//! share keeps its bits. At `lr = 1e-3` a flushed first moment moves a
//! parameter by under `2⁻¹⁰⁶`, so the flush changes a parameter's bits
//! only where `|p| ≤ 2⁻⁸²` (`optim::Adam::step` derives the bound). CPUID
//! picks AVX2 for this pass even where AVX-512F is present (see [`adam`]).
//!
//! **Bits.** In every instantiation and at every tile shape an output
//! element is the single chain `acc = fma(a, b, acc)` over the reduction
//! index from zero, then `+ bias`, then the activation, all lane-wise. So the
//! AVX2 and AVX-512 instantiations agree bit for bit, and a row of a forward
//! pass does not depend on the batch it is evaluated in. The forward pass
//! already ran that chain at every shape; the backward edges — the
//! `n mod 16` column tails of `gemm_tn`, the ragged `gemm_nt` panels and the
//! rows past the last 4-row block — used the portable multiply-then-add until
//! they joined the family, which changed training bits once. The optimizer
//! changed them a second time: `optim::Adam::step` moved to one division
//! per parameter and `optim::clip_global_norm` to a 16-lane sum, and the
//! pinned digests were re-pinned for that reason alone. Storing `Mlp`
//! parameters on 64-byte lines, which the tiles stream as `B`, changed no
//! bit, and neither did moving the Adam step into this family with its
//! subnormal flush: every pinned digest and golden state held.
//!
//! The portable microkernels are the implementation everywhere else and the
//! differential reference in the tests. Every kernel writes its full output
//! (no read-modify-write), takes plain slices, and allocates nothing —
//! scratch space (the `gemm_nt` pack panel) is caller-owned so steady-state
//! training performs zero heap allocations.

use crate::mlp::Activation;
use crate::ops;

/// Register-tile height: rows of `A` (or columns of `Aᵀ`) per microkernel.
pub const MR: usize = 4;
/// Register-tile width of the portable microkernels: output columns per
/// microkernel, and the width of their `gemm_nt` pack panel.
pub const NR: usize = 16;

/// The FMA tile family and its two instantiations.
///
/// The portable microkernels compile against the x86-64 baseline (SSE2, no
/// FMA), so autovectorization leaves most of a modern core idle. Here the
/// tile, the loops that cover an output with it, the `tanh` epilogue and the
/// Adam pass are written once, generic over `Lanes` — the vector primitives
/// they use — and `isa!` wraps them in `#[target_feature]` entry points per
/// instruction set, where the generic code is inlined and compiled for that
/// set.
#[cfg(target_arch = "x86_64")]
mod fma {
    use super::{Activation, MR};
    use crate::ops::tanh_poly::{ALPHA, BETA, CLAMP, TINY};
    use std::arch::x86_64::*;

    /// Widest pass, in vectors, over a row past the last 4-row block: one
    /// broadcast of `A(i, t)` feeds up to eight accumulators from contiguous
    /// columns of `B`'s row `t`, so `B` is read once, sequentially, with
    /// eight independent FMA chains.
    const ROW_NV: usize = 8;

    /// The vector primitives the tile family is written in.
    ///
    /// Every method requires the implementing instruction set; they are
    /// called only from code inlined into that set's `#[target_feature]`
    /// entry points (see `isa!`).
    pub(super) trait Lanes {
        /// f32 lanes per vector.
        const LANES: usize;
        /// Vectors across a full 4-row tile: 8 accumulators within AVX2's 16
        /// registers, 16 within AVX-512's 32.
        const TILE_NV: usize;
        type V: Copy;
        type Mask: Copy;
        unsafe fn zero() -> Self::V;
        unsafe fn splat(x: f32) -> Self::V;
        unsafe fn load(p: *const f32) -> Self::V;
        unsafe fn store(p: *mut f32, v: Self::V);
        /// A mask enabling the first `lanes` (`1..=LANES`) lanes.
        unsafe fn mask(lanes: usize) -> Self::Mask;
        /// Loads the enabled lanes, zeroes the rest; disabled lanes are
        /// never accessed.
        unsafe fn load_masked(p: *const f32, m: Self::Mask) -> Self::V;
        /// Stores the enabled lanes; disabled lanes are never accessed.
        unsafe fn store_masked(p: *mut f32, m: Self::Mask, v: Self::V);
        /// `a × b + c`, one rounding.
        unsafe fn fmadd(a: Self::V, b: Self::V, c: Self::V) -> Self::V;
        unsafe fn add(a: Self::V, b: Self::V) -> Self::V;
        unsafe fn mul(a: Self::V, b: Self::V) -> Self::V;
        unsafe fn sub(a: Self::V, b: Self::V) -> Self::V;
        unsafe fn div(a: Self::V, b: Self::V) -> Self::V;
        /// Correctly rounded, as `f32::sqrt`.
        unsafe fn sqrt(a: Self::V) -> Self::V;
        /// x86 `min`: the second operand when either is NaN.
        unsafe fn min(a: Self::V, b: Self::V) -> Self::V;
        /// x86 `max`: the second operand when either is NaN.
        unsafe fn max(a: Self::V, b: Self::V) -> Self::V;
        /// Clears the sign bit.
        unsafe fn abs(a: Self::V) -> Self::V;
        /// `t` in the lanes where `a < b` (ordered), `f` elsewhere.
        unsafe fn select_lt(a: Self::V, b: Self::V, t: Self::V, f: Self::V) -> Self::V;
    }

    /// Declares an instruction set's marker type with its availability check
    /// and its `#[target_feature]` entry points, one per orientation and one
    /// for the Adam pass. Each
    /// entry point's body is the generic code, inlined and compiled with
    /// the set's features enabled.
    macro_rules! isa {
        ($(#[$doc:meta])* $isa:ident, $($feature:tt),+) => {
            $(#[$doc])*
            #[derive(Debug, Clone, Copy)]
            pub(super) struct $isa;

            impl $isa {
                /// Whether this CPU (and OS) supports the instruction set.
                pub(super) fn available() -> bool {
                    true $(&& std::arch::is_x86_feature_detected!($feature))+
                }

                /// [`super::gemm_bias_act`] on this instruction set.
                ///
                /// # Safety
                ///
                /// The CPU must support the instruction set (see
                /// [`Self::available`]). Slice lengths are checked.
                #[allow(clippy::too_many_arguments)] // mirrors the BLAS layer-op signature
                #[target_feature($(enable = $feature),+)]
                pub(super) unsafe fn gemm_bias_act(
                    m: usize,
                    k: usize,
                    n: usize,
                    a: &[f32],
                    w: &[f32],
                    bias: Option<&[f32]>,
                    act: Option<Activation>,
                    out: &mut [f32],
                ) {
                    let g = Gemm { steps: k, a, a_row: k, a_step: 1, b: w, ldb: n, bias, act, ldc: n };
                    // SAFETY: this function's precondition is the set's.
                    unsafe { drive::<$isa>(&g, m, n, out) }
                }

                /// [`super::gemm_nt`] on this instruction set.
                ///
                /// # Safety
                ///
                /// As for [`Self::gemm_bias_act`].
                #[target_feature($(enable = $feature),+)]
                pub(super) unsafe fn gemm_nt(
                    m: usize,
                    k: usize,
                    r: usize,
                    a: &[f32],
                    b: &[f32],
                    pack: &mut Vec<f32>,
                    out: &mut [f32],
                ) {
                    // SAFETY: this function's precondition is the set's.
                    unsafe { nt::<$isa>(m, k, r, a, b, pack, out) }
                }

                /// [`super::gemm_tn`] on this instruction set.
                ///
                /// # Safety
                ///
                /// As for [`Self::gemm_bias_act`].
                #[target_feature($(enable = $feature),+)]
                pub(super) unsafe fn gemm_tn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
                    let g = Gemm { steps: m, a, a_row: 1, a_step: k, b, ldb: n, bias: None, act: None, ldc: n };
                    // SAFETY: this function's precondition is the set's.
                    unsafe { drive::<$isa>(&g, k, n, out) }
                }

                /// [`super::adam`] on this instruction set.
                ///
                /// # Safety
                ///
                /// As for [`Self::gemm_bias_act`].
                #[target_feature($(enable = $feature),+)]
                pub(super) unsafe fn adam(
                    s: &super::AdamStep,
                    params: &mut [f32],
                    grads: &[f32],
                    m: &mut [f32],
                    v: &mut [f32],
                ) {
                    // SAFETY: this function's precondition is the set's.
                    unsafe { adam_pass::<$isa>(s, params, grads, m, v) }
                }
            }
        };
    }

    isa!(
        /// 256-bit AVX2 with FMA: 8 lanes, 16 vector registers.
        Avx2, "avx2", "fma"
    );
    isa!(
        /// 512-bit AVX-512F: 16 lanes, 32 vector registers, mask registers.
        Avx512, "avx512f"
    );

    /// The instantiation a process runs.
    #[derive(Debug, Clone, Copy)]
    pub(super) enum Isa {
        Avx2,
        Avx512,
    }

    /// AVX-512F where present, else AVX2+FMA, else `None` (the portable
    /// kernels). `is_x86_feature_detected!` runs CPUID once per process and
    /// caches the answer, so every call in a process picks the same.
    #[inline]
    pub(super) fn detect() -> Option<Isa> {
        if Avx512::available() {
            Some(Isa::Avx512)
        } else if Avx2::available() {
            Some(Isa::Avx2)
        } else {
            None
        }
    }

    impl Lanes for Avx2 {
        const LANES: usize = 8;
        const TILE_NV: usize = 2;
        type V = __m256;
        type Mask = __m256i;
        #[inline(always)]
        unsafe fn zero() -> __m256 {
            _mm256_setzero_ps()
        }
        #[inline(always)]
        unsafe fn splat(x: f32) -> __m256 {
            _mm256_set1_ps(x)
        }
        #[inline(always)]
        unsafe fn load(p: *const f32) -> __m256 {
            _mm256_loadu_ps(p)
        }
        #[inline(always)]
        unsafe fn store(p: *mut f32, v: __m256) {
            _mm256_storeu_ps(p, v)
        }
        #[inline(always)]
        unsafe fn mask(lanes: usize) -> __m256i {
            _mm256_cmpgt_epi32(_mm256_set1_epi32(lanes as i32), _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7))
        }
        #[inline(always)]
        unsafe fn load_masked(p: *const f32, m: __m256i) -> __m256 {
            _mm256_maskload_ps(p, m)
        }
        #[inline(always)]
        unsafe fn store_masked(p: *mut f32, m: __m256i, v: __m256) {
            _mm256_maskstore_ps(p, m, v)
        }
        #[inline(always)]
        unsafe fn fmadd(a: __m256, b: __m256, c: __m256) -> __m256 {
            _mm256_fmadd_ps(a, b, c)
        }
        #[inline(always)]
        unsafe fn add(a: __m256, b: __m256) -> __m256 {
            _mm256_add_ps(a, b)
        }
        #[inline(always)]
        unsafe fn mul(a: __m256, b: __m256) -> __m256 {
            _mm256_mul_ps(a, b)
        }
        #[inline(always)]
        unsafe fn sub(a: __m256, b: __m256) -> __m256 {
            _mm256_sub_ps(a, b)
        }
        #[inline(always)]
        unsafe fn div(a: __m256, b: __m256) -> __m256 {
            _mm256_div_ps(a, b)
        }
        #[inline(always)]
        unsafe fn sqrt(a: __m256) -> __m256 {
            _mm256_sqrt_ps(a)
        }
        #[inline(always)]
        unsafe fn min(a: __m256, b: __m256) -> __m256 {
            _mm256_min_ps(a, b)
        }
        #[inline(always)]
        unsafe fn max(a: __m256, b: __m256) -> __m256 {
            _mm256_max_ps(a, b)
        }
        #[inline(always)]
        unsafe fn abs(a: __m256) -> __m256 {
            _mm256_andnot_ps(_mm256_set1_ps(-0.0), a)
        }
        #[inline(always)]
        unsafe fn select_lt(a: __m256, b: __m256, t: __m256, f: __m256) -> __m256 {
            _mm256_blendv_ps(f, t, _mm256_cmp_ps::<_CMP_LT_OQ>(a, b))
        }
    }

    impl Lanes for Avx512 {
        const LANES: usize = 16;
        const TILE_NV: usize = 4;
        type V = __m512;
        type Mask = __mmask16;
        #[inline(always)]
        unsafe fn zero() -> __m512 {
            _mm512_setzero_ps()
        }
        #[inline(always)]
        unsafe fn splat(x: f32) -> __m512 {
            _mm512_set1_ps(x)
        }
        #[inline(always)]
        unsafe fn load(p: *const f32) -> __m512 {
            _mm512_loadu_ps(p)
        }
        #[inline(always)]
        unsafe fn store(p: *mut f32, v: __m512) {
            _mm512_storeu_ps(p, v)
        }
        #[inline(always)]
        unsafe fn mask(lanes: usize) -> __mmask16 {
            (u32::MAX >> (32 - lanes)) as __mmask16
        }
        #[inline(always)]
        unsafe fn load_masked(p: *const f32, m: __mmask16) -> __m512 {
            _mm512_maskz_loadu_ps(m, p)
        }
        #[inline(always)]
        unsafe fn store_masked(p: *mut f32, m: __mmask16, v: __m512) {
            _mm512_mask_storeu_ps(p, m, v)
        }
        #[inline(always)]
        unsafe fn fmadd(a: __m512, b: __m512, c: __m512) -> __m512 {
            _mm512_fmadd_ps(a, b, c)
        }
        #[inline(always)]
        unsafe fn add(a: __m512, b: __m512) -> __m512 {
            _mm512_add_ps(a, b)
        }
        #[inline(always)]
        unsafe fn mul(a: __m512, b: __m512) -> __m512 {
            _mm512_mul_ps(a, b)
        }
        #[inline(always)]
        unsafe fn sub(a: __m512, b: __m512) -> __m512 {
            _mm512_sub_ps(a, b)
        }
        #[inline(always)]
        unsafe fn div(a: __m512, b: __m512) -> __m512 {
            _mm512_div_ps(a, b)
        }
        #[inline(always)]
        unsafe fn sqrt(a: __m512) -> __m512 {
            _mm512_sqrt_ps(a)
        }
        #[inline(always)]
        unsafe fn min(a: __m512, b: __m512) -> __m512 {
            _mm512_min_ps(a, b)
        }
        #[inline(always)]
        unsafe fn max(a: __m512, b: __m512) -> __m512 {
            _mm512_max_ps(a, b)
        }
        #[inline(always)]
        unsafe fn abs(a: __m512) -> __m512 {
            _mm512_abs_ps(a)
        }
        #[inline(always)]
        unsafe fn select_lt(a: __m512, b: __m512, t: __m512, f: __m512) -> __m512 {
            _mm512_mask_blend_ps(_mm512_cmp_ps_mask::<_CMP_LT_OQ>(a, b), f, t)
        }
    }

    /// One GEMM in the family's terms: output element `(i, j)` is
    /// `act(Σ_t A(i, t) · b[t·ldb + j] + bias[j])`, written to
    /// `out[i·ldc + j]`, where `A(i, t) = a[i·a_row + t·a_step]` for
    /// `t < steps`. `(a_row, a_step)` is `(k, 1)` when `A` is read as
    /// stored and `(1, k)` when it is read transposed.
    struct Gemm<'a> {
        steps: usize,
        a: &'a [f32],
        a_row: usize,
        a_step: usize,
        b: &'a [f32],
        ldb: usize,
        bias: Option<&'a [f32]>,
        act: Option<Activation>,
        ldc: usize,
    }

    /// Evaluates `$body` with the constant `$nv` equal to `$count`
    /// (`1..=8`). Arms above `$max` are never taken, and the guard lets the
    /// compiler drop them.
    macro_rules! with_nv {
        ($count:expr, $max:expr, $nv:ident => $body:expr) => {
            match $count {
                1 => {
                    const $nv: usize = 1;
                    $body
                }
                2 if $max >= 2 => {
                    const $nv: usize = 2;
                    $body
                }
                3 if $max >= 3 => {
                    const $nv: usize = 3;
                    $body
                }
                4 if $max >= 4 => {
                    const $nv: usize = 4;
                    $body
                }
                5 if $max >= 5 => {
                    const $nv: usize = 5;
                    $body
                }
                6 if $max >= 6 => {
                    const $nv: usize = 6;
                    $body
                }
                7 if $max >= 7 => {
                    const $nv: usize = 7;
                    $body
                }
                8 if $max >= 8 => {
                    const $nv: usize = 8;
                    $body
                }
                _ => unreachable!("tile wider than its register budget"),
            }
        };
    }

    /// Covers the `rows × n` output of `g`: 4-row blocks in `TILE_NV`-vector
    /// tiles with a masked tail tile for the last columns, then each row past
    /// the last block in masked passes of up to [`ROW_NV`] vectors.
    ///
    /// # Safety
    ///
    /// The CPU must support `I`'s instruction set. Shape bounds are checked
    /// per tile.
    #[inline(always)]
    unsafe fn drive<I: Lanes>(g: &Gemm<'_>, rows: usize, n: usize, out: &mut [f32]) {
        let tile_cols = I::TILE_NV * I::LANES;
        let blocked = rows - rows % MR;
        // SAFETY (every tile call below): the instruction set is this
        // function's precondition; each tile checks its own bounds.
        for i in (0..blocked).step_by(MR) {
            for j in (0..n).step_by(tile_cols) {
                let cols = tile_cols.min(n - j);
                if cols == tile_cols {
                    with_nv!(I::TILE_NV, I::TILE_NV, NV => unsafe { tile::<I, MR, NV, false>(g, i, j, cols, out) })
                } else {
                    let nv = cols.div_ceil(I::LANES);
                    with_nv!(nv, I::TILE_NV, NV => unsafe { tile::<I, MR, NV, true>(g, i, j, cols, out) })
                }
            }
        }
        let row_cols = ROW_NV * I::LANES;
        for i in blocked..rows {
            for j in (0..n).step_by(row_cols) {
                let cols = row_cols.min(n - j);
                let nv = cols.div_ceil(I::LANES);
                with_nv!(nv, ROW_NV, NV => unsafe { tile::<I, 1, NV, true>(g, i, j, cols, out) })
            }
        }
    }

    /// `gemm_nt` over [`drive`]: each panel of up to `TILE_NV · LANES` rows
    /// of `b` is packed densely (`pack[t·nr + j] = b[(jb + j)·k + t]`, so a
    /// ragged last panel of `nr` rows has stride `nr` and its tiles read it
    /// under a mask) and multiplied as `B` of a plain `nn` product.
    ///
    /// # Safety
    ///
    /// The CPU must support `I`'s instruction set.
    #[inline(always)]
    unsafe fn nt<I: Lanes>(m: usize, k: usize, r: usize, a: &[f32], b: &[f32], pack: &mut Vec<f32>, out: &mut [f32]) {
        if m == 0 {
            return; // no output rows, and `out[jb..]` may not exist
        }
        let panel = I::TILE_NV * I::LANES;
        pack.resize(k * panel, 0.0);
        for jb in (0..r).step_by(panel) {
            let nr = panel.min(r - jb);
            let pack = &mut pack[..k * nr];
            for j in 0..nr {
                let brow = &b[(jb + j) * k..(jb + j + 1) * k];
                for (t, &v) in brow.iter().enumerate() {
                    pack[t * nr + j] = v;
                }
            }
            let g = Gemm { steps: k, a, a_row: k, a_step: 1, b: pack, ldb: nr, bias: None, act: None, ldc: r };
            // SAFETY: the instruction set is this function's precondition.
            unsafe { drive::<I>(&g, m, nr, &mut out[jb..]) };
        }
    }

    /// Loads vector `v` of a tile row; the last one (`v == NV − 1`) under
    /// `mask` when `MASKED`.
    #[inline(always)]
    unsafe fn load_v<I: Lanes, const NV: usize, const MASKED: bool>(p: *const f32, v: usize, mask: I::Mask) -> I::V {
        // SAFETY: the caller guarantees the addressed lanes are in bounds.
        unsafe {
            if MASKED && v == NV - 1 {
                I::load_masked(p.add(v * I::LANES), mask)
            } else {
                I::load(p.add(v * I::LANES))
            }
        }
    }

    /// Stores vector `v` of a tile row, masked as [`load_v`] loads it.
    #[inline(always)]
    unsafe fn store_v<I: Lanes, const NV: usize, const MASKED: bool>(p: *mut f32, v: usize, mask: I::Mask, x: I::V) {
        // SAFETY: the caller guarantees the addressed lanes are in bounds.
        unsafe {
            if MASKED && v == NV - 1 {
                I::store_masked(p.add(v * I::LANES), mask, x)
            } else {
                I::store(p.add(v * I::LANES), x)
            }
        }
    }

    /// The tile: output rows `i..i + R`, columns `j..j + cols` of `g`, held
    /// in `R × NV` vector accumulators, `(NV − 1)·LANES < cols ≤ NV·LANES`.
    /// With `MASKED` the last vector of each row is loaded and stored under
    /// a lane mask, so nothing past column `j + cols` of `b`, `bias` or `out`
    /// is touched; without it `cols` must be `NV · LANES`.
    ///
    /// # Safety
    ///
    /// The CPU must support `I`'s instruction set. Shape bounds are asserted.
    #[inline(always)]
    unsafe fn tile<I: Lanes, const R: usize, const NV: usize, const MASKED: bool>(
        g: &Gemm<'_>,
        i: usize,
        j: usize,
        cols: usize,
        out: &mut [f32],
    ) {
        let lanes = I::LANES;
        assert!(cols <= NV * lanes && cols + lanes > NV * lanes, "fma tile width outside its vectors");
        assert!(MASKED || cols == NV * lanes, "fma unmasked tile must be full");
        let last_row = i + R - 1;
        assert!(g.steps == 0 || last_row * g.a_row + (g.steps - 1) * g.a_step < g.a.len(), "fma a slice too short");
        assert!(g.steps == 0 || (g.steps - 1) * g.ldb + j + cols <= g.b.len(), "fma b slice too short");
        assert!(g.bias.is_none_or(|bias| j + cols <= bias.len()), "fma bias slice too short");
        assert!(last_row * g.ldc + j + cols <= out.len(), "fma out slice too short");
        // SAFETY: the asserts above bound every access below: `A(i + r, t)`
        // is read at `(i + r)·a_row + t·a_step` for `r < R`, `t < steps`;
        // row `t` of `b`, `bias` and row `i + r` of `out` are touched at
        // columns `j..j + cols` only — full vectors end at
        // `j + (NV − 1)·LANES < j + cols`, and the last vector is either full
        // (`cols == NV · LANES`) or masked to its first
        // `cols − (NV − 1)·LANES` lanes, whose disabled lanes are never
        // accessed. The loop-carried pointers advance with `wrapping_add`, so
        // stepping past the last row is no out-of-bounds offset.
        unsafe {
            let mask = I::mask(cols - (NV - 1) * lanes);
            let mut ap = g.a.as_ptr().add(i * g.a_row);
            let mut bp = g.b.as_ptr().add(j);
            let mut acc = [[I::zero(); NV]; R];
            for _ in 0..g.steps {
                let mut brow = [I::zero(); NV];
                for (v, bv) in brow.iter_mut().enumerate() {
                    *bv = load_v::<I, NV, MASKED>(bp, v, mask);
                }
                for (r, accr) in acc.iter_mut().enumerate() {
                    let x = I::splat(*ap.add(r * g.a_row));
                    for (accv, &bv) in accr.iter_mut().zip(&brow) {
                        *accv = I::fmadd(x, bv, *accv);
                    }
                }
                ap = ap.wrapping_add(g.a_step);
                bp = bp.wrapping_add(g.ldb);
            }
            let op = out.as_mut_ptr().add(i * g.ldc + j);
            for v in 0..NV {
                let bias_v = g.bias.map(|bias| load_v::<I, NV, MASKED>(bias.as_ptr().add(j), v, mask));
                for (r, accr) in acc.iter().enumerate() {
                    let mut y = accr[v];
                    if let Some(bias_v) = bias_v {
                        y = I::add(y, bias_v);
                    }
                    y = match g.act {
                        // Operand order keeps `f32::max`'s NaN → 0 of the portable path.
                        Some(Activation::Relu) => I::max(y, I::zero()),
                        Some(Activation::Tanh) => tanh::<I>(y),
                        None => y,
                    };
                    store_v::<I, NV, MASKED>(op.add(r * g.ldc), v, mask, y);
                }
            }
        }
    }

    /// [`crate::ops::tanh`] lane-wise: the same operations in the same
    /// order, so each lane holds the bits the scalar function returns.
    #[inline(always)]
    unsafe fn tanh<I: Lanes>(x: I::V) -> I::V {
        // SAFETY: the caller's instruction set is `I`'s.
        unsafe {
            // `min`/`max` return their second operand when either is NaN, so
            // with `x` second a NaN lane passes through the clamp.
            let c = I::max(I::splat(-CLAMP), I::min(I::splat(CLAMP), x));
            let c2 = I::mul(c, c);
            let p = I::mul(c, horner::<I>(c2, &ALPHA));
            let q = horner::<I>(c2, &BETA);
            I::select_lt(I::abs(x), I::splat(TINY), x, I::div(p, q))
        }
    }

    /// [`super::adam_portable`] lane-wise: the same operations in the same
    /// order (two products then a sum for each moment, never `fmadd`), so
    /// each lane holds the bits the portable loop stores. The last
    /// `len mod LANES` elements go through one pass under a lane mask;
    /// its disabled lanes compute on zeros and are never stored.
    ///
    /// # Safety
    ///
    /// The CPU must support `I`'s instruction set. Slice lengths are
    /// asserted.
    #[inline(always)]
    unsafe fn adam_pass<I: Lanes>(
        s: &super::AdamStep,
        params: &mut [f32],
        grads: &[f32],
        m: &mut [f32],
        v: &mut [f32],
    ) {
        let n = params.len();
        assert!(grads.len() == n && m.len() == n && v.len() == n, "adam slice lengths differ");
        let (pp, gp, mp, vp) = (params.as_mut_ptr(), grads.as_ptr(), m.as_mut_ptr(), v.as_mut_ptr());
        // SAFETY: the instruction set is this function's precondition; every
        // full vector ends at or before `n`, and the tail pass touches only
        // its first `n − i` lanes, all in bounds of the four slices.
        unsafe {
            let mut i = 0;
            while i + I::LANES <= n {
                let (mo, vo, p) =
                    adam_lanes::<I>(s, I::load(gp.add(i)), I::load(mp.add(i)), I::load(vp.add(i)), I::load(pp.add(i)));
                I::store(mp.add(i), mo);
                I::store(vp.add(i), vo);
                I::store(pp.add(i), p);
                i += I::LANES;
            }
            if i < n {
                let k = I::mask(n - i);
                let (g, mo, vo, p) = (
                    I::load_masked(gp.add(i), k),
                    I::load_masked(mp.add(i), k),
                    I::load_masked(vp.add(i), k),
                    I::load_masked(pp.add(i), k),
                );
                let (mo, vo, p) = adam_lanes::<I>(s, g, mo, vo, p);
                I::store_masked(mp.add(i), k, mo);
                I::store_masked(vp.add(i), k, vo);
                I::store_masked(pp.add(i), k, p);
            }
        }
    }

    /// One vector of [`adam_pass`]: the new first and second moments and
    /// parameters from a gradient and the old ones.
    #[inline(always)]
    unsafe fn adam_lanes<I: Lanes>(s: &super::AdamStep, g: I::V, m: I::V, v: I::V, p: I::V) -> (I::V, I::V, I::V) {
        // SAFETY: the caller's instruction set is `I`'s.
        unsafe {
            let m = flush::<I>(I::add(I::mul(I::splat(s.beta1), m), I::mul(I::splat(1.0 - s.beta1), g)));
            let v = flush::<I>(I::add(I::mul(I::splat(s.beta2), v), I::mul(I::mul(I::splat(1.0 - s.beta2), g), g)));
            let den = I::add(I::mul(I::sqrt(v), I::splat(s.r)), I::splat(s.eps));
            (m, v, I::sub(p, I::div(I::mul(I::splat(s.step), m), den)))
        }
    }

    /// [`super::flush`] lane-wise: `+0.0` where `|x| < f32::MIN_POSITIVE`
    /// (ordered, so a NaN lane passes through).
    #[inline(always)]
    unsafe fn flush<I: Lanes>(x: I::V) -> I::V {
        // SAFETY: the caller's instruction set is `I`'s.
        unsafe { I::select_lt(I::abs(x), I::splat(f32::MIN_POSITIVE), I::zero(), x) }
    }

    /// `Σ coeffs[i] · x^i` by Horner's rule, one fused multiply-add a step.
    #[inline(always)]
    unsafe fn horner<I: Lanes>(x: I::V, coeffs: &[f32]) -> I::V {
        let (&top, rest) = coeffs.split_last().expect("non-empty polynomial");
        // SAFETY: the caller's instruction set is `I`'s.
        unsafe {
            let mut p = I::splat(top);
            for &a in rest.iter().rev() {
                p = I::fmadd(x, p, I::splat(a));
            }
            p
        }
    }
}

/// Runs `$kernel($args)` on the FMA instantiation this CPU supports and
/// returns from the calling function; on a CPU with neither instruction set
/// (or off x86-64) it does nothing, and the caller falls through to the
/// portable kernels.
macro_rules! fma_or_fall_through {
    ($kernel:ident($($arg:expr),*)) => {
        #[cfg(target_arch = "x86_64")]
        match fma::detect() {
            // SAFETY: `detect` reported support for the instantiation called.
            Some(fma::Isa::Avx512) => return unsafe { fma::Avx512::$kernel($($arg),*) },
            Some(fma::Isa::Avx2) => return unsafe { fma::Avx2::$kernel($($arg),*) },
            None => {}
        }
    };
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
/// FMA CPU every element is the same fused chain whichever tile shape and
/// instruction set computes it (see the module docs), and on the portable
/// path the full and edge microkernels accumulate in the same order. A
/// policy therefore answers a request identically alone and in any batch.
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
    fma_or_fall_through!(gemm_bias_act(m, k, n, a, w, bias, act, out));
    gemm_bias_act_portable(m, k, n, a, w, bias, act, out);
}

/// [`gemm_bias_act`] over the portable microkernels: the implementation on
/// CPUs without FMA, and the differential reference on those with.
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
/// A panel of `b`'s rows at a time is packed into `pack` as an interleaved
/// `k × panel` matrix (`pack[t * panel + j] = b[(jb + j) * k + t]`),
/// restoring the broadcast-×-contiguous-vector microkernel shape. `pack` is
/// resized to `k` panel rows and reused; after warmup it never reallocates.
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
    fma_or_fall_through!(gemm_nt(m, k, r, a, b, pack, out));
    gemm_nt_portable(m, k, r, a, b, pack, out);
}

/// [`gemm_nt`] over the portable microkernels, packing `NR`-row panels.
fn gemm_nt_portable(
    m: usize,
    k: usize,
    r: usize,
    a: &[f32],
    b: &[f32],
    pack: &mut Vec<f32>,
    out: &mut [f32],
) {
    pack.resize(k * NR, 0.0);
    for jb in (0..r).step_by(NR) {
        // A ragged last panel leaves stale columns past `nr` in `pack`; the
        // edge microkernel reads only the first `nr`.
        let nr = NR.min(r - jb);
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
                micro_nn_full(k, &a[ib * k..], k, pack, NR, tile, r);
            } else {
                micro_nn_edge(k, mr, nr, &a[ib * k..], k, pack, NR, tile, r);
            }
        }
    }
}

/// `out = aᵀ × b` where `a` is `m × k`, `b` is `m × n`, `out` is `k × n`,
/// all row-major — the backward-pass `dW = Xᵀ × δ` orientation. The
/// reduction runs over `m` (the batch) with each output tile held in
/// registers. `out` is fully overwritten.
///
/// # Panics
///
/// Panics if a slice is shorter than its shape implies.
pub fn gemm_tn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    assert!(a.len() >= m * k, "gemm a slice too short");
    assert!(b.len() >= m * n, "gemm b slice too short");
    assert!(out.len() >= k * n, "gemm out slice too short");
    fma_or_fall_through!(gemm_tn(m, k, n, a, b, out));
    gemm_tn_portable(m, k, n, a, b, out);
}

/// [`gemm_tn`] over the portable microkernels.
fn gemm_tn_portable(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    for jb in (0..n).step_by(NR) {
        let nr = NR.min(n - jb);
        for kb in (0..k).step_by(MR) {
            let mr = MR.min(k - kb);
            let tile = &mut out[kb * n + jb..];
            if mr == MR && nr == NR {
                micro_tn_full(m, &a[kb..], k, &b[jb..], n, tile, n);
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

/// One Adam step's coefficients: the decay rates, `eps`, and the two
/// bias corrections folded into scalars once per call (see
/// [`crate::optim::Adam::step`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdamStep {
    /// First-moment decay, β₁.
    pub beta1: f32,
    /// Second-moment decay, β₂.
    pub beta2: f32,
    /// Added to the denominator.
    pub eps: f32,
    /// `lr / (1 − β₁ᵗ)`.
    pub step: f32,
    /// `1 / sqrt(1 − β₂ᵗ)`.
    pub r: f32,
}

/// One Adam pass over `params`, in place: per element,
///
/// ```text
/// m = flush(β₁·m + (1 − β₁)·g)
/// v = flush(β₂·v + ((1 − β₂)·g)·g)
/// p = p − (step·m) / (sqrt(v)·r + eps)
/// ```
///
/// each operation rounded on its own (no fused multiply-add), where
/// `flush(x)` is `+0.0` for `|x| < f32::MIN_POSITIVE` and `x` otherwise.
/// So no stored moment is ever subnormal, and no later step computes on one:
/// with MXCSR's flush-to-zero off, as Rust leaves it, an x86 vector
/// operation that reads or produces a subnormal takes a microcode assist.
///
/// Every implementation stores the same bits. On an x86-64 CPU with AVX2 it
/// runs the FMA family's AVX2 instantiation, on one with AVX-512F too: the
/// pass is bound by the divider, which takes a 16-lane `vdivps`/`vsqrtps`
/// no faster than two 8-lane ones, so 512-bit vectors buy nothing here
/// (37 577 parameters on a 2-vCPU AVX-512F Xeon: 17.5 µs AVX2, 18.6 µs
/// AVX-512F, 27 µs portable).
///
/// # Panics
///
/// Panics if the four slices differ in length.
pub fn adam(s: &AdamStep, params: &mut [f32], grads: &[f32], m: &mut [f32], v: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if fma::Avx2::available() {
        // SAFETY: `available` reported the instruction set.
        return unsafe { fma::Avx2::adam(s, params, grads, m, v) };
    }
    adam_portable(s, params, grads, m, v);
}

/// [`adam`] as a scalar loop: the implementation on CPUs without AVX2+FMA,
/// and the reference every instantiation is held to bit for bit.
fn adam_portable(s: &AdamStep, params: &mut [f32], grads: &[f32], m: &mut [f32], v: &mut [f32]) {
    let n = params.len();
    assert!(grads.len() == n && m.len() == n && v.len() == n, "adam slice lengths differ");
    let (b1, b2, c1, c2) = (s.beta1, s.beta2, 1.0 - s.beta1, 1.0 - s.beta2);
    for (((p, &g), m), v) in params.iter_mut().zip(grads).zip(m).zip(v) {
        *m = flush(b1 * *m + c1 * g);
        *v = flush(b2 * *v + c2 * g * g);
        *p -= s.step * *m / (v.sqrt() * s.r + s.eps);
    }
}

/// `+0.0` where `|x| < f32::MIN_POSITIVE` (subnormals and `−0.0`), else `x`.
#[inline(always)]
fn flush(x: f32) -> f32 {
    if x.abs() < f32::MIN_POSITIVE {
        0.0
    } else {
        x
    }
}

/// The signature of [`adam`] and of each of its implementations.
pub type AdamFn = fn(&AdamStep, &mut [f32], &[f32], &mut [f32], &mut [f32]);

/// Every implementation of [`adam`] this CPU runs, named: the portable
/// reference, then each FMA instantiation CPUID reports (the dispatching
/// [`adam`] reaches only one). For the differential test.
pub fn adam_implementations() -> Vec<(&'static str, AdamFn)> {
    #[allow(unused_mut)] // off x86-64 only the portable loop is pushed
    let mut all: Vec<(&'static str, AdamFn)> = vec![("portable", adam_portable)];
    #[cfg(target_arch = "x86_64")]
    {
        if fma::Avx2::available() {
            // SAFETY: pushed only when `available` reported the set.
            all.push(("avx2", |s, p, g, m, v| unsafe { fma::Avx2::adam(s, p, g, m, v) }));
        }
        if fma::Avx512::available() {
            // SAFETY: as above.
            all.push(("avx512f", |s, p, g, m, v| unsafe { fma::Avx512::adam(s, p, g, m, v) }));
        }
    }
    all
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
    /// every off-by-one around the 4-row blocks, the 16-column portable and
    /// AVX2 tiles, the 64-column AVX-512 tile and the 64- and 128-column row
    /// passes.
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
            (MR + 1, 16, 4 * NR + 1),
            (2 * MR + 3, 8, 4 * NR - 1),
            (3, 4, 8 * NR + 3),
        ]
    }

    type Nn = fn(usize, usize, usize, &[f32], &[f32], Option<&[f32]>, Option<Activation>, &mut [f32]);
    type Nt = fn(usize, usize, usize, &[f32], &[f32], &mut Vec<f32>, &mut [f32]);
    type Tn = fn(usize, usize, usize, &[f32], &[f32], &mut [f32]);

    /// One implementation of the three orientations.
    struct Kernels {
        name: &'static str,
        nn: Nn,
        nt: Nt,
        tn: Tn,
    }

    /// The FMA instantiations this CPU runs, called directly — the
    /// dispatching entry points reach only the widest. One this CPU lacks is
    /// left out with a line saying so.
    #[cfg(target_arch = "x86_64")]
    fn fma_instantiations() -> Vec<Kernels> {
        macro_rules! instantiation {
            ($isa:ident, $name:literal) => {
                if fma::$isa::available() {
                    Some(Kernels {
                        name: $name,
                        // SAFETY (all three): built only when `available` reported the set.
                        nn: |m, k, n, a, w, bias, act, out| unsafe {
                            fma::$isa::gemm_bias_act(m, k, n, a, w, bias, act, out)
                        },
                        nt: |m, k, r, a, b, pack, out| unsafe { fma::$isa::gemm_nt(m, k, r, a, b, pack, out) },
                        tn: |m, k, n, a, b, out| unsafe { fma::$isa::gemm_tn(m, k, n, a, b, out) },
                    })
                } else {
                    println!("no {} on this CPU: its FMA instantiation is not tested", $name);
                    None
                }
            };
        }
        [instantiation!(Avx2, "avx2"), instantiation!(Avx512, "avx512f")].into_iter().flatten().collect()
    }

    #[cfg(not(target_arch = "x86_64"))]
    fn fma_instantiations() -> Vec<Kernels> {
        Vec::new()
    }

    /// Every implementation: the dispatching entry points, the portable
    /// kernels (on an FMA CPU nothing else would run them) and each FMA
    /// instantiation this CPU runs.
    fn implementations() -> Vec<Kernels> {
        let mut all = vec![
            Kernels { name: "dispatch", nn: gemm_bias_act, nt: gemm_nt, tn: gemm_tn },
            Kernels { name: "portable", nn: gemm_bias_act_portable, nt: gemm_nt_portable, tn: gemm_tn_portable },
        ];
        all.extend(fma_instantiations());
        all
    }

    #[test]
    fn gemm_nn_matches_naive() {
        let mut rng = StdRng::seed_from_u64(1);
        for kernels in implementations() {
            for (m, k, n) in shapes() {
                let a = rand_vec(&mut rng, m * k);
                let b = rand_vec(&mut rng, k * n);
                let mut out = vec![f32::NAN; m * n];
                (kernels.nn)(m, k, n, &a, &b, None, None, &mut out);
                assert_close(&out, &naive::nn(m, k, n, &a, &b), kernels.name);
            }
        }
    }

    #[test]
    fn gemm_nt_matches_naive() {
        let mut rng = StdRng::seed_from_u64(2);
        for kernels in implementations() {
            let mut pack = Vec::new();
            for (m, k, r) in shapes() {
                let a = rand_vec(&mut rng, m * k);
                let b = rand_vec(&mut rng, r * k);
                let mut out = vec![f32::NAN; m * r];
                (kernels.nt)(m, k, r, &a, &b, &mut pack, &mut out);
                assert_close(&out, &naive::nt(m, k, r, &a, &b), kernels.name);
            }
        }
    }

    #[test]
    fn gemm_tn_matches_naive() {
        let mut rng = StdRng::seed_from_u64(3);
        for kernels in implementations() {
            for (m, k, n) in shapes() {
                let a = rand_vec(&mut rng, m * k);
                let b = rand_vec(&mut rng, m * n);
                let mut out = vec![f32::NAN; k * n];
                (kernels.tn)(m, k, n, &a, &b, &mut out);
                assert_close(&out, &naive::tn(m, k, n, &a, &b), kernels.name);
            }
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

    /// Every implementation of the fused layer against the naive one.
    #[test]
    fn fused_bias_act_matches_separate_passes() {
        let mut rng = StdRng::seed_from_u64(4);
        for kernels in implementations() {
            for act in [None, Some(Activation::Relu), Some(Activation::Tanh)] {
                for (m, k, n) in shapes() {
                    let a = rand_vec(&mut rng, m * k);
                    let w = rand_vec(&mut rng, k * n);
                    let bias = rand_vec(&mut rng, n);
                    let mut out = vec![f32::NAN; m * n];
                    (kernels.nn)(m, k, n, &a, &w, Some(&bias), act, &mut out);
                    assert_close(&out, &naive_layer(m, k, n, &a, &w, &bias, act), kernels.name);
                }
            }
        }
    }

    /// The ISA differential: the AVX2 and AVX-512 instantiations, called
    /// directly, return the same bits in every orientation and epilogue, at
    /// the adversarial shapes and at the workloads' layer shapes (`k` the
    /// CartPole-sized, hidden, Atari and PPO input widths; `n` the value
    /// head, a small head, the policy head and the hidden width; `m` batch-1
    /// inference, short tails, a 4-row block, the IMPALA shard sizes and a
    /// whole IMPALA batch) — and both stay within a rounding bound of
    /// `naive`: any f32 summation order of `k` products is within
    /// `k · 2⁻²⁴ · Σ|aᵢbᵢ|` of the exact sum, so two are within twice that.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn fma_instantiations_are_bitwise_equal_and_match_naive() {
        let instantiations = fma_instantiations();
        if instantiations.len() < 2 {
            println!("fewer than two FMA instantiations run here: checked against naive only");
        }
        let mut shapes = shapes();
        for k in [6, 64, 512, 1024] {
            for n in [1, 3, 9, 64] {
                for m in [1, 3, 4, 71, 72, 500] {
                    shapes.push((m, k, n));
                }
            }
        }
        let abs = |v: &[f32]| v.iter().map(|x| x.abs()).collect::<Vec<_>>();
        let check = |what: &str, k: usize, bias: &[f32], got: &[Vec<f32>], want: &[f32], bound: &[f32]| {
            for (name, got) in instantiations.iter().map(|i| i.name).zip(got) {
                assert_eq!(got.len(), want.len());
                for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
                    let b = bias.get(i % bias.len().max(1)).map_or(0.0, |b| b.abs());
                    let tol = (k + 2) as f32 * f32::EPSILON * (bound[i] + b) + 1e-6;
                    assert!((g - w).abs() <= tol, "{what} {name}[{i}]: {g} vs naive {w} (tol {tol})");
                }
            }
            for pair in got.windows(2) {
                let same = pair[0].iter().zip(&pair[1]).all(|(x, y)| x.to_bits() == y.to_bits());
                assert!(same, "{what}: the FMA instantiations differ in bits");
            }
        };
        let mut rng = StdRng::seed_from_u64(6);
        for (m, k, n) in shapes {
            let what = format!("({m},{k},{n})");
            let a = rand_vec(&mut rng, m * k);
            let w = rand_vec(&mut rng, k * n);
            let bias = rand_vec(&mut rng, n);
            let bound = naive::nn(m, k, n, &abs(&a), &abs(&w));
            for act in [None, Some(Activation::Relu), Some(Activation::Tanh)] {
                let got: Vec<Vec<f32>> = instantiations
                    .iter()
                    .map(|i| {
                        let mut out = vec![f32::NAN; m * n];
                        (i.nn)(m, k, n, &a, &w, Some(&bias), act, &mut out);
                        out
                    })
                    .collect();
                let want = naive_layer(m, k, n, &a, &w, &bias, act);
                check(&format!("nn {act:?} {what}"), k, &bias, &got, &want, &bound);
            }
            // `nt` reads `w` as `n × k`: `out = a × wᵀ` is `m × n`.
            let got: Vec<Vec<f32>> = instantiations
                .iter()
                .map(|i| {
                    let mut out = vec![f32::NAN; m * n];
                    (i.nt)(m, k, n, &a, &w, &mut Vec::new(), &mut out);
                    out
                })
                .collect();
            let bound = naive::nt(m, k, n, &abs(&a), &abs(&w));
            check(&format!("nt {what}"), k, &[], &got, &naive::nt(m, k, n, &a, &w), &bound);
            // `tn` reduces over `m`: `out = aᵀ × δ` is `k × n`.
            let delta = rand_vec(&mut rng, m * n);
            let got: Vec<Vec<f32>> = instantiations
                .iter()
                .map(|i| {
                    let mut out = vec![f32::NAN; k * n];
                    (i.tn)(m, k, n, &a, &delta, &mut out);
                    out
                })
                .collect();
            let bound = naive::tn(m, k, n, &abs(&a), &abs(&delta));
            check(&format!("tn {what}"), m, &[], &got, &naive::tn(m, k, n, &a, &delta), &bound);
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

    /// Nothing outside the output may be written, in any orientation,
    /// whichever tile covers the ragged edge (the FMA tiles store under a
    /// lane mask).
    #[test]
    fn ragged_edges_leave_the_rest_of_out_untouched() {
        const PAD: usize = 8 * NR;
        let mut rng = StdRng::seed_from_u64(7);
        for kernels in implementations() {
            let name = kernels.name;
            for (m, k, n) in shapes() {
                let a = rand_vec(&mut rng, m * k);
                let w = rand_vec(&mut rng, k * n);
                let mut out = vec![7.5f32; m * n + PAD];
                (kernels.nn)(m, k, n, &a, &w, None, None, &mut out);
                assert!(out[m * n..].iter().all(|&v| v == 7.5), "{name} nn ({m},{k},{n}) wrote past its output");
                let mut out = vec![7.5f32; m * n + PAD];
                (kernels.nt)(m, k, n, &a, &w, &mut Vec::new(), &mut out);
                assert!(out[m * n..].iter().all(|&v| v == 7.5), "{name} nt ({m},{k},{n}) wrote past its output");
                let delta = rand_vec(&mut rng, m * n);
                let mut out = vec![7.5f32; k * n + PAD];
                (kernels.tn)(m, k, n, &a, &delta, &mut out);
                assert!(out[k * n..].iter().all(|&v| v == 7.5), "{name} tn ({m},{k},{n}) wrote past its output");
            }
        }
    }

    /// The epilogue's lane-wise tanh and [`ops::tanh`] are one function, in
    /// every implementation: with `k = 1` and `a = [1]` the layer is
    /// `tanh(w[j])` lane by lane (`−0` is absent: `0 + 1 · −0 = +0`, no
    /// accumulator chain can produce it).
    #[test]
    fn epilogue_tanh_lanes_equal_scalar_tanh_bitwise() {
        let mut xs: Vec<f32> = (0..200_000).map(|i| -12.0 + i as f32 * (24.0 / 200_000.0)).collect();
        xs.extend([0.0, f32::MIN_POSITIVE, -f32::MIN_POSITIVE, 1e-40, -1e-40]);
        xs.extend([f32::INFINITY, f32::NEG_INFINITY, f32::NAN, 3.9e-4, 4.1e-4, 7.9988, 8.0]);
        let n = xs.len();
        for kernels in implementations() {
            let mut out = vec![0.0f32; n];
            (kernels.nn)(1, 1, n, &[1.0], &xs, None, Some(Activation::Tanh), &mut out);
            for (&x, &y) in xs.iter().zip(&out) {
                let want = Activation::Tanh.apply(x);
                assert_eq!(y.to_bits(), want.to_bits(), "{}: tanh({x}): lane {y} vs scalar {want}", kernels.name);
            }
            assert!(out[n - 5].is_nan(), "{}: NaN must propagate through the epilogue", kernels.name);
        }
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
        for kernels in implementations() {
            let mut pack = Vec::new();
            // Large shape first: later smaller shapes must not read the stale
            // panel columns it leaves past their own width.
            for (m, k, r) in [(8, 64, 20), (3, 5, 3), (6, 64, 20), (5, 70, 90), (0, 5, 90), (2, 3, 7)] {
                let a = rand_vec(&mut rng, m * k);
                let b = rand_vec(&mut rng, r * k);
                let mut out = vec![0.0f32; m * r];
                (kernels.nt)(m, k, r, &a, &b, &mut pack, &mut out);
                assert_close(&out, &naive::nt(m, k, r, &a, &b), kernels.name);
            }
        }
    }
}
