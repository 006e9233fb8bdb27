//! Numerical helpers shared by the DRL algorithms: softmax family, entropy,
//! and stable log/exp utilities.

/// Fused per-row softmax statistics: everything the softmax family needs
/// from one logits row, computed in a single exp pass (plus the max scan).
///
/// With `m = max`, `e_j = exp(z_j − m)`:
/// * `sum = Σ e_j`, so `p_j = e_j / sum` and `log p_j = z_j − (m + ln sum)`,
/// * `dot = Σ e_j · (z_j − m)`, so the entropy is `ln sum − dot / sum`.
#[derive(Debug, Clone, Copy)]
pub struct RowStats {
    /// Row maximum `m` (the shift that keeps `exp` in range).
    pub max: f32,
    /// `Σ exp(z_j − m)`.
    pub sum: f32,
    /// `Σ exp(z_j − m) · (z_j − m)`.
    pub dot: f32,
}

impl RowStats {
    /// `ln sum + max`: the log-partition `log Σ exp(z_j)`, so that
    /// `log p_j = z_j − log_z()`.
    pub fn log_z(self) -> f32 {
        self.sum.ln() + self.max
    }

    /// Entropy of the row's categorical distribution.
    pub fn entropy(self) -> f32 {
        self.sum.ln() - self.dot / self.sum
    }
}

/// The repository's one definition of `tanh`: a clamped rational approximant
/// (the float form used by Eigen) — `x·P(x²) / Q(x²)` with `P` of degree 6 and
/// `Q` of degree 3 in `x²`, every Horner step a fused multiply-add, one divide.
/// Max |error| against the exact function is 2.9e-7 over all finite `f32`.
///
/// [`tanh`] evaluates it on one value; the FMA epilogue of
/// [`crate::kernel::gemm_bias_act`] evaluates the same operations on 8
/// (AVX2) or 16 (AVX-512) lanes, so all return the same bits for the same
/// input.
pub(crate) mod tanh_poly {
    /// Numerator coefficients of `x¹, x³, …, x¹³`.
    pub const ALPHA: [f32; 7] = [
        4.893_524_6e-3,
        6.372_619_5e-4,
        1.485_722_35e-5,
        5.122_297_3e-8,
        -8.604_672e-11,
        2.000_188e-13,
        -2.760_768_4e-16,
    ];
    /// Denominator coefficients of `x⁰, x², x⁴, x⁶`.
    pub const BETA: [f32; 4] = [4.893_525e-3, 2.268_434_7e-3, 1.185_347_1e-4, 1.198_258_4e-6];
    /// Smallest input at which the rational evaluates to exactly `1.0`; the
    /// argument is clamped to `±CLAMP` so the result never leaves `[−1, 1]`.
    pub const CLAMP: f32 = 7.998_811_7;
    /// Below this magnitude `tanh(x) = x` to within half an ulp, and returning
    /// `x` keeps signed zeros and subnormals exact.
    pub const TINY: f32 = 0.0004;
}

/// Hyperbolic tangent by the approximant of [`tanh_poly`]. Odd by bits
/// (`tanh(−x) == −tanh(x)`), within `[−1, 1]`, `±1` exactly from `|x| ≥ 8`
/// and at `±∞`; `±0`, subnormals and NaN come back unchanged.
pub fn tanh(x: f32) -> f32 {
    use tanh_poly::{ALPHA, BETA, CLAMP, TINY};
    // `clamp`, unlike `min`/`max`, returns NaN for NaN: a NaN activation must
    // stay NaN for the learner's `is_finite` checks to see a diverged network.
    let c = x.clamp(-CLAMP, CLAMP);
    let c2 = c * c;
    let horner = |coeffs: &[f32]| {
        let (&top, rest) = coeffs.split_last().expect("non-empty polynomial");
        rest.iter().rev().fold(top, |p, &a| c2.mul_add(p, a))
    };
    let p = c * horner(&ALPHA);
    let q = horner(&BETA);
    if x.abs() < TINY {
        x
    } else {
        p / q
    }
}

/// Computes [`RowStats`] for one logits row.
pub fn row_stats(row: &[f32]) -> RowStats {
    let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    let mut dot = 0.0;
    for &z in row {
        let c = z - max;
        let e = c.exp();
        sum += e;
        dot += e * c;
    }
    RowStats { max, sum, dot }
}

/// Row-wise softmax of `row` into `out` (may alias via a prior copy; plain
/// slices, no allocation).
///
/// # Panics
///
/// Panics on length mismatch.
pub fn softmax_row_into(row: &[f32], out: &mut [f32]) {
    assert_eq!(row.len(), out.len(), "softmax row length mismatch");
    let s = row_stats(row);
    let inv = 1.0 / s.sum;
    for (o, &z) in out.iter_mut().zip(row) {
        *o = (z - s.max).exp() * inv;
    }
}

/// Samples an index from a categorical distribution given probabilities.
///
/// `u` must be a uniform random number in `[0, 1)`. The threshold is
/// `u × Σp` rather than `u` itself, so probabilities whose floating-point
/// sum drifts from 1.0 (softmax rounding) still sample every index with the
/// intended weight instead of leaning on the final-index fallback.
pub fn sample_categorical(probs: &[f32], u: f32) -> usize {
    let total: f32 = probs.iter().sum();
    let threshold = u * total;
    let mut acc = 0.0;
    for (i, &p) in probs.iter().enumerate() {
        acc += p;
        if threshold < acc {
            return i;
        }
    }
    probs.len() - 1
}

/// Index of the maximum value (argmax); ties resolve to the first maximum.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn argmax(values: &[f32]) -> usize {
    assert!(!values.is_empty(), "argmax of empty slice");
    let mut best = 0;
    for (i, &v) in values.iter().enumerate() {
        if v > values[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tanh_contract() {
        // Dense sweep: error against libm, range, and odd symmetry by bits.
        let points = 1_200_000;
        for i in 0..=points {
            let x = -12.0 + 24.0 * (i as f32 / points as f32);
            let y = tanh(x);
            assert!((y - x.tanh()).abs() <= 5e-7, "tanh({x}) = {y}, libm {}", x.tanh());
            assert!((-1.0..=1.0).contains(&y), "tanh({x}) = {y} leaves [-1, 1]");
            assert_eq!(tanh(-x).to_bits(), (-y).to_bits(), "tanh is not odd at {x}");
        }
        // Saturation: within an ulp of ±1 from |x| = 9 out to infinity.
        for x in [9.0, 9.5, 12.0, 1e10, f32::MAX, f32::INFINITY] {
            assert!(1.0 - tanh(x) <= f32::EPSILON, "tanh({x}) = {}", tanh(x));
            assert!(1.0 + tanh(-x) <= f32::EPSILON, "tanh(-{x}) = {}", tanh(-x));
        }
        // Zeros keep their sign; the smallest normal and subnormals come back unchanged.
        for x in [0.0, f32::MIN_POSITIVE, 1e-40, f32::from_bits(1), f32::from_bits(0x007f_ffff)] {
            assert_eq!(tanh(x).to_bits(), x.to_bits(), "tanh({x:e})");
            assert_eq!(tanh(-x).to_bits(), (-x).to_bits(), "tanh(-{x:e})");
        }
        assert!(tanh(f32::NAN).is_nan(), "NaN must propagate, not clamp to 1");
        assert!(tanh(-f32::NAN).is_nan());
    }

    fn softmax(row: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0; row.len()];
        softmax_row_into(row, &mut out);
        out
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        for row in [[1., 2., 3.], [-1., 0., 1.]] {
            let sum: f32 = softmax(&row).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = softmax(&[1., 2., 3.]);
        let b = softmax(&[1001., 1002., 1003.]);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn entropy_is_max_for_uniform() {
        let uniform = row_stats(&[0.0; 4]).entropy();
        let peaked = row_stats(&[10.0, 0.0, 0.0, 0.0]).entropy();
        assert!((uniform - (4.0f32).ln()).abs() < 1e-5);
        assert!(peaked < uniform);
    }

    #[test]
    fn sample_categorical_boundaries() {
        let p = [0.25, 0.25, 0.5];
        assert_eq!(sample_categorical(&p, 0.0), 0);
        assert_eq!(sample_categorical(&p, 0.3), 1);
        assert_eq!(sample_categorical(&p, 0.99), 2);
        assert_eq!(sample_categorical(&p, 1.0), 2, "u at upper bound clamps");
    }

    #[test]
    fn argmax_first_max_wins() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0]), 1);
    }

    #[test]
    fn sample_categorical_renormalizes_drifted_sums() {
        // Sum drifts below 1: without renormalization, u in [0.9, 1.0) would
        // fall through to the last-index fallback regardless of the weights.
        let low = [0.3, 0.3, 0.3];
        assert_eq!(sample_categorical(&low, 0.32), 0);
        assert_eq!(sample_categorical(&low, 0.34), 1);
        assert_eq!(sample_categorical(&low, 0.95), 2);
        // Sum drifts above 1: index weights stay proportional.
        let high = [0.6, 0.6];
        assert_eq!(sample_categorical(&high, 0.49), 0);
        assert_eq!(sample_categorical(&high, 0.51), 1);
    }

    #[test]
    fn row_stats_matches_materialized_softmax() {
        let row = [0.5, -1.0, 2.0, 0.3];
        let s = row_stats(&row);
        let probs = softmax(&row);
        let naive_entropy: f32 = probs.iter().map(|&p| -p * p.ln()).sum();
        assert!((s.entropy() - naive_entropy).abs() < 1e-5);
        for (&z, &p) in row.iter().zip(&probs) {
            assert!((z - s.log_z() - p.ln()).abs() < 1e-5);
        }
    }
}
