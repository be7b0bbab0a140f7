//! Symmetric INT8 quantization: parameters, observers and converters.
//!
//! The scheme follows the ACCEL-v1 / TinyCNN style of narrow-precision
//! inference: **symmetric** linear quantization onto `[-127, 127]`
//! (`-128` is deliberately excluded so magnitudes stay below `2^7` and
//! products of two quantized values below `2^14` — the headroom the
//! packed GEMM micro-kernel in [`crate::qgemm`] relies on to accumulate
//! pairs of products in `i16` without overflow). Weights are quantized
//! **per output channel** (each filter gets its own scale, recovering
//! most of the accuracy lost to outlier filters), activations **per
//! tensor** with scales chosen by a [`MinMaxObserver`], which tracks the
//! exact extrema of everything it saw.
//!
//! Real values map as `q = clamp(round(x / scale), -127, 127)` and back
//! as `x ≈ q · scale`; for inputs inside the calibrated range the
//! round-trip error is bounded by `scale / 2` (property-tested).

/// Largest quantized magnitude: the symmetric scheme uses `[-127, 127]`.
pub const QMAX: i32 = 127;

/// Scale (and nominally zero point) of one quantized tensor or channel.
///
/// The symmetric scheme pins `zero_point` to 0; the field exists so the
/// serialized plan layout matches the usual affine-quantization schema
/// and an asymmetric extension stays representation-compatible.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QuantParams {
    /// Real value of one quantization step.
    pub scale: f32,
    /// Always 0 for the symmetric scheme.
    pub zero_point: i8,
}

impl QuantParams {
    /// Parameters mapping `[-abs_max, abs_max]` onto `[-127, 127]`.
    /// Non-finite or non-positive ranges degrade to a unit range rather
    /// than a degenerate zero scale.
    pub fn from_abs_max(abs_max: f32) -> Self {
        let m = if abs_max.is_finite() && abs_max > 0.0 {
            abs_max
        } else {
            1.0
        };
        QuantParams {
            scale: m / QMAX as f32,
            zero_point: 0,
        }
    }

    /// Quantizes one value (round-to-nearest, saturating).
    pub fn quantize(self, x: f32) -> i8 {
        let q = (x / self.scale).round();
        q.clamp(-(QMAX as f32), QMAX as f32) as i8
    }

    /// Recovers the real value of one quantized step.
    pub fn dequantize(self, q: i8) -> f32 {
        q as f32 * self.scale
    }
}

/// Quantizes a slice (`out[i] = params.quantize(src[i])`).
///
/// # Panics
/// Panics on length mismatch.
pub fn quantize_into(src: &[f32], params: QuantParams, out: &mut [i8]) {
    assert_eq!(src.len(), out.len(), "quantize length mismatch");
    let inv = 1.0 / params.scale;
    for (o, &x) in out.iter_mut().zip(src) {
        let q = (x * inv).round().clamp(-(QMAX as f32), QMAX as f32);
        *o = q as i8;
    }
}

/// Dequantizes a slice (`out[i] = params.dequantize(src[i])`).
///
/// # Panics
/// Panics on length mismatch.
pub fn dequantize_into(src: &[i8], params: QuantParams, out: &mut [f32]) {
    assert_eq!(src.len(), out.len(), "dequantize length mismatch");
    for (o, &q) in out.iter_mut().zip(src) {
        *o = q as f32 * params.scale;
    }
}

/// Per-output-channel symmetric weight quantization.
///
/// `weights` is the usual `F × (C·K·K)` row-major filter bank (a row per
/// output channel); each row is quantized with its own scale. Returns
/// one [`QuantParams`] per channel, in row order.
///
/// # Panics
/// Panics when lengths disagree or `channels` does not divide them.
pub fn quantize_weights_per_channel(
    weights: &[f32],
    channels: usize,
    out: &mut [i8],
) -> Vec<QuantParams> {
    assert_eq!(weights.len(), out.len(), "weight quantize length mismatch");
    assert!(channels > 0, "channels must be positive");
    assert_eq!(
        weights.len() % channels,
        0,
        "channels must divide the weight count"
    );
    let row = weights.len() / channels;
    let mut params = Vec::with_capacity(channels);
    for c in 0..channels {
        let w = &weights[c * row..(c + 1) * row];
        let abs_max = w.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        let p = QuantParams::from_abs_max(abs_max);
        quantize_into(w, p, &mut out[c * row..(c + 1) * row]);
        params.push(p);
    }
    params
}

/// Exact min/max calibration observer.
///
/// Feed it every activation tensor the calibration batch produces for
/// one network node; [`MinMaxObserver::params`] then covers everything
/// it saw.
#[derive(Clone, Copy, Debug, Default)]
pub struct MinMaxObserver {
    min: f32,
    max: f32,
    seen: bool,
}

impl MinMaxObserver {
    /// A fresh observer that has seen nothing.
    pub fn new() -> Self {
        MinMaxObserver::default()
    }

    /// Folds one tensor's extrema into the running range.
    pub fn observe(&mut self, values: &[f32]) {
        for &v in values {
            if !v.is_finite() {
                continue;
            }
            if !self.seen {
                self.min = v;
                self.max = v;
                self.seen = true;
            } else {
                self.min = self.min.min(v);
                self.max = self.max.max(v);
            }
        }
    }

    /// Symmetric parameters covering the observed range.
    pub fn params(&self) -> QuantParams {
        QuantParams::from_abs_max(self.min.abs().max(self.max.abs()))
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;

    fn ramp(len: usize, scale: f32) -> Vec<f32> {
        (0..len).map(|i| ((i % 29) as f32 - 14.0) * scale).collect()
    }

    #[test]
    fn roundtrip_error_is_bounded_by_half_a_step() {
        for seed in 0..32u32 {
            // Deterministic pseudo-random values in [-8, 8].
            let mut state = (seed as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) + 1;
            let vals: Vec<f32> = (0..257)
                .map(|_| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    ((state >> 33) as f32 / (1u64 << 31) as f32 - 0.5) * 16.0
                })
                .collect();
            let abs_max = vals.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
            let p = QuantParams::from_abs_max(abs_max);
            let mut q = vec![0i8; vals.len()];
            quantize_into(&vals, p, &mut q);
            let mut back = vec![0.0f32; vals.len()];
            dequantize_into(&q, p, &mut back);
            for (x, y) in vals.iter().zip(&back) {
                assert!(
                    (x - y).abs() <= p.scale / 2.0 + f32::EPSILON * abs_max,
                    "seed {seed}: |{x} - {y}| > scale/2 = {}",
                    p.scale / 2.0
                );
            }
        }
    }

    #[test]
    fn quantize_saturates_outside_the_calibrated_range() {
        let p = QuantParams::from_abs_max(1.0);
        assert_eq!(p.quantize(5.0), 127);
        assert_eq!(p.quantize(-5.0), -127);
        assert_eq!(p.quantize(0.0), 0);
    }

    #[test]
    fn degenerate_ranges_get_a_unit_scale() {
        for bad in [0.0, -1.0, f32::NAN, f32::INFINITY] {
            let p = QuantParams::from_abs_max(bad);
            assert!(p.scale.is_finite() && p.scale > 0.0, "abs_max {bad}");
        }
    }

    #[test]
    fn per_channel_scales_are_independent() {
        // Row 0 spans ±1, row 1 spans ±100: per-channel quantization
        // must keep row 0's resolution fine.
        let w = [0.5f32, -1.0, 1.0, 50.0, -100.0, 25.0];
        let mut q = vec![0i8; 6];
        let params = quantize_weights_per_channel(&w, 2, &mut q);
        assert_eq!(params.len(), 2);
        assert!(params[0].scale < 0.01);
        assert!(params[1].scale > 0.5);
        assert_eq!(q[1], -127);
        assert_eq!(q[4], -127);
    }

    #[test]
    fn minmax_observer_covers_everything_seen() {
        let mut obs = MinMaxObserver::new();
        obs.observe(&ramp(64, 0.25));
        obs.observe(&[9.5, -2.0]);
        assert!(obs.seen);
        assert_eq!(obs.max, 9.5);
        assert!(obs.min <= -3.0);
        let p = obs.params();
        assert!((p.scale - 9.5 / 127.0).abs() < 1e-6);
    }

    #[test]
    fn observers_ignore_non_finite_values() {
        let mut mm = MinMaxObserver::new();
        mm.observe(&[f32::NAN, f32::INFINITY, 2.0]);
        assert!(mm.seen);
        assert_eq!((mm.min, mm.max), (2.0, 2.0));
    }
}
