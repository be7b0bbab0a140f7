//! Deterministic tensor initialisers.
//!
//! The paper ships trained `caffemodel` weights; we cannot, so every
//! experiment initialises weights with a seeded RNG (Xavier/Glorot uniform,
//! the Caffe default for LeNet) or closed-form fills. Determinism matters:
//! the golden engine and the hardware simulator must see bit-identical
//! weights for the equivalence tests to be meaningful.

use crate::{Shape, Tensor};

/// Seeded RNG wrapper used across the workspace for reproducible tensors:
/// xoshiro256++ with its state expanded from the seed by SplitMix64.
pub struct TensorRng {
    s: [u64; 4],
}

impl TensorRng {
    /// Creates a reproducible generator from a 64-bit seed.
    pub fn seeded(seed: u64) -> Self {
        let mut x = seed;
        let mut splitmix = || {
            x = x.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        };
        TensorRng {
            s: [splitmix(), splitmix(), splitmix(), splitmix()],
        }
    }

    /// The next 64 raw bits of the xoshiro256++ stream.
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `[lo, hi)`: the top 53 bits as a unit fraction, scaled
    /// in `f32`.
    fn sample(&mut self, lo: f32, hi: f32) -> f32 {
        let unit = (self.next_u64() >> 11) as f32 / (1u64 << 53) as f32;
        lo + unit * (hi - lo)
    }

    /// Uniform tensor in `[lo, hi)`.
    pub fn uniform(&mut self, shape: Shape, lo: f32, hi: f32) -> Tensor {
        assert!(lo < hi, "empty uniform range [{lo}, {hi})");
        let data = (0..shape.len()).map(|_| self.sample(lo, hi)).collect();
        Tensor::from_vec(shape, data)
    }

    /// Xavier/Glorot uniform initialisation (`scale = sqrt(3 / fan_in)`),
    /// the Caffe `xavier` filler used by the reference LeNet prototxt.
    pub fn xavier(&mut self, shape: Shape, fan_in: usize) -> Tensor {
        assert!(fan_in > 0, "fan_in must be positive");
        let scale = (3.0 / fan_in as f32).sqrt();
        self.uniform(shape, -scale, scale)
    }

    /// A single uniform value in `[lo, hi)`.
    pub fn scalar(&mut self, lo: f32, hi: f32) -> f32 {
        assert!(lo < hi, "empty scalar range [{lo}, {hi})");
        self.sample(lo, hi)
    }

    /// A uniform integer in `[0, bound)`.
    pub fn index(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "index bound must be positive");
        (self.next_u64() % bound as u64) as usize
    }
}

/// Tensor filled with one value.
pub fn constant(shape: Shape, value: f32) -> Tensor {
    Tensor::from_vec(shape, vec![value; shape.len()])
}

/// Tensor whose elements ramp linearly from `start` with step `step` in
/// NCHW order — handy for address-pattern tests where each element must be
/// distinguishable.
pub fn linspace(shape: Shape, start: f32, step: f32) -> Tensor {
    let data = (0..shape.len()).map(|i| start + step * i as f32).collect();
    Tensor::from_vec(shape, data)
}

/// Convenience free function: Xavier weights with a fresh seeded RNG.
pub fn xavier(shape: Shape, fan_in: usize, seed: u64) -> Tensor {
    TensorRng::seeded(seed).xavier(shape, fan_in)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;

    #[test]
    fn seeded_rng_is_deterministic() {
        let a = TensorRng::seeded(42).uniform(Shape::vector(32), -1.0, 1.0);
        let b = TensorRng::seeded(42).uniform(Shape::vector(32), -1.0, 1.0);
        assert_eq!(a, b);
        let c = TensorRng::seeded(43).uniform(Shape::vector(32), -1.0, 1.0);
        assert_ne!(a, c);
    }

    #[test]
    fn xavier_respects_scale_bound() {
        let fan_in = 25;
        let bound = (3.0f32 / fan_in as f32).sqrt();
        let t = xavier(Shape::new(8, 1, 5, 5), fan_in, 7);
        assert!(t.as_slice().iter().all(|&v| v.abs() <= bound));
        // Not degenerate: values should spread over the range.
        let spread = t.as_slice().iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        assert!(spread > bound * 0.5, "xavier fill suspiciously narrow");
    }

    #[test]
    fn linspace_ramps() {
        let t = linspace(Shape::vector(4), 1.0, 0.5);
        assert_eq!(t.as_slice(), &[1.0, 1.5, 2.0, 2.5]);
    }

    #[test]
    fn constant_fills() {
        let t = constant(Shape::new(1, 2, 2, 1), 3.25);
        assert!(t.as_slice().iter().all(|&v| v == 3.25));
    }

    /// Every seeded tensor in the workspace comes from this stream, so a
    /// change to the generator or the sampling arithmetic must fail here
    /// rather than silently move every seeded test input.
    #[test]
    fn stream_is_pinned_by_value() {
        let u = TensorRng::seeded(0).uniform(Shape::vector(4), -1.0, 1.0);
        let bits: Vec<u32> = u.as_slice().iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, [0xbeb3a28a, 0xbe712c88, 0xbe8fc082, 0xbf7a2281]);
        let mut rng = TensorRng::seeded(42);
        let bits: Vec<u32> = (0..3).map(|_| rng.scalar(0.5, 2.0).to_bits()).collect();
        assert_eq!(bits, [0x3fdc58ba, 0x3f7a6d62, 0x3ffce85e]);
        let mut rng = TensorRng::seeded(7);
        let idx: Vec<usize> = (0..4).map(|_| rng.index(1000)).collect();
        assert_eq!(idx, [661, 916, 178, 356]);
    }

    #[test]
    fn index_within_bound() {
        let mut rng = TensorRng::seeded(1);
        for _ in 0..100 {
            assert!(rng.index(7) < 7);
        }
    }
}
