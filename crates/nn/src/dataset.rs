//! Synthetic digit datasets.
//!
//! The paper evaluates on USPS (16×16 grey digits, TC1) and MNIST (28×28,
//! LeNet). We cannot ship either corpus, so this module renders
//! seven-segment-style digit glyphs at any square resolution with seeded
//! jitter and noise. The renderer exercises exactly the code paths the
//! real datasets would (shape, dynamic range, per-class structure); since
//! every throughput/utilisation result in the evaluation is independent of
//! pixel values, this substitution is behaviour-preserving (DESIGN.md §1).

use condor_tensor::{Shape, Tensor, TensorRng};

/// Segment layout of a seven-segment digit:
/// ```text
///  _a_
/// f| |b
///  -g-
/// e| |c
///  -d-
/// ```
const SEGMENTS: [[bool; 7]; 10] = [
    // a      b      c      d      e      f      g
    [true, true, true, true, true, true, false],     // 0
    [false, true, true, false, false, false, false], // 1
    [true, true, false, true, true, false, true],    // 2
    [true, true, true, true, false, false, true],    // 3
    [false, true, true, false, false, true, true],   // 4
    [true, false, true, true, false, true, true],    // 5
    [true, false, true, true, true, true, true],     // 6
    [true, true, true, false, false, false, false],  // 7
    [true, true, true, true, true, true, true],      // 8
    [true, true, true, true, false, true, true],     // 9
];

/// A labelled synthetic digit image.
#[derive(Clone, Debug)]
pub struct Sample {
    /// `1×1×size×size` grey image in `[0, 1]`.
    pub image: Tensor,
    /// Digit class, `0..10`.
    pub label: usize,
}

/// Renders one digit glyph.
///
/// `size` is the square image extent (16 for USPS-like, 28 for
/// MNIST-like); `jitter` shifts the glyph by up to ±1 pixel and `noise`
/// adds uniform pixel noise, both driven by `rng`.
fn render_digit(digit: usize, size: usize, rng: &mut TensorRng) -> Tensor {
    assert!(digit < 10, "digit out of range");
    assert!(size >= 8, "image too small to render a glyph");
    let mut img = Tensor::zeros(Shape::chw(1, size, size));
    let margin = size / 8;
    let x0 = margin + rng.index(3) - 1;
    let y0 = margin + rng.index(3) - 1;
    let w = size - 2 * margin;
    let h = size - 2 * margin;
    let xm = x0 + w - 1;
    let ym = y0 + h - 1;
    let ymid = y0 + h / 2;
    let on = SEGMENTS[digit];
    let hline = |y: usize, img: &mut Tensor| {
        for x in x0..=xm {
            if y < size && x < size {
                *img.at_mut(0, 0, y, x) = 1.0;
            }
        }
    };
    let mut_vline = |x: usize, ya: usize, yb: usize, img: &mut Tensor| {
        for y in ya..=yb {
            if y < size && x < size {
                *img.at_mut(0, 0, y, x) = 1.0;
            }
        }
    };
    if on[0] {
        hline(y0, &mut img);
    }
    if on[6] {
        hline(ymid, &mut img);
    }
    if on[3] {
        hline(ym, &mut img);
    }
    if on[5] {
        mut_vline(x0, y0, ymid, &mut img);
    }
    if on[1] {
        mut_vline(xm, y0, ymid, &mut img);
    }
    if on[4] {
        mut_vline(x0, ymid, ym, &mut img);
    }
    if on[2] {
        mut_vline(xm, ymid, ym, &mut img);
    }
    // Mild additive noise so images are not exactly binary.
    for v in img.as_mut_slice() {
        let noise = rng.scalar(0.0, 0.1);
        *v = (*v * 0.9 + noise).clamp(0.0, 1.0);
    }
    img
}

/// Generates `n` labelled digits cycling through classes 0–9.
fn synthetic_digits(n: usize, size: usize, seed: u64) -> Vec<Sample> {
    let mut rng = TensorRng::seeded(seed);
    (0..n)
        .map(|i| {
            let label = i % 10;
            Sample {
                image: render_digit(label, size, &mut rng),
                label,
            }
        })
        .collect()
}

/// USPS-like dataset: 16×16 grey digits (TC1's input format).
pub fn usps_like(n: usize, seed: u64) -> Vec<Sample> {
    synthetic_digits(n, 16, seed)
}

/// MNIST-like dataset: 28×28 grey digits (LeNet's input format).
pub fn mnist_like(n: usize, seed: u64) -> Vec<Sample> {
    synthetic_digits(n, 28, seed)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;

    #[test]
    fn shapes_match_dataset_families() {
        let usps = usps_like(5, 1);
        assert_eq!(usps[0].image.shape(), Shape::chw(1, 16, 16));
        let mnist = mnist_like(5, 1);
        assert_eq!(mnist[0].image.shape(), Shape::chw(1, 28, 28));
    }

    #[test]
    fn labels_cycle() {
        let ds = usps_like(25, 3);
        assert_eq!(ds[0].label, 0);
        assert_eq!(ds[9].label, 9);
        assert_eq!(ds[10].label, 0);
        assert_eq!(ds[24].label, 4);
    }

    #[test]
    fn pixels_in_unit_range() {
        for s in mnist_like(20, 7) {
            assert!(s.image.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = usps_like(10, 42);
        let b = usps_like(10, 42);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.image, y.image);
        }
        let c = usps_like(10, 43);
        assert!(a.iter().zip(&c).any(|(x, y)| x.image != y.image));
    }

    #[test]
    fn different_digits_render_differently() {
        let mut rng = TensorRng::seeded(5);
        let one = render_digit(1, 16, &mut rng);
        let mut rng = TensorRng::seeded(5);
        let eight = render_digit(8, 16, &mut rng);
        // An 8 lights every segment; a 1 only two. Their ink mass differs.
        assert!(eight.sum() > one.sum() * 1.5);
    }

    #[test]
    #[should_panic(expected = "digit out of range")]
    fn digit_bound_checked() {
        let mut rng = TensorRng::seeded(0);
        render_digit(10, 16, &mut rng);
    }
}
