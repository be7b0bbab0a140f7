//! Property tests for the tensor substrate.

#![allow(clippy::unwrap_used)] // test code: unwrap is the assertion

use condor_tensor::{constant, linspace, max_abs_diff, AllClose, Shape, Tensor, TensorRng};
use proptest::prelude::*;

fn shape_strategy() -> impl Strategy<Value = Shape> {
    (1usize..4, 1usize..6, 1usize..8, 1usize..8).prop_map(|(n, c, h, w)| Shape::new(n, c, h, w))
}

proptest! {
    /// Linear index and coordinate decomposition are inverse bijections.
    #[test]
    fn index_coords_bijection(shape in shape_strategy()) {
        let mut seen = vec![false; shape.len()];
        for n in 0..shape.n {
            for c in 0..shape.c {
                for h in 0..shape.h {
                    for w in 0..shape.w {
                        let idx = shape.index(n, c, h, w);
                        prop_assert!(!seen[idx]);
                        seen[idx] = true;
                        prop_assert_eq!(shape.coords(idx), (n, c, h, w));
                    }
                }
            }
        }
        prop_assert!(seen.into_iter().all(|b| b));
    }

    /// Batch split followed by stack is the identity.
    #[test]
    fn batch_split_stack_identity(shape in shape_strategy(), seed in any::<u64>()) {
        let t = TensorRng::seeded(seed).uniform(shape, -10.0, 10.0);
        let items: Vec<Tensor> = (0..shape.n).map(|i| t.batch_item(i)).collect();
        prop_assert_eq!(Tensor::stack(&items), t);
    }

    /// Reshape preserves data and length; double reshape returns the
    /// original.
    #[test]
    fn reshape_is_data_preserving(shape in shape_strategy(), seed in any::<u64>()) {
        let t = TensorRng::seeded(seed).uniform(shape, -1.0, 1.0);
        let flat = t.clone().reshape(Shape::vector(shape.len()));
        prop_assert_eq!(flat.as_slice(), t.as_slice());
        prop_assert_eq!(flat.reshape(shape), t);
    }

    /// Padded reads agree with plain reads inside the image and are zero
    /// in the halo.
    #[test]
    fn padded_reads(shape in shape_strategy(), pad in 0usize..3) {
        let t = linspace(shape, 1.0, 1.0); // strictly positive values
        for h in 0..shape.h + 2 * pad {
            for w in 0..shape.w + 2 * pad {
                let v = t.at_padded(0, 0, h as isize, w as isize, pad);
                let inside = h >= pad && w >= pad && h < shape.h + pad && w < shape.w + pad;
                if inside {
                    prop_assert_eq!(v, t.at(0, 0, h - pad, w - pad));
                } else {
                    prop_assert_eq!(v, 0.0);
                }
            }
        }
    }

    /// `all_close` is reflexive and symmetric; max_abs_diff bounds it.
    #[test]
    fn closeness_properties(shape in shape_strategy(), seed in any::<u64>()) {
        let mut rng = TensorRng::seeded(seed);
        let a = rng.uniform(shape, -5.0, 5.0);
        let b = rng.uniform(shape, -5.0, 5.0);
        prop_assert!(a.all_close(&a));
        prop_assert_eq!(a.all_close(&b), b.all_close(&a));
        if max_abs_diff(&a, &b) < 1e-5 {
            prop_assert!(a.all_close(&b));
        }
    }

    /// argmax returns an index whose value is maximal.
    #[test]
    fn argmax_is_maximal(vals in prop::collection::vec(-100.0f32..100.0, 1..64)) {
        let t = Tensor::from_vec(Shape::vector(vals.len()), vals.clone());
        let idx = t.argmax();
        prop_assert!(vals.iter().all(|&v| v <= vals[idx]));
        // Ties break to the lowest index.
        prop_assert!(vals[..idx].iter().all(|&v| v < vals[idx]));
    }

    /// map_inplace composes: applying f then g equals applying g∘f.
    #[test]
    fn map_inplace_composes(shape in shape_strategy(), seed in any::<u64>()) {
        let base = TensorRng::seeded(seed).uniform(shape, -2.0, 2.0);
        let mut a = base.clone();
        a.map_inplace(|v| v * 2.0);
        a.map_inplace(|v| v + 1.0);
        let mut b = base.clone();
        b.map_inplace(|v| v * 2.0 + 1.0);
        prop_assert!(a.all_close(&b));
    }

    /// Constant fill sums to value·len.
    #[test]
    fn constant_sum(shape in shape_strategy(), v in -3.0f32..3.0) {
        let t = constant(shape, v);
        let expect = v as f64 * shape.len() as f64;
        prop_assert!((t.sum() - expect).abs() < 1e-3);
    }
}
