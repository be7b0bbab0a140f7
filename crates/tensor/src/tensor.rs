//! Contiguous NCHW `f32` tensor.

use crate::shape::Shape;
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, contiguous 4-D tensor of `f32` values in NCHW layout.
///
/// This is the value type exchanged between the Caffe frontend, the golden
/// inference engine and the hardware simulator. Single-precision floats
/// match the arithmetic the paper's accelerator performs (its results are
/// reported in GFLOPS).
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Allocates a zero-filled tensor.
    pub fn zeros(shape: Shape) -> Self {
        Tensor {
            shape,
            data: vec![0.0; shape.len()],
        }
    }

    /// Builds a tensor from existing data.
    ///
    /// # Panics
    /// Panics when `data.len() != shape.len()`.
    pub fn from_vec(shape: Shape, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            shape.len(),
            "data length {} does not match shape {shape}",
            data.len()
        );
        Tensor { shape, data }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the backing storage in NCHW row-major order.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing storage.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element access by 4-D coordinate.
    #[inline]
    pub fn at(&self, n: usize, c: usize, h: usize, w: usize) -> f32 {
        self.data[self.shape.index(n, c, h, w)]
    }

    /// Mutable element access by 4-D coordinate.
    #[inline]
    pub fn at_mut(&mut self, n: usize, c: usize, h: usize, w: usize) -> &mut f32 {
        let idx = self.shape.index(n, c, h, w);
        &mut self.data[idx]
    }

    /// Padded read: returns `0.0` for coordinates that fall inside the
    /// symmetric zero-padding halo of width `pad`, and the stored value
    /// otherwise. `h`/`w` are given in padded coordinates.
    #[inline]
    pub fn at_padded(&self, n: usize, c: usize, h: isize, w: isize, pad: usize) -> f32 {
        let h = h - pad as isize;
        let w = w - pad as isize;
        if h < 0 || w < 0 || h >= self.shape.h as isize || w >= self.shape.w as isize {
            0.0
        } else {
            self.at(n, c, h as usize, w as usize)
        }
    }

    /// The `item`-th batch element as a fresh `1×c×h×w` tensor.
    pub fn batch_item(&self, item: usize) -> Tensor {
        assert!(item < self.shape.n, "batch item {item} out of range");
        let il = self.shape.item_len();
        Tensor::from_vec(
            self.shape.with_n(1),
            self.data[item * il..(item + 1) * il].to_vec(),
        )
    }

    /// Stacks `items` (each `1×c×h×w`) into an `N×c×h×w` batch.
    pub fn stack(items: &[Tensor]) -> Tensor {
        assert!(!items.is_empty(), "cannot stack zero tensors");
        let base = items[0].shape.with_n(1);
        let mut data = Vec::with_capacity(base.item_len() * items.len());
        for t in items {
            assert_eq!(t.shape.with_n(1), base, "stack shape mismatch");
            assert_eq!(t.shape.n, 1, "stack expects single-item tensors");
            data.extend_from_slice(&t.data);
        }
        Tensor::from_vec(base.with_n(items.len()), data)
    }

    /// One feature map `(n, c)` as an `h×w` row-major slice.
    pub fn map_slice(&self, n: usize, c: usize) -> &[f32] {
        let start = self.shape.index(n, c, 0, 0);
        &self.data[start..start + self.shape.map_len()]
    }

    /// Reinterprets the tensor with a new shape of identical length
    /// (e.g. flattening `1×50×4×4` to `1×800×1×1` before an FC layer).
    /// The data moves into the result; nothing is copied.
    pub fn reshape(self, shape: Shape) -> Tensor {
        assert_eq!(
            self.len(),
            shape.len(),
            "reshape {self:?} -> {shape} changes element count"
        );
        Tensor {
            shape,
            data: self.data,
        }
    }

    /// Index of the maximum element of a `1×c×1×1` vector (classification
    /// argmax). Ties resolve to the lowest index.
    pub fn argmax(&self) -> usize {
        assert!(!self.is_empty(), "argmax of empty tensor");
        let mut best = 0;
        for (i, &v) in self.data.iter().enumerate() {
            if v > self.data[best] {
                best = i;
            }
        }
        best
    }

    /// Applies `f` elementwise in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().map(|&v| v as f64).sum()
    }
}

impl Index<(usize, usize, usize, usize)> for Tensor {
    type Output = f32;
    fn index(&self, (n, c, h, w): (usize, usize, usize, usize)) -> &f32 {
        &self.data[self.shape.index(n, c, h, w)]
    }
}

impl IndexMut<(usize, usize, usize, usize)> for Tensor {
    fn index_mut(&mut self, (n, c, h, w): (usize, usize, usize, usize)) -> &mut f32 {
        let idx = self.shape.index(n, c, h, w);
        &mut self.data[idx]
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor({}, ", self.shape)?;
        if self.len() <= 8 {
            write!(f, "{:?})", self.data)
        } else {
            write!(f, "[{} elems])", self.len())
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;

    #[test]
    fn zeros_and_len() {
        let t = Tensor::zeros(Shape::new(2, 3, 4, 5));
        assert_eq!(t.len(), 120);
        assert!(t.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_vec_checks_length() {
        let r = std::panic::catch_unwind(|| {
            Tensor::from_vec(Shape::new(1, 1, 2, 2), vec![1.0, 2.0, 3.0])
        });
        assert!(r.is_err());
    }

    #[test]
    fn indexing_roundtrip() {
        let mut t = Tensor::zeros(Shape::new(1, 2, 3, 3));
        *t.at_mut(0, 1, 2, 0) = 7.5;
        assert_eq!(t.at(0, 1, 2, 0), 7.5);
        assert_eq!(t[(0, 1, 2, 0)], 7.5);
        t[(0, 0, 0, 1)] = -1.0;
        assert_eq!(t.at(0, 0, 0, 1), -1.0);
    }

    #[test]
    fn padded_reads_return_zero_in_halo() {
        let t = Tensor::from_vec(Shape::chw(1, 2, 2), vec![1.0, 2.0, 3.0, 4.0]);
        // pad=1: padded coordinate (0,0) is halo, (1,1) is the (0,0) value.
        assert_eq!(t.at_padded(0, 0, 0, 0, 1), 0.0);
        assert_eq!(t.at_padded(0, 0, 1, 1, 1), 1.0);
        assert_eq!(t.at_padded(0, 0, 2, 2, 1), 4.0);
        assert_eq!(t.at_padded(0, 0, 3, 3, 1), 0.0);
    }

    #[test]
    fn batch_item_and_stack_are_inverse() {
        let data: Vec<f32> = (0..24).map(|v| v as f32).collect();
        let t = Tensor::from_vec(Shape::new(2, 3, 2, 2), data);
        let a = t.batch_item(0);
        let b = t.batch_item(1);
        assert_eq!(a.at(0, 2, 1, 1), 11.0);
        assert_eq!(b.at(0, 0, 0, 0), 12.0);
        let restacked = Tensor::stack(&[a, b]);
        assert_eq!(restacked, t);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(Shape::new(1, 2, 2, 2), (0..8).map(|v| v as f32).collect());
        let f = t.clone().reshape(Shape::vector(8));
        assert_eq!(f.as_slice(), t.as_slice());
        assert_eq!(f.shape(), Shape::vector(8));
    }

    #[test]
    #[should_panic(expected = "changes element count")]
    fn reshape_rejects_size_change() {
        Tensor::zeros(Shape::vector(8)).reshape(Shape::vector(9));
    }

    #[test]
    fn argmax_finds_first_maximum() {
        let t = Tensor::from_vec(Shape::vector(5), vec![0.1, 0.9, 0.3, 0.9, 0.0]);
        assert_eq!(t.argmax(), 1);
    }

    #[test]
    fn map_slice_is_one_feature_map() {
        let t = Tensor::from_vec(Shape::new(1, 2, 2, 2), (0..8).map(|v| v as f32).collect());
        assert_eq!(t.map_slice(0, 1), &[4.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    fn map_inplace_and_sum() {
        let mut t = Tensor::from_vec(Shape::vector(4), vec![-1.0, 2.0, -3.0, 4.0]);
        t.map_inplace(|v| v.max(0.0));
        assert_eq!(t.as_slice(), &[0.0, 2.0, 0.0, 4.0]);
        assert_eq!(t.sum(), 6.0);
    }
}
