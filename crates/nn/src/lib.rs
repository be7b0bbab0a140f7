//! # condor-nn
//!
//! CNN intermediate representation and golden reference engine.
//!
//! This crate is the semantic substrate underneath the Condor framework:
//!
//! * [`layer`] — the layer vocabulary from Section 2 of the paper
//!   (convolutional, sub-sampling, fully-connected, activation and
//!   normalisation layers);
//! * [`network`] — a validated feed-forward DAG of layers with shape
//!   inference implementing the paper's Eq. (2) and Eq. (3), weight
//!   storage and FLOP accounting (linear chains are the trivial special
//!   case);
//! * [`graph`] — stable [`NodeId`]s and the canonical [`NetworkBuilder`]
//!   for constructing networks, including branchy (concat / eltwise)
//!   topologies;
//! * [`golden`] — a straightforward, obviously-correct software inference
//!   engine (paper Eq. (1), (4), (5)) used as the functional oracle the
//!   hardware simulator is validated against;
//! * [`fast`] — the production CPU engine: im2col + blocked-GEMM kernels
//!   from `condor-kernels`, ReLU fusion and a per-engine scratch arena,
//!   property-tested against the golden oracle;
//! * [`quantized`] — the INT8 engine: calibrates activation scales from a
//!   sample batch, compiles per-layer quantized plans (per-channel
//!   weights, fused requantize epilogues, LUT-compiled activations) over
//!   the same ping-pong arena, and reports golden-vs-quantized accuracy
//!   against explicit per-layer error budgets;
//! * [`zoo`] — the three networks the evaluation uses: TC1 (the USPS CNN
//!   of the authors' earlier work), LeNet (the Caffe MNIST reference
//!   model) and VGG-16;
//! * [`dataset`] — synthetic USPS-like and MNIST-like digit generators
//!   standing in for the datasets we cannot ship;
//! * [`arbitrary`] — seed-driven random valid networks for the
//!   workspace's property-test suites.

#![forbid(unsafe_code)]

pub mod arbitrary;
pub mod dataset;
pub mod fast;
pub mod golden;
pub mod graph;
pub mod layer;
pub mod network;
pub mod quantized;
mod schedule;
pub mod zoo;

pub use fast::FastEngine;
pub use golden::GoldenEngine;
pub use graph::{NetworkBuilder, NodeId};
pub use layer::{EltwiseOp, Layer, LayerKind, PoolKind, ShapeError, ShapeErrorKind, Stage};
pub use network::{LayerCost, Network, NnError, NnErrorKind};
pub use quantized::{Calibration, LayerAccuracy, QuantAccuracyReport, QuantizedEngine};
