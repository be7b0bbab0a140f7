//! # condor-kernels
//!
//! Fast CPU compute kernels for CNN inference — the software analogue of
//! the paper's hardware acceleration argument. Where the golden engine
//! (`condor-nn`) transcribes the paper's equations as obvious loop
//! nests, this crate treats convolution lowering as the central
//! performance lever, the way fpgaConvNet and Caffeinated FPGAs do for
//! their FPGA dataflows:
//!
//! * [`im2col`] — patch-matrix lowering so convolution becomes one GEMM,
//!   writing into a reusable workspace buffer;
//! * [`gemm`] — f32 matrix multiply over 4×16 register tiles: the
//!   accumulators stay in registers for a whole `k`-slice, the slice of
//!   `B` under a tile is packed into an L1-resident stack array, and
//!   bias/LeakyReLU ([`Epilogue`]) are applied to the accumulators
//!   before the tile's only store; threads split output rows, and every
//!   product is a separate multiply and add (no FMA), so results equal
//!   the textbook triple loop bit for bit;
//! * [`ops`] — layer-level kernels (convolution, pooling, activations,
//!   softmax, fully-connected [`gemv`]) that all write into
//!   caller-provided buffers, so steady-state inference allocates
//!   nothing per layer.
//!
//! Thread parallelism uses `std::thread::scope` over disjoint row bands
//! (band splitting keeps each element's reduction order fixed), so
//! results are bit-identical
//! across thread counts and blocking parameters. `condor-nn`'s
//! `FastEngine` drives these kernels for whole networks and
//! property-tests them against the golden oracle.
//!
//! The INT8 quantized path mirrors the f32 one a precision tier down,
//! following the ACCEL-v1-style narrow-precision dataflow:
//!
//! * [`quant`] — symmetric per-channel weight quantization, per-tensor
//!   activation scales and the min/max + moving-average calibration
//!   observers;
//! * [`qgemm`] — packed GEMM over `i8` operands (4× denser than f32) in
//!   the patch-major layout the int8 im2col emits directly, widened once
//!   into `i16` staging planes so the reduction runs as
//!   `pmaddwd`-shaped widening dot products into exact `i32`
//!   accumulators (the workspace pins `x86-64-v3` codegen in
//!   `.cargo/config.toml` so that combine fires), with fused
//!   requantize/clamp/ReLU epilogues ([`requantize_into`]);
//! * [`qops`] — quantized convolution ([`qconv2d`], patch-major int8
//!   im2col into the reusable [`QWorkspace`]) and pooling ([`qpool2d`]).
//!
//! Integer accumulation is exact, so the quantized kernels are
//! bit-identical across blocking and threading by construction;
//! `condor-nn`'s `QuantizedEngine` drives them end to end under
//! per-layer error budgets.

#![forbid(unsafe_code)]

pub mod gemm;
pub mod im2col;
pub mod ops;
pub mod qgemm;
pub mod qops;
pub mod quant;

pub use gemm::{dot, gemm as gemm_f32, gemv, Epilogue, GemmBlocking};
pub use im2col::{im2col, im2col_i8, im2col_i8_patches, ConvGeometry};
pub use ops::{activate, conv2d, pool2d, softmax, Activation, PoolMethod, Workspace};
pub use qgemm::{gemm_i8, gemm_i8_requant, qgemv_i8, requantize_into, QWorkspace};
pub use qops::{qconv2d, qpool2d};
pub use quant::{
    dequantize_into, quantize_into, quantize_weights_per_channel, MinMaxObserver,
    MovingAvgObserver, QuantParams, QMAX,
};
