//! # condor-kernels
//!
//! Fast CPU compute kernels for CNN inference — the software analogue of
//! the paper's hardware acceleration argument. Where the golden engine
//! (`condor-nn`) transcribes the paper's equations one product at a
//! time, this crate treats convolution as one GEMM, the lowering
//! fpgaConvNet and Caffeinated FPGAs build their FPGA dataflows around —
//! without ever writing the patch matrix, as the paper's own PEs never
//! do:
//!
//! * [`gemm`] — f32 matrix multiply over 4×24 register tiles: the
//!   accumulators stay in registers for a whole `k`-slice, the slice of
//!   `B` under a tile is packed into an L1-resident stack array (from a
//!   dense `B`, or straight from a convolution's input), and
//!   bias/LeakyReLU ([`Epilogue`]) are applied to the accumulators
//!   before the tile's only store; threads split output rows, and every
//!   product-sum is one fused multiply-add in ascending-`k` order, so
//!   results equal the ascending-`k` `mul_add` triple loop bit for bit;
//! * [`ops`] — layer-level kernels (implicit-GEMM convolution, pooling,
//!   activations, softmax, fully-connected [`gemv`]) that all write
//!   into caller-provided buffers, so steady-state inference allocates
//!   nothing per layer;
//! * [`winograd`] — Winograd F(4×4, 3×3) convolution for the wide
//!   stride-1 3×3 layers ([`takes_winograd`]): 36 multiplies per 4×4
//!   output tile where the direct convolution needs 144, run as 36 GEMMs
//!   on the same register tile (tiles down its 4-row side, output
//!   channels along its 24-wide side) between two transforms that
//!   vectorise over channels, in blocks of tiles inside caller-provided
//!   scratch. It agrees with [`conv2d`] within rounding error, not bit
//!   for bit;
//! * [`im2col()`] — the explicit patch-matrix lowering, the reference the
//!   f32 convolution is tested against bit for bit, and
//!   [`im2col_i8_patches`], its transpose over `i8`, the int8 path's
//!   lowering.
//!
//! Thread parallelism uses `std::thread::scope` over disjoint row bands
//! (band splitting keeps each element's reduction order fixed), so
//! results are bit-identical across thread counts and blocking
//! parameters (Winograd's included). One rule decides when a kernel
//! threads: at 2²¹ multiply-accumulates and more, on every thread the
//! machine has. `condor-nn`'s `FastEngine` drives these kernels for
//! whole networks and property-tests them against the golden oracle.
//!
//! The INT8 quantized path mirrors the f32 one a precision tier down,
//! following the ACCEL-v1-style narrow-precision dataflow:
//!
//! * [`quant`] — symmetric per-channel weight quantization, per-tensor
//!   activation scales and the min/max calibration observer;
//! * [`qgemm`] — packed GEMM over `i8` operands (4× denser than f32) in
//!   the patch-major layout the int8 im2col emits directly, widened once
//!   per call into `i16` planes so the reduction runs as
//!   `pmaddwd`-shaped widening dot products into exact `i32`
//!   accumulators (the workspace pins `x86-64-v3` codegen in
//!   `.cargo/config.toml` so that combine fires), with the
//!   requantize/clamp/ReLU epilogue fused into its tile loop
//!   ([`gemm_i8_requant`]);
//! * [`qops`] — quantized convolution ([`qconv2d`], patch-major int8
//!   im2col into the reusable [`QWorkspace`]) and pooling ([`qpool2d`]).
//!
//! Integer accumulation is exact, so the quantized kernels are
//! bit-identical across thread counts by construction;
//! `condor-nn`'s `QuantizedEngine` drives them end to end under
//! per-layer error budgets.

#![forbid(unsafe_code)]

pub mod gemm;
pub mod im2col;
pub mod ops;
pub mod qgemm;
pub mod qops;
pub mod quant;
pub mod winograd;

pub use gemm::{dot, gemm as gemm_f32, gemv, Epilogue, GemmBlocking};
pub use im2col::{im2col, im2col_i8_patches, ConvGeometry};
pub use ops::{activate, conv2d, pool2d, softmax, Activation, PoolMethod, Workspace};
pub use qgemm::{gemm_i8_requant, qgemv_i8, QWorkspace};
pub use qops::{qconv2d, qpool2d};
pub use quant::{
    dequantize_into, quantize_into, quantize_weights_per_channel, MinMaxObserver, QuantParams, QMAX,
};
pub use winograd::{
    conv2d_winograd, takes_winograd, winograd_scratch_len, WinogradFilters, WINOGRAD_MIN_CHANNELS,
};
