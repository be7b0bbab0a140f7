//! # condor-fpga
//!
//! FPGA device/board catalog and resource accounting.
//!
//! The paper reports its Table 1 results as percentages of the AWS F1
//! device's resources (a Xilinx Virtex UltraScale+ `xcvu9p`) together with
//! GFLOPS and GFLOPS/W. This crate provides:
//!
//! * [`resources`] — the LUT/FF/DSP/BRAM/URAM resource vector with
//!   checked arithmetic and utilisation reporting;
//! * [`mod@device`] — a catalog of devices and boards with real public
//!   resource inventories, including the F1 instance's `xcvu9p`;
//! * [`power`] — an analytic power model (static + per-resource dynamic
//!   terms scaled by clock frequency) used for the GFLOPS/W column.

#![forbid(unsafe_code)]

pub mod device;
pub mod power;
pub mod resources;

pub use device::{board, device, Board, Device, BOARDS, DEVICES};
pub use power::PowerModel;
pub use resources::{Resources, Utilization};
