//! # condor-cloud
//!
//! Simulated backend services for the Condor deployment tiers.
//!
//! The paper's backend (Section 3.1.3, 3.3 steps 6–8) drives SDAccel,
//! XOCC, Amazon S3 and the AWS `create-fpga-image` workflow. None of
//! those services exist here, so this crate reproduces each as a
//! deterministic in-process model with the same artifact flow, states and
//! failure modes:
//!
//! * [`sdaccel`] — kernel-description XML, `.xo` packaging, `xclbin`
//!   linking with XOCC, and the generated default host code;
//! * [`s3`] — an in-memory S3 (buckets, objects, listing);
//! * [`afi`] — the Amazon FPGA Image registry with the real
//!   pending → available lifecycle and its validation failures;
//! * [`f1`] — F1 instance management: instance types, FPGA slots,
//!   loading an available AFI onto a slot;
//! * [`ami`] — the FPGA Developer AMI environment check the framework
//!   performs before attempting AFI creation ("we have decided to
//!   require users to run the Condor framework inside an FPGA Developer
//!   Amazon Machine Image, which provides the aforementioned licenses").

#![forbid(unsafe_code)]

pub mod afi;
pub mod ami;
pub mod f1;
pub mod s3;
pub mod sdaccel;

pub use afi::{AfiRegistry, AfiState};
pub use ami::Environment;
pub use f1::{F1Instance, F1InstanceType, F1Manager};
pub use s3::S3Client;
pub use sdaccel::{host_code, kernel_xml, xocc_link, Xclbin, XoFile};

use std::fmt;

/// Error across the simulated cloud services.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CloudError {
    /// Offending service (`"s3"`, `"afi"`, `"f1"`, `"sdaccel"`, `"ami"`).
    pub service: &'static str,
    /// Human-readable description.
    pub message: String,
    /// True when the failure is transient (a retry may succeed):
    /// injected transport faults, as opposed to the services' intrinsic
    /// validation errors (missing buckets, wrong parts, bad slots),
    /// which retrying cannot fix.
    pub transient: bool,
}

impl CloudError {
    pub(crate) fn new(service: &'static str, message: impl Into<String>) -> Self {
        CloudError {
            service,
            message: message.into(),
            transient: false,
        }
    }
}

impl fmt::Display for CloudError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.service, self.message)
    }
}

impl std::error::Error for CloudError {}

impl From<condor_faults::InjectedFault> for CloudError {
    fn from(f: condor_faults::InjectedFault) -> Self {
        // Sites are namespaced `service.operation`; keep the static
        // service tag the rest of the error surface uses.
        let service = match f.site.split('.').next() {
            Some("s3") => "s3",
            Some("afi") => "afi",
            Some("f1") => "f1",
            Some("sdaccel") => "sdaccel",
            Some("ami") => "ami",
            _ => "fault",
        };
        CloudError {
            service,
            message: f.to_string(),
            transient: f.transient,
        }
    }
}
