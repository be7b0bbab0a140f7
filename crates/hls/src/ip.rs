//! IP packaging and IP-Integrator connection (paper steps 3c and 5).
//!
//! "An empty Vivado IP Integrator project is created, the filters are
//! first linked together to form the memory subsystem and then connected
//! to the PE to form the final structure of the layer. Finally, the layer
//! is packaged as a Vivado IP" — and later "all the IPs of the layers
//! packaged in the previous steps are linked together following the
//! specified topology to create the final CNN accelerator."
//!
//! This module models the packaging artifacts (VLNV identity, stream
//! interfaces, bundled sources) and performs the interface-compatibility
//! checks the real connection step would fail on.

use crate::codegen;
use crate::synth::ModuleSynthesis;
use condor_dataflow::{AcceleratorPlan, PePlan};
use condor_nn::Stage;
use std::fmt;

/// Direction of a streaming interface.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamDir {
    /// Slave (input) stream.
    In,
    /// Master (output) stream.
    Out,
}

/// One AXI4-Stream interface of an IP.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IpInterface {
    /// Port name.
    pub name: String,
    /// Direction.
    pub dir: StreamDir,
    /// Data width in bits (32 for single-precision streams).
    pub width_bits: usize,
}

/// A packaged Vivado IP for one layer (PE + its memory subsystem).
#[derive(Clone, Debug, PartialEq)]
pub struct VivadoIp {
    /// Instance name.
    pub name: String,
    /// Vendor:Library:Name:Version identity.
    pub vlnv: String,
    /// Streaming interfaces.
    pub interfaces: Vec<IpInterface>,
    /// Generated HLS C sources bundled into the IP.
    pub sources: Vec<(String, String)>,
}

/// Error from IP packaging / connection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IpError {
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for IpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "IP packaging error: {}", self.message)
    }
}

impl std::error::Error for IpError {}

/// Packages one PE (and its filters, if any) as a layer IP.
pub fn package_layer_ip(pe: &PePlan) -> VivadoIp {
    let mut sources = Vec::new();
    let mut interfaces = vec![
        IpInterface {
            name: "s_axis_data".to_string(),
            dir: StreamDir::In,
            width_bits: 32,
        },
        IpInterface {
            name: "s_axis_weights".to_string(),
            dir: StreamDir::In,
            width_bits: 32,
        },
        IpInterface {
            name: "m_axis_data".to_string(),
            dir: StreamDir::Out,
            width_bits: 32,
        },
    ];
    match pe.stage {
        Stage::FeatureExtraction => {
            sources.push((format!("{}.cpp", pe.name), codegen::pe_source(pe)));
            if pe.layers.iter().any(|l| l.needs_filter_chain()) {
                let k = pe.max_window();
                let chain = condor_dataflow::FilterChain::new(
                    k,
                    pe.layers[0].input.h,
                    pe.layers[0].input.w,
                    1,
                    0,
                );
                for spec in chain.filter_specs() {
                    sources.push((
                        format!("{}_filter_{}_{}.cpp", pe.name, spec.row, spec.col),
                        codegen::filter_source(&pe.name, &spec, pe.max_input_width()),
                    ));
                }
            }
        }
        Stage::Classification => {
            sources.push((format!("{}.cpp", pe.name), codegen::fc_pe_source(pe)));
            // FC PEs have no memory subsystem — and no weight reuse
            // buffer interface beyond the stream.
            interfaces.retain(|i| i.name != "s_axis_weights");
            interfaces.push(IpInterface {
                name: "s_axis_weights".to_string(),
                dir: StreamDir::In,
                width_bits: 32 * pe.parallelism.fc_simd,
            });
        }
    }
    VivadoIp {
        name: pe.name.clone(),
        vlnv: format!("polimi.it:condor:{}:1.0", pe.name),
        interfaces,
        sources,
    }
}

/// The final accelerator IP: all layer IPs connected in topology order
/// behind a single AXI4 master + AXI4-Lite slave, as the SDAccel kernel
/// packaging requires (paper step 6a).
#[derive(Clone, Debug, PartialEq)]
pub struct AcceleratorIp {
    /// Accelerator (kernel) name.
    pub name: String,
    /// VLNV identity.
    pub vlnv: String,
    /// Layer IPs in pipeline order.
    pub layers: Vec<VivadoIp>,
    /// Directed stream connections `(from_ip, to_ip)`.
    pub connections: Vec<(String, String)>,
    /// Synthesis estimates carried along for reporting.
    pub module_reports: Vec<ModuleSynthesis>,
}

/// The network name as it appears in the kernel's name and VLNV: lower
/// case, with every character outside `[A-Za-z0-9_]` mapped to `_`, so
/// the name is a C identifier and safe inside XML attributes and C++
/// string literals.
fn kernel_stem(network: &str) -> String {
    network
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect()
}

/// Connects packaged layer IPs following the plan topology (paper
/// step 5), checking stream-interface compatibility.
pub fn connect_network(
    plan: &AcceleratorPlan,
    ips: Vec<VivadoIp>,
    module_reports: Vec<ModuleSynthesis>,
) -> Result<AcceleratorIp, IpError> {
    if ips.len() != plan.pes.len() {
        return Err(IpError {
            message: format!(
                "expected {} layer IPs for plan, got {}",
                plan.pes.len(),
                ips.len()
            ),
        });
    }
    let mut connections = Vec::new();
    for pair in ips.windows(2) {
        let up = &pair[0];
        let down = &pair[1];
        let m = up
            .interfaces
            .iter()
            .find(|i| i.dir == StreamDir::Out)
            .ok_or_else(|| IpError {
                message: format!("IP '{}' has no master stream", up.name),
            })?;
        let s = down
            .interfaces
            .iter()
            .find(|i| i.dir == StreamDir::In && i.name == "s_axis_data")
            .ok_or_else(|| IpError {
                message: format!("IP '{}' has no data slave stream", down.name),
            })?;
        if m.width_bits != s.width_bits {
            return Err(IpError {
                message: format!(
                    "stream width mismatch {} ({}) -> {} ({})",
                    up.name, m.width_bits, down.name, s.width_bits
                ),
            });
        }
        connections.push((up.name.clone(), down.name.clone()));
    }
    let stem = kernel_stem(&plan.network);
    Ok(AcceleratorIp {
        name: format!("condor_{stem}"),
        vlnv: format!("polimi.it:condor:accel_{stem}:1.0"),
        layers: ips,
        connections,
        module_reports,
    })
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use crate::synth::synthesize_plan;
    use condor_dataflow::PlanBuilder;
    use condor_fpga::device;
    use condor_nn::zoo;

    fn lenet_accel() -> (AcceleratorPlan, AcceleratorIp) {
        let net = zoo::lenet();
        let plan = PlanBuilder::new(&net).build().unwrap();
        let synth = synthesize_plan(&plan, device("xcvu9p").unwrap());
        let ips: Vec<VivadoIp> = plan.pes.iter().map(package_layer_ip).collect();
        let accel = connect_network(&plan, ips, synth.modules).unwrap();
        (plan, accel)
    }

    #[test]
    fn layer_ip_carries_sources_and_interfaces() {
        let net = zoo::lenet();
        let plan = PlanBuilder::new(&net).build().unwrap();
        let ip = package_layer_ip(&plan.pes[0]); // conv1
        assert_eq!(ip.vlnv, "polimi.it:condor:pe0:1.0");
        // PE source + 25 filter sources.
        assert_eq!(ip.sources.len(), 26);
        assert!(ip.interfaces.iter().any(|i| i.dir == StreamDir::Out));
    }

    #[test]
    fn fc_ip_has_no_filter_sources() {
        let net = zoo::lenet();
        let plan = PlanBuilder::new(&net).build().unwrap();
        let ip = package_layer_ip(&plan.pes[4]); // ip1
        assert_eq!(ip.sources.len(), 1);
        assert!(ip.sources[0].1.contains("single-input/single-output"));
    }

    #[test]
    fn connect_follows_topology() {
        let (plan, accel) = lenet_accel();
        assert_eq!(accel.connections.len(), plan.pes.len() - 1);
        assert_eq!(accel.connections[0], ("pe0".to_string(), "pe1".to_string()));
        assert_eq!(accel.name, "condor_lenet");
    }

    #[test]
    fn kernel_name_is_a_c_identifier() {
        assert_eq!(kernel_stem("VGG-16-features"), "vgg_16_features");
        assert_eq!(kernel_stem("my \"net\" <v2>"), "my__net___v2_");
        assert_eq!(kernel_stem("a:b/é"), "a_b__");
    }

    #[test]
    fn width_mismatch_is_rejected() {
        let net = zoo::lenet();
        let plan = PlanBuilder::new(&net).build().unwrap();
        let mut ips: Vec<VivadoIp> = plan.pes.iter().map(package_layer_ip).collect();
        // Corrupt a slave width.
        let s = ips[1]
            .interfaces
            .iter_mut()
            .find(|i| i.name == "s_axis_data")
            .unwrap();
        s.width_bits = 64;
        let err = connect_network(&plan, ips, vec![]).unwrap_err();
        assert!(err.message.contains("width mismatch"));
    }

    #[test]
    fn ip_count_mismatch_is_rejected() {
        let net = zoo::lenet();
        let plan = PlanBuilder::new(&net).build().unwrap();
        let err = connect_network(&plan, vec![], vec![]).unwrap_err();
        assert!(err.message.contains("expected"));
    }
}
