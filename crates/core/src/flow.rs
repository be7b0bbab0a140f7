//! Core-logic tier: the design automation flow (paper Section 3.3,
//! steps 1–6) behind a builder facade.
//!
//! `Condor::from_*` runs **input analysis** (step 1); the builder
//! methods pin or auto-explore the hardware directives (**DSE**, step
//! 2); [`Condor::build`] then performs **layer creation** (steps 3–4:
//! PE/filter code generation + synthesis), **network creation** (step 5:
//! IP connection) and **SDAccel integration** (step 6: kernel XML +
//! `.xo`), returning a [`BuiltAccelerator`] ready for the backend
//! deployment step.

use crate::deploy::{DeployTarget, DeployedAccelerator};
use crate::dse::{explore, DseConfig};
use crate::error::CondorError;
use crate::frontend::{analyze_caffe, analyze_condor, LoadedModel};
use crate::repr::{DeploymentTarget, HardwareConfig, NetworkRepresentation};
use condor_cloud::{host_code, XoFile};
use condor_dataflow::{AcceleratorPlan, PeParallelism, PlanBuilder, Precision};
use condor_fpga::{board, Board, Utilization};
use condor_hls::{
    connect_network, package_layer_ip, synthesize_plan, AcceleratorIp, PlanSynthesis,
};
use condor_nn::Network;

/// The framework entry point: collects inputs and directives, then runs
/// the automation flow.
pub struct Condor {
    network: Network,
    hardware: HardwareConfig,
    dse: Option<DseConfig>,
}

impl Condor {
    /// Starts from an in-memory network (weighted or not).
    pub fn from_network(network: Network) -> Self {
        Condor {
            network,
            hardware: HardwareConfig::default(),
            dse: None,
        }
    }

    /// Starts from Caffe artifacts (paper input method 2).
    pub fn from_caffe(prototxt: &str, caffemodel: Option<&[u8]>) -> Result<Self, CondorError> {
        analyze_caffe(prototxt, caffemodel).map(Condor::from_model)
    }

    /// Starts from the Condor internal specification (paper input
    /// method 1).
    pub fn from_condor_files(
        representation: &str,
        weights: Option<&[u8]>,
    ) -> Result<Self, CondorError> {
        analyze_condor(representation, weights).map(Condor::from_model)
    }

    fn from_model(model: LoadedModel) -> Self {
        Condor {
            network: model.network,
            hardware: model.representation.hardware,
            dse: None,
        }
    }

    /// Sets the target board.
    pub fn board(mut self, name: impl Into<String>) -> Self {
        self.hardware.board = name.into();
        self
    }

    /// Sets the requested clock.
    pub fn freq_mhz(mut self, f: f64) -> Self {
        self.hardware.freq_mhz = f;
        self
    }

    /// Sets the deployment option.
    pub fn deployment(mut self, d: DeploymentTarget) -> Self {
        self.hardware.deployment = d;
        self
    }

    /// Sets the fusion factor.
    pub fn fusion(mut self, k: usize) -> Self {
        self.hardware.fusion = k;
        self
    }

    /// Sets the feature-map parallelism.
    pub fn parallelism(mut self, p: PeParallelism) -> Self {
        self.hardware.parallelism = p;
        self
    }

    /// Overrides the parallelism of one layer's PE (the network
    /// representation's per-layer "desired level of parallelism").
    pub fn layer_parallelism(mut self, layer: impl Into<String>, p: PeParallelism) -> Self {
        self.hardware.layer_overrides.insert(layer.into(), p);
        self
    }

    /// Sets the datapath precision applied to every PE.
    pub fn precision(mut self, p: Precision) -> Self {
        self.hardware.precision = p;
        self
    }

    /// Overrides the precision of one layer's PE.
    pub fn layer_precision(mut self, layer: impl Into<String>, p: Precision) -> Self {
        self.hardware.layer_precisions.insert(layer.into(), p);
        self
    }

    /// Enables automatic design-space exploration: `build()` will pick
    /// fusion/parallelism/clock from the best feasible point instead of
    /// the pinned directives.
    pub fn auto_dse(mut self, cfg: DseConfig) -> Self {
        self.dse = Some(cfg);
        self
    }

    /// The current network (useful for inspection before building).
    pub fn network(&self) -> &Network {
        &self.network
    }

    fn resolve_board(&self) -> Result<&'static Board, CondorError> {
        board(&self.hardware.board).ok_or_else(|| {
            CondorError::new(
                "core-logic",
                format!(
                    "unknown board '{}' (known: {})",
                    self.hardware.board,
                    condor_fpga::BOARDS
                        .iter()
                        .map(|b| b.name)
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
            )
        })
    }

    /// Runs the automation flow, producing the packaged accelerator.
    pub fn build(mut self) -> Result<BuiltAccelerator, CondorError> {
        // A network built in code has not met the frontend's size gate.
        condor_check::shape::check_size(&self.network)
            .map_err(|d| CondorError::new("core-logic", d.render()))?;
        let board = self.resolve_board()?;

        // Step 2 — design space exploration (automated when requested).
        if let Some(cfg) = &self.dse {
            let outcome = explore(&self.network, board, cfg)?;
            let best = outcome.require_best()?;
            self.hardware.fusion = best.fusion;
            self.hardware.parallelism = best.parallelism;
            self.hardware.freq_mhz = best.freq_mhz;
            self.hardware.precision = best.precision;
        }

        // Steps 3–4 — layer creation: map layers onto PEs and filters.
        let mut plan_builder = PlanBuilder::new(&self.network)
            .board(board.name)
            .freq_mhz(self.hardware.freq_mhz)
            .fusion(self.hardware.fusion)
            .parallelism(self.hardware.parallelism)
            .precision(self.hardware.precision);
        for (layer, p) in &self.hardware.layer_overrides {
            plan_builder = plan_builder.layer_parallelism(layer.clone(), *p);
        }
        for (layer, p) in &self.hardware.layer_precisions {
            plan_builder = plan_builder.layer_precision(layer.clone(), *p);
        }
        let plan = plan_builder.build()?;

        // Mandatory static verification gate: shape/stream typing, SDF
        // FIFO analysis and resource budgets must all hold before any
        // HLS codegen runs. Errors abort the build; warnings ride along
        // on the report attached to the built accelerator.
        let check = condor_check::check(&self.network, &plan);
        if !check.passed() {
            return Err(CondorError::new(
                "core-logic",
                format!(
                    "network is not synthesizable with the current methodology on \
                     '{}': static verification failed\n{}",
                    board.name,
                    check.render()
                ),
            ));
        }
        let synthesis = check
            .synthesis
            .clone()
            .unwrap_or_else(|| synthesize_plan(&plan, board.device()));

        // Step 5 — network creation: connect the layer IPs.
        let ips: Vec<_> = plan.pes.iter().map(package_layer_ip).collect();
        let accelerator = connect_network(&plan, ips, synthesis.modules.clone())
            .map_err(|e| CondorError::new("core-logic", e.to_string()))?;

        // Step 6 — SDAccel integration: kernel XML + .xo packaging.
        let mut payload = Vec::new();
        for ip in &accelerator.layers {
            for (file, source) in &ip.sources {
                payload.extend_from_slice(file.as_bytes());
                payload.push(0);
                payload.extend_from_slice(source.as_bytes());
                payload.push(0);
            }
        }
        let xo = XoFile::package(&accelerator.name, "polimi.it", payload.into())?;
        let host = host_code(&accelerator.name, 64);

        let representation =
            NetworkRepresentation::new(self.network.topology(), self.hardware.clone());
        Ok(BuiltAccelerator {
            network: self.network,
            representation,
            plan,
            synthesis,
            check,
            accelerator,
            xo,
            host_code: host,
        })
    }
}

/// The packaged accelerator: everything steps 1–6 produced, ready for
/// the backend deployment step (7 or 8).
#[derive(Debug)]
pub struct BuiltAccelerator {
    /// The (weighted) network.
    pub network: Network,
    /// Final network representation, including the directives actually
    /// used (after DSE).
    pub representation: NetworkRepresentation,
    /// The architecture plan.
    pub plan: AcceleratorPlan,
    /// Synthesis estimates and achieved clock.
    pub synthesis: PlanSynthesis,
    /// The static verification report from the mandatory pre-codegen
    /// gate — always a pass by construction, but it preserves any
    /// warnings (missing weights, tight budgets, over-deep FIFOs).
    pub check: condor_check::CheckReport,
    /// The connected accelerator IP with its generated sources.
    pub accelerator: AcceleratorIp,
    /// The packaged Xilinx object file.
    pub xo: XoFile,
    /// The generated default host code.
    pub host_code: String,
}

impl BuiltAccelerator {
    /// The target board.
    pub fn board(&self) -> &'static Board {
        board(&self.representation.hardware.board).expect("validated at build")
    }

    /// Utilisation against the full device (Table 1 convention).
    pub fn utilization(&self) -> Utilization {
        self.synthesis
            .total
            .utilization(&self.board().device().capacity)
    }

    /// Deploys the accelerator (paper step 7 or 8). The target decides
    /// the path: [`DeployTarget::OnPremise`] programs a local board
    /// directly; [`DeployTarget::Cloud`] walks S3 → AFI → F1 slots.
    pub fn deploy(self, target: &DeployTarget<'_>) -> Result<DeployedAccelerator, CondorError> {
        crate::deploy::deploy(self, target)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use condor_nn::zoo;

    /// A network built in code meets the size gate in `build`, before
    /// the DSE or the plan multiplies its extents.
    #[test]
    fn build_refuses_a_network_past_the_size_gate() {
        let net = condor_nn::Network::new(
            "hostile",
            condor_tensor::Shape::chw(3, 4_000_000_000, 4_000_000_000),
            vec![condor_nn::Layer::new(
                "conv1",
                condor_nn::LayerKind::Convolution {
                    num_output: 2_000_000_000,
                    kernel: 3,
                    stride: 1,
                    pad: 0,
                    bias: true,
                },
            )],
        )
        .unwrap();
        let err = Condor::from_network(net)
            .auto_dse(DseConfig::default())
            .build()
            .unwrap_err();
        assert!(err.message.contains("error C017"), "{err}");
    }

    #[test]
    fn build_produces_all_artifacts() {
        let built = Condor::from_network(zoo::lenet_weighted(1))
            .board("aws-f1")
            .freq_mhz(180.0)
            .build()
            .unwrap();
        assert_eq!(built.plan.pes.len(), 6);
        assert_eq!(built.accelerator.name, "condor_lenet");
        assert!(!built.xo.payload.is_empty());
        assert!(built.host_code.contains("condor_lenet"));
        assert!(built.utilization().feasible());
        assert_eq!(built.synthesis.achieved_fmax_mhz, 180.0);
    }

    #[test]
    fn resnet_block_conformance_end_to_end() {
        use condor_nn::GoldenEngine;
        use condor_tensor::AllClose;
        // The branchy fixture rides the whole production path: DAG
        // build → static verification → deploy → threaded inference.
        let net = zoo::resnet_block_weighted(29);
        assert!(!net.is_linear_chain());
        let built = Condor::from_network(net.clone())
            .board("aws-f1")
            .build()
            .unwrap();
        assert!(
            built.check.passed(),
            "branchy network must pass the gate: {}",
            built.check.diagnostics.render()
        );
        let deployed = built
            .deploy(&crate::deploy::DeployTarget::OnPremise)
            .unwrap();
        let imgs: Vec<condor_tensor::Tensor> = (0..3u64)
            .map(|i| condor_tensor::xavier(net.input_shape, 4, 60 + i))
            .collect();
        let out = deployed.infer_batch(&imgs).unwrap();
        let golden = GoldenEngine::new(&net).unwrap().infer_batch(&imgs).unwrap();
        for (h, g) in out.iter().zip(&golden) {
            assert!(h.all_close(g), "fork/join inference diverged from golden");
        }
    }

    #[test]
    fn caffe_path_builds() {
        let built = Condor::from_caffe(zoo::lenet_prototxt(), None)
            .unwrap()
            .board("aws-f1")
            .build()
            .unwrap();
        assert_eq!(built.network.name, "LeNet");
    }

    /// A network name with quotes, angle brackets and spaces reaches the
    /// kernel XML and the host code only as a C identifier.
    #[test]
    fn kernel_name_is_escaped_in_xml_and_host_code() {
        let prototxt =
            zoo::lenet_prototxt().replacen(r#"name: "LeNet""#, r#"name: "my \"net\" <v2>""#, 1);
        let built = Condor::from_caffe(&prototxt, None)
            .unwrap()
            .board("aws-f1")
            .build()
            .unwrap();
        assert_eq!(built.network.name, r#"my "net" <v2>"#);
        assert_eq!(built.xo.kernel_name, "condor_my__net___v2_");
        assert!(built.xo.xml.contains(
            r#"<kernel name="condor_my__net___v2_" language="ip" vlnv="polimi.it:condor:condor_my__net___v2_:1.0""#
        ));
        assert!(built
            .host_code
            .contains(r#"cl::Kernel kernel(program, "condor_my__net___v2_")"#));
    }

    #[test]
    fn condor_path_builds() {
        let repr = NetworkRepresentation::new(zoo::tc1(), HardwareConfig::default());
        let built = Condor::from_condor_files(&repr.to_text(), None)
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(built.network.name, "TC1");
    }

    #[test]
    fn unknown_board_is_rejected_with_catalog() {
        let err = Condor::from_network(zoo::tc1())
            .board("de10-nano")
            .build()
            .unwrap_err();
        assert!(err.message.contains("aws-f1"));
    }

    #[test]
    fn vgg16_build_fails_like_the_paper_says() {
        let err = Condor::from_network(zoo::vgg16()).build().unwrap_err();
        assert!(err.message.contains("not synthesizable"));
        // The static gate names the binding budget code.
        assert!(err.message.contains("C030"), "{}", err.message);
    }

    #[test]
    fn build_records_check_warnings() {
        // An unweighted network builds fine, but the verification
        // report carried on the result keeps the C014 warnings.
        let built = Condor::from_network(zoo::lenet())
            .board("aws-f1")
            .build()
            .unwrap();
        assert!(built.check.passed());
        assert!(built.check.diagnostics.warning_count() > 0);
        // A fully-weighted build is warning-free.
        let built = Condor::from_network(zoo::lenet_weighted(1))
            .board("aws-f1")
            .build()
            .unwrap();
        assert_eq!(built.check.diagnostics.warning_count(), 0);
    }

    #[test]
    fn auto_dse_overrides_pinned_directives() {
        let built = Condor::from_network(zoo::tc1_weighted(2))
            .freq_mhz(100.0)
            .auto_dse(DseConfig {
                freqs_mhz: vec![100.0, 200.0],
                fusions: vec![1],
                parallel_in: vec![1, 2],
                parallel_out: vec![1, 2],
                fc_simd: vec![1, 2],
                precisions: vec![Precision::F32],
                eval_batch: 16,
                prefilter: true,
            })
            .build()
            .unwrap();
        // DSE should at minimum raise the clock beyond the pinned 100.
        assert!(built.representation.hardware.freq_mhz >= 100.0);
        assert!(built.utilization().feasible());
    }

    #[test]
    fn int8_build_narrows_every_pe_and_saves_dsp() {
        let f32_built = Condor::from_network(zoo::lenet_weighted(4))
            .board("aws-f1")
            .build()
            .unwrap();
        let int8_built = Condor::from_network(zoo::lenet_weighted(4))
            .board("aws-f1")
            .precision(Precision::Int8)
            .build()
            .unwrap();
        assert!(int8_built
            .plan
            .pes
            .iter()
            .all(|pe| pe.precision == Precision::Int8));
        assert!(int8_built.synthesis.total.dsp < f32_built.synthesis.total.dsp);
        // A single-layer override warns (C028 converters) but builds.
        let mixed = Condor::from_network(zoo::lenet_weighted(4))
            .board("aws-f1")
            .layer_precision("conv2", Precision::Int8)
            .build()
            .unwrap();
        assert!(mixed.check.passed());
        assert!(mixed.check.diagnostics.has_code(condor_check::Code::C028));
    }

    #[test]
    fn dse_choice_beats_default_directives() {
        let default_built = Condor::from_network(zoo::lenet_weighted(3))
            .freq_mhz(100.0)
            .build()
            .unwrap();
        let dse_built = Condor::from_network(zoo::lenet_weighted(3))
            .freq_mhz(100.0)
            .auto_dse(DseConfig::default())
            .build()
            .unwrap();
        let m = condor_dataflow::PipelineModel::from_plan(&timed(&default_built));
        let m_dse = condor_dataflow::PipelineModel::from_plan(&timed(&dse_built));
        let flops = default_built.network.total_flops().unwrap();
        assert!(m_dse.gflops(flops, 64) > m.gflops(flops, 64));
    }

    fn timed(b: &BuiltAccelerator) -> condor_dataflow::AcceleratorPlan {
        let mut p = b.plan.clone();
        p.freq_mhz = b.synthesis.achieved_fmax_mhz;
        p
    }
}
