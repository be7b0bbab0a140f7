//! Analytic synthesis model (the stand-in for Vivado HLS + Vivado
//! implementation).
//!
//! Maps each accelerator module to LUT/FF/DSP/BRAM estimates and derives
//! the achievable clock. Coefficients are calibrated against the paper's
//! Table 1 design points (TC1 ≈ 10.5 % LUT / 5.6 % DSP / 1 % BRAM of a
//! VU9P; LeNet ≈ 9.5 % LUT / 2.5 % DSP / 24.4 % BRAM) — the calibration
//! and residuals are tabulated in EXPERIMENTS.md. What the experiments
//! rely on is the *shape*: DSP grows with spatial MAC unrolling, BRAM
//! with on-chip weights and deep line FIFOs, and large designs close
//! timing at lower clocks.

use condor_dataflow::{AcceleratorPlan, PePlan, Precision};
use condor_fpga::{Device, Resources};
use condor_nn::LayerKind;

/// Module categories reported by the synthesis pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ModuleKind {
    /// Feature-extraction or classification PE.
    Pe,
    /// Sliding-window filter chain (all pipelines of one PE).
    FilterChain,
    /// The custom datamover.
    Datamover,
    /// AXI / SDAccel platform infrastructure.
    Infrastructure,
    /// Precision converter on an inter-PE stream whose endpoints run at
    /// different precisions (quantize / dequantize stage).
    Converter,
}

/// Synthesis estimate of one module.
#[derive(Clone, Debug, PartialEq)]
pub struct ModuleSynthesis {
    /// Module instance name.
    pub name: String,
    /// Category.
    pub kind: ModuleKind,
    /// Estimated resources.
    pub resources: Resources,
}

/// Aggregated synthesis result for a whole plan.
#[derive(Clone, Debug, PartialEq)]
pub struct PlanSynthesis {
    /// Per-module estimates.
    pub modules: Vec<ModuleSynthesis>,
    /// Sum over modules.
    pub total: Resources,
    /// The clock the design closes timing at (MHz) — the smaller of the
    /// requested clock and the congestion-limited achievable clock.
    pub achieved_fmax_mhz: f64,
    /// The clock the user asked for.
    pub requested_fmax_mhz: f64,
}

/// Calibrated model coefficients.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SynthModel {
    /// Base LUTs of any PE (control, stream glue).
    pub pe_base_lut: u64,
    /// LUTs per spatially-unrolled floating-point MAC.
    pub lut_per_mac: u64,
    /// DSP slices per floating-point MAC (3 for the multiplier + 2 for
    /// the adder on UltraScale+).
    pub dsp_per_mac: u64,
    /// LUTs per spatially-unrolled INT8 MAC (operand packing and the
    /// shared requantize datapath glue; the arithmetic itself packs two
    /// MACs per DSP48E2, see `synthesize_pe`).
    pub lut_per_int8_mac: u64,
    /// Cost of one stream precision converter (quantize or dequantize
    /// stage inserted on a mixed-precision inter-PE edge).
    pub converter: Resources,
    /// Base LUTs of a pooling PE (comparators only, no MACs).
    pub pool_base_lut: u64,
    /// LUTs per window element of a pooling reduction tree.
    pub pool_lut_per_elem: u64,
    /// LUTs per filter process.
    pub filter_lut: u64,
    /// LUTs per shallow (LUTRAM/SRL) FIFO.
    pub shallow_fifo_lut: u64,
    /// FIFO depth above which a BRAM tile is inferred instead of SRLs.
    pub bram_fifo_threshold: usize,
    /// FF : LUT ratio of the generated logic.
    pub ff_per_lut: f64,
    /// LUTs added per fused activation.
    pub activation_lut: u64,
    /// LUTs of a softmax drain (exp lookup + divide).
    pub softmax_lut: u64,
    /// DSPs of a softmax drain.
    pub softmax_dsp: u64,
    /// Datamover cost.
    pub datamover: Resources,
    /// AXI/SDAccel infrastructure cost.
    pub infrastructure: Resources,
    /// Congestion coefficient: achievable fmax =
    /// `device_fmax / (1 + lut_total/lut_scale + dsp_total/dsp_scale)`.
    pub lut_scale: f64,
    /// See `lut_scale`.
    pub dsp_scale: f64,
}

impl Default for SynthModel {
    fn default() -> Self {
        SynthModel {
            pe_base_lut: 8_000,
            lut_per_mac: 300,
            dsp_per_mac: 5,
            lut_per_int8_mac: 60,
            converter: Resources::new(1_200, 2_040, 2, 0),
            pool_base_lut: 3_000,
            pool_lut_per_elem: 100,
            filter_lut: 600,
            shallow_fifo_lut: 40,
            bram_fifo_threshold: 16,
            ff_per_lut: 1.7,
            activation_lut: 500,
            softmax_lut: 2_000,
            softmax_dsp: 2,
            datamover: Resources::new(25_000, 42_500, 0, 8),
            infrastructure: Resources::new(30_000, 51_000, 0, 4),
            lut_scale: 1.5e6,
            dsp_scale: 2.0e4,
        }
    }
}

impl SynthModel {
    /// LUTs of one spatially-unrolled MAC at the given precision.
    pub fn mac_lut(&self, precision: Precision) -> u64 {
        match precision {
            Precision::F32 => self.lut_per_mac,
            Precision::Int8 => self.lut_per_int8_mac,
        }
    }

    /// DSP slices for `macs` spatially-unrolled MACs at the given
    /// precision. Floating point burns [`SynthModel::dsp_per_mac`] per
    /// MAC; one DSP48E2 packs **two** int8 multiplies (the 27×18
    /// pre-adder trick), so INT8 pays one slice per MAC pair.
    pub fn mac_dsp(&self, precision: Precision, macs: u64) -> u64 {
        match precision {
            Precision::F32 => self.dsp_per_mac * macs,
            Precision::Int8 => macs.div_ceil(2),
        }
    }

    /// Estimates one PE (compute logic + its weight/partial buffers).
    ///
    /// INT8 PEs pay fewer DSPs per MAC and store weights at one byte per
    /// word; bias and partial-sum buffers keep their 32-bit accumulator
    /// width regardless of precision.
    fn synthesize_pe(&self, pe: &PePlan) -> ModuleSynthesis {
        let p = pe.parallelism;
        // Weight/stream word width; accumulators are always 4 bytes.
        let wbyte = pe.precision.bytes_per_word();
        let mut lut: u64 = 0;
        let mut dsp: u64 = 0;
        let mut bram: u64 = 0;
        let mut is_pool_only = true;

        for l in &pe.layers {
            match l.kind {
                LayerKind::Convolution {
                    num_output,
                    kernel,
                    bias,
                    ..
                } => {
                    is_pool_only = false;
                    let macs = (kernel * kernel * p.parallel_in * p.parallel_out) as u64;
                    lut += self.mac_lut(pe.precision) * macs;
                    dsp += self.mac_dsp(pe.precision, macs);
                    // Convolution weights are *streamed* from the
                    // datamover per output-map group ("each PE also
                    // communicates with our custom datamover to receive
                    // the weights"): only a double-buffered working set
                    // of C·K²·P_out coefficients lives on chip. The
                    // stream overlaps compute (C·K² ≤ C·H_out·W_out).
                    let ws_bytes =
                        (2 * l.input.c * kernel * kernel * p.parallel_out * wbyte) as u64;
                    bram += Resources::bram_tiles_for_bytes(ws_bytes).max(1);
                    if bias {
                        bram += Resources::bram_tiles_for_bytes((num_output * 4) as u64).max(1);
                    }
                    // Partial-result buffer: one output map group.
                    let pbytes = (l.output.h * l.output.w * p.parallel_out * 4) as u64;
                    bram += Resources::bram_tiles_for_bytes(pbytes).max(1);
                }
                LayerKind::Pooling { kernel, method, .. } => {
                    lut += self.pool_lut_per_elem * (kernel * kernel * p.parallel_in) as u64;
                    if matches!(method, condor_nn::PoolKind::Average) {
                        dsp += 2 * p.parallel_in as u64;
                    }
                }
                LayerKind::InnerProduct { num_output, bias } => {
                    is_pool_only = false;
                    let macs = p.fc_simd as u64;
                    lut += self.mac_lut(pe.precision) * macs;
                    dsp += self.mac_dsp(pe.precision, macs);
                    // The current FC methodology buffers the whole weight
                    // matrix on chip — this is precisely why "the
                    // fully-connected layers of VGG-16 would not be
                    // synthesizable with the current methodology" (the
                    // paper's own limitation, reproduced faithfully).
                    let wbytes = (l.input.item_len() * num_output * wbyte) as u64;
                    bram += Resources::bram_tiles_for_bytes(wbytes).max(1);
                    if bias {
                        bram += Resources::bram_tiles_for_bytes((num_output * 4) as u64).max(1);
                    }
                }
                LayerKind::ReLU { .. } | LayerKind::Sigmoid | LayerKind::TanH => {
                    lut += self.activation_lut;
                }
                LayerKind::Softmax { .. } => {
                    lut += self.softmax_lut;
                    dsp += self.softmax_dsp;
                }
                // Stream merges are routing plus at most one ALU op per
                // lane — costed like an activation stage, with DSPs only
                // for the multiplying Eltwise variant.
                LayerKind::Concat | LayerKind::Eltwise { .. } => {
                    lut += self.activation_lut;
                    if matches!(
                        l.kind,
                        LayerKind::Eltwise {
                            op: condor_nn::EltwiseOp::Prod
                        }
                    ) {
                        dsp += 2 * p.parallel_in as u64;
                    }
                }
                LayerKind::Input => {}
            }
        }
        lut += if is_pool_only {
            self.pool_base_lut
        } else {
            self.pe_base_lut
        };
        // Two AXI-stream endpoints per PE.
        bram += 2;
        let ff = (lut as f64 * self.ff_per_lut) as u64;
        ModuleSynthesis {
            name: pe.name.clone(),
            kind: ModuleKind::Pe,
            resources: Resources::new(lut, ff, dsp, bram),
        }
    }

    /// Estimates the filter chains feeding one PE (paper step 3b/3c).
    ///
    /// Line FIFOs hold activation stream words, so an INT8 PE's chains
    /// buffer one byte per element — deep row FIFOs shrink accordingly.
    pub fn synthesize_filter_chain(&self, pe: &PePlan) -> Option<ModuleSynthesis> {
        let needs_chain = pe.layers.iter().any(|l| l.needs_filter_chain());
        if !needs_chain {
            return None;
        }
        let wbyte = pe.precision.bytes_per_word();
        let pipelines = pe.parallelism.parallel_in as u64;
        let filters = pe.filters_per_pipeline() as u64;
        let mut lut = self.filter_lut * filters * pipelines;
        let mut bram = 0u64;
        for depth in pe.fifo_depths() {
            if depth > self.bram_fifo_threshold {
                bram += pipelines * Resources::bram_tiles_for_bytes((depth * wbyte) as u64).max(1);
            } else {
                lut += self.shallow_fifo_lut * pipelines;
            }
        }
        let ff = (lut as f64 * self.ff_per_lut) as u64;
        Some(ModuleSynthesis {
            name: format!("{}_filters", pe.name),
            kind: ModuleKind::FilterChain,
            resources: Resources::new(lut, ff, 0, bram),
        })
    }

    /// Achievable clock for a design of the given total size.
    fn achievable_fmax(&self, device: &Device, total: &Resources) -> f64 {
        device.fmax_mhz
            / (1.0 + total.lut as f64 / self.lut_scale + total.dsp as f64 / self.dsp_scale)
    }
}

/// Runs the synthesis model over a whole plan.
pub fn synthesize_plan(plan: &AcceleratorPlan, device: &Device) -> PlanSynthesis {
    let model = SynthModel::default();
    let mut modules = Vec::new();
    for pe in &plan.pes {
        modules.push(model.synthesize_pe(pe));
        if let Some(chain) = model.synthesize_filter_chain(pe) {
            modules.push(chain);
        }
        // Mixed-precision inter-PE edges need a converter stage on the
        // stream (requantize on f32→int8, dequantize on int8→f32).
        for &src in &pe.inputs {
            if plan.pes[src].precision != pe.precision {
                modules.push(ModuleSynthesis {
                    name: format!("{}_to_{}_cvt", plan.pes[src].name, pe.name),
                    kind: ModuleKind::Converter,
                    resources: model.converter,
                });
            }
        }
    }
    modules.push(ModuleSynthesis {
        name: "datamover".to_string(),
        kind: ModuleKind::Datamover,
        resources: model.datamover,
    });
    modules.push(ModuleSynthesis {
        name: "sdaccel_infra".to_string(),
        kind: ModuleKind::Infrastructure,
        resources: model.infrastructure,
    });
    let total: Resources = modules.iter().map(|m| m.resources).sum();
    let achievable = model.achievable_fmax(device, &total);
    PlanSynthesis {
        modules,
        total,
        achieved_fmax_mhz: plan.freq_mhz.min(achievable),
        requested_fmax_mhz: plan.freq_mhz,
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use condor_dataflow::{PeParallelism, PlanBuilder};
    use condor_fpga::device;
    use condor_nn::zoo;

    fn vu9p() -> &'static Device {
        device("xcvu9p").unwrap()
    }

    fn table1_plan(net: &condor_nn::Network, freq: f64) -> AcceleratorPlan {
        PlanBuilder::new(net)
            .freq_mhz(freq)
            .parallelism(PeParallelism {
                parallel_in: 1,
                parallel_out: 1,
                fc_simd: 2,
            })
            .build()
            .unwrap()
    }

    #[test]
    fn tc1_lands_near_table1_utilisation() {
        let net = zoo::tc1();
        let plan = table1_plan(&net, 100.0);
        let synth = synthesize_plan(&plan, vu9p());
        let u = synth.total.utilization(&vu9p().capacity);
        // Paper: LUT 10.47 %, DSP 5.63 %, BRAM 0.97 %. The model must land
        // in the same band (half/double).
        assert!((5.0..21.0).contains(&u.lut_pct), "LUT {u}");
        assert!((1.5..12.0).contains(&u.dsp_pct), "DSP {u}");
        assert!((0.4..3.0).contains(&u.bram_pct), "BRAM {u}");
        assert!(u.feasible());
    }

    #[test]
    fn lenet_is_bram_heavy_like_table1() {
        let tc1 = table1_plan(&zoo::tc1(), 100.0);
        let lenet = table1_plan(&zoo::lenet(), 180.0);
        let s_tc1 = synthesize_plan(&tc1, vu9p());
        let s_lenet = synthesize_plan(&lenet, vu9p());
        let u_tc1 = s_tc1.total.utilization(&vu9p().capacity);
        let u_lenet = s_lenet.total.utilization(&vu9p().capacity);
        // The paper's strongest resource signal: LeNet BRAM (24.4 %) vs
        // TC1 BRAM (0.97 %) — an order of magnitude apart.
        assert!(u_lenet.bram_pct > 10.0 * u_tc1.bram_pct);
        assert!((10.0..40.0).contains(&u_lenet.bram_pct), "{u_lenet}");
    }

    #[test]
    fn requested_clock_is_met_for_small_designs() {
        let plan = table1_plan(&zoo::lenet(), 180.0);
        let synth = synthesize_plan(&plan, vu9p());
        assert_eq!(synth.achieved_fmax_mhz, 180.0);
        let plan = table1_plan(&zoo::tc1(), 100.0);
        let synth = synthesize_plan(&plan, vu9p());
        assert_eq!(synth.achieved_fmax_mhz, 100.0);
    }

    #[test]
    fn huge_parallelism_degrades_clock() {
        let net = zoo::vgg16();
        let fe = net.feature_extraction_prefix().unwrap();
        let plan = PlanBuilder::new(&fe)
            .freq_mhz(300.0)
            .parallelism(PeParallelism {
                parallel_in: 16,
                parallel_out: 16,
                fc_simd: 1,
            })
            .build()
            .unwrap();
        let synth = synthesize_plan(&plan, vu9p());
        assert!(synth.achieved_fmax_mhz < 300.0);
        assert!(synth.achieved_fmax_mhz > 0.0);
    }

    #[test]
    fn parallelism_multiplies_dsp() {
        let net = zoo::lenet();
        let seq = PlanBuilder::new(&net).build().unwrap();
        let par = PlanBuilder::new(&net)
            .parallelism(PeParallelism {
                parallel_in: 2,
                parallel_out: 2,
                fc_simd: 1,
            })
            .build()
            .unwrap();
        let s_seq = synthesize_plan(&seq, vu9p());
        let s_par = synthesize_plan(&par, vu9p());
        assert!(s_par.total.dsp > 2 * s_seq.total.dsp);
    }

    #[test]
    fn fusion_reduces_resources() {
        let net = zoo::lenet();
        let unfused = PlanBuilder::new(&net).build().unwrap();
        let fused = PlanBuilder::new(&net).fusion(10).build().unwrap();
        let s_unfused = synthesize_plan(&unfused, vu9p());
        let s_fused = synthesize_plan(&fused, vu9p());
        assert!(s_fused.total.lut < s_unfused.total.lut);
        assert!(s_fused.total.dsp <= s_unfused.total.dsp);
    }

    #[test]
    fn deep_fifos_take_bram_shallow_take_lut() {
        let net = zoo::lenet();
        let plan = PlanBuilder::new(&net).build().unwrap();
        let model = SynthModel::default();
        // conv1 chain on a 28-wide image: row FIFOs depth 24 > 16 → BRAM.
        let conv1_chain = model.synthesize_filter_chain(&plan.pes[0]).unwrap();
        assert!(conv1_chain.resources.bram_36k >= 4);
        // conv2 chain on a 12-wide image: depth 8 ≤ 16 → no BRAM.
        let conv2_chain = model.synthesize_filter_chain(&plan.pes[2]).unwrap();
        assert_eq!(conv2_chain.resources.bram_36k, 0);
        // FC PEs have no chain at all.
        assert!(model.synthesize_filter_chain(&plan.pes[4]).is_none());
    }

    #[test]
    fn int8_halves_dsp_and_shrinks_weight_bram() {
        let net = zoo::lenet();
        let f32_plan = PlanBuilder::new(&net)
            .parallelism(PeParallelism {
                parallel_in: 2,
                parallel_out: 2,
                fc_simd: 2,
            })
            .build()
            .unwrap();
        let int8_plan = PlanBuilder::new(&net)
            .parallelism(PeParallelism {
                parallel_in: 2,
                parallel_out: 2,
                fc_simd: 2,
            })
            .precision(Precision::Int8)
            .build()
            .unwrap();
        let s_f32 = synthesize_plan(&f32_plan, vu9p());
        let s_int8 = synthesize_plan(&int8_plan, vu9p());
        // 5 DSP per f32 MAC vs 1 per int8 MAC pair: an order of
        // magnitude, modulo the precision-independent softmax/pool DSPs.
        assert!(
            s_int8.total.dsp * 5 < s_f32.total.dsp,
            "int8 {} vs f32 {}",
            s_int8.total.dsp,
            s_f32.total.dsp
        );
        // LeNet is dominated by ip1's on-chip weight matrix: one byte
        // per int8 word cuts the BRAM footprint.
        assert!(
            s_int8.total.bram_36k < s_f32.total.bram_36k,
            "int8 {} vs f32 {}",
            s_int8.total.bram_36k,
            s_f32.total.bram_36k
        );
        assert!(s_int8.total.lut < s_f32.total.lut);
    }

    #[test]
    fn mixed_precision_edges_get_converters() {
        let net = zoo::lenet();
        // conv2's PE runs int8 inside an otherwise-f32 pipeline: its
        // input edge (pool1 → conv2) and output edge (conv2 → pool2)
        // both cross precisions.
        let plan = PlanBuilder::new(&net)
            .layer_precision("conv2", Precision::Int8)
            .build()
            .unwrap();
        let synth = synthesize_plan(&plan, vu9p());
        let cvts: Vec<&str> = synth
            .modules
            .iter()
            .filter(|m| m.kind == ModuleKind::Converter)
            .map(|m| m.name.as_str())
            .collect();
        assert_eq!(cvts, ["pe1_to_pe2_cvt", "pe2_to_pe3_cvt"]);
        // Uniform plans — either precision — need no converters.
        for plan in [
            PlanBuilder::new(&net).build().unwrap(),
            PlanBuilder::new(&net)
                .precision(Precision::Int8)
                .build()
                .unwrap(),
        ] {
            let synth = synthesize_plan(&plan, vu9p());
            assert!(synth
                .modules
                .iter()
                .all(|m| m.kind != ModuleKind::Converter));
        }
    }

    #[test]
    fn module_inventory_is_complete() {
        let plan = table1_plan(&zoo::lenet(), 180.0);
        let synth = synthesize_plan(&plan, vu9p());
        let pes = synth
            .modules
            .iter()
            .filter(|m| m.kind == ModuleKind::Pe)
            .count();
        assert_eq!(pes, plan.pes.len());
        assert_eq!(
            synth
                .modules
                .iter()
                .filter(|m| m.kind == ModuleKind::Datamover)
                .count(),
            1
        );
        let sum: Resources = synth.modules.iter().map(|m| m.resources).sum();
        assert_eq!(sum, synth.total);
    }
}
