//! Static pre-filter for design-space exploration.
//!
//! The DSE sweeps a cross-product of parallelism degrees, fusion
//! factors and clocks; each point costs a plan build, a synthesis pass
//! and a pipeline evaluation. Many points are *statically* hopeless —
//! most famously any point of VGG-16, whose fully-connected layers
//! buffer the whole weight matrix on chip. This module computes, from
//! one shape-inference walk over the network, a **sound lower bound**
//! on the resources any plan with a given parallelism directive must
//! consume, for *every* fusion factor and clock:
//!
//! * per-layer compute terms use `min(directive, feature maps)` — the
//!   builder clamps per PE to the *maximum* over fused layers, which is
//!   never below the per-layer value, so the bound cannot exceed the
//!   real cost;
//! * fusion only merges PE base costs, so the bound charges one base
//!   per stage present, and one filter chain at the largest window;
//! * datamover and platform infrastructure are always instantiated.
//!
//! A point whose lower bound already exceeds the board budget is pruned
//! without building or simulating anything.

use condor_dataflow::{PeParallelism, Precision};
use condor_fpga::Resources;
use condor_hls::SynthModel;
use condor_nn::{LayerKind, Network, NnError, PoolKind};

/// Per-layer facts the bound needs, extracted once per network.
#[derive(Clone, Debug)]
enum LayerBound {
    Conv {
        in_c: usize,
        out_maps: usize,
        kernel: usize,
        bias: bool,
        out_hw: usize,
    },
    Pool {
        in_c: usize,
        kernel: usize,
        average: bool,
    },
    Fc {
        in_len: usize,
        out: usize,
        bias: bool,
    },
    Activation,
    Softmax,
}

/// Fusion- and clock-independent resource lower bounds for one network.
#[derive(Clone, Debug)]
pub struct PlanBounds {
    layers: Vec<LayerBound>,
    /// Largest sliding window in the network (0 if none).
    max_window: usize,
    /// True when some MAC-bearing layer (conv or FC) exists, so at
    /// least one PE carries the full (non-pooling) base cost.
    has_mac_pe: bool,
}

impl PlanBounds {
    /// Extracts the bound inputs with a single shape-inference walk.
    pub fn analyze(net: &Network) -> Result<PlanBounds, NnError> {
        let ins = net.input_shapes()?;
        let mut layers = Vec::new();
        let mut max_window = 0usize;
        let mut has_mac_pe = false;
        for (layer, input) in net.layers.iter().zip(&ins) {
            match layer.kind {
                LayerKind::Convolution {
                    num_output,
                    kernel,
                    bias,
                    ..
                } => {
                    let out = layer
                        .kind
                        .output_shape(*input)
                        .map_err(|e| NnError::shape(&layer.name, e))?;
                    layers.push(LayerBound::Conv {
                        in_c: input.c,
                        out_maps: num_output,
                        kernel,
                        bias,
                        out_hw: out.h * out.w,
                    });
                    max_window = max_window.max(kernel);
                    has_mac_pe = true;
                }
                LayerKind::Pooling { kernel, method, .. } => {
                    layers.push(LayerBound::Pool {
                        in_c: input.c,
                        kernel,
                        average: matches!(method, PoolKind::Average),
                    });
                    max_window = max_window.max(kernel);
                }
                LayerKind::InnerProduct { num_output, bias } => {
                    layers.push(LayerBound::Fc {
                        in_len: input.item_len(),
                        out: num_output,
                        bias,
                    });
                    has_mac_pe = true;
                }
                LayerKind::ReLU { .. } | LayerKind::Sigmoid | LayerKind::TanH => {
                    layers.push(LayerBound::Activation);
                }
                // Stream merges synthesize to routing plus at most one
                // ALU op per lane — the synth model charges them exactly
                // one activation-stage worth of LUTs (plus DSPs only for
                // the multiplying Eltwise, which the bound soundly
                // under-counts at zero).
                LayerKind::Concat | LayerKind::Eltwise { .. } => {
                    layers.push(LayerBound::Activation);
                }
                LayerKind::Softmax { .. } => {
                    layers.push(LayerBound::Softmax);
                }
                LayerKind::Input => {}
            }
        }
        Ok(PlanBounds {
            layers,
            max_window,
            has_mac_pe,
        })
    }

    /// Sound lower bound on the synthesis estimate of *any* plan built
    /// from this network with parallelism directive `p` at datapath
    /// `precision`, under the default [`SynthModel`]. Narrowing to INT8 widens the feasible
    /// region the DSE explores: one DSP48E2 packs two int8 MACs and
    /// weight buffers shrink to a byte per word, so points the f32 bound
    /// prunes can survive at int8.
    pub fn lower_bound(&self, p: PeParallelism, precision: Precision) -> Resources {
        let model = SynthModel::default();
        let wbyte = precision.bytes_per_word();
        let mut lut: u64 = 0;
        let mut dsp: u64 = 0;
        let mut bram: u64 = 0;
        for l in &self.layers {
            match *l {
                LayerBound::Conv {
                    in_c,
                    out_maps,
                    kernel,
                    bias,
                    out_hw,
                } => {
                    // The builder clamp is min(directive, max over the
                    // PE's layers) >= min(directive, this layer's maps).
                    let pin = p.parallel_in.min(in_c.max(1));
                    let pout = p.parallel_out.min(out_maps.max(1));
                    let macs = (kernel * kernel * pin * pout) as u64;
                    lut += model.mac_lut(precision) * macs;
                    dsp += model.mac_dsp(precision, macs);
                    let ws_bytes = (2 * in_c * kernel * kernel * pout * wbyte) as u64;
                    bram += Resources::bram_tiles_for_bytes(ws_bytes).max(1);
                    if bias {
                        bram += Resources::bram_tiles_for_bytes((out_maps * 4) as u64).max(1);
                    }
                    bram += Resources::bram_tiles_for_bytes((out_hw * pout * 4) as u64).max(1);
                }
                LayerBound::Pool {
                    in_c,
                    kernel,
                    average,
                } => {
                    let pin = p.parallel_in.min(in_c.max(1));
                    lut += model.pool_lut_per_elem * (kernel * kernel * pin) as u64;
                    if average {
                        dsp += 2 * pin as u64;
                    }
                }
                LayerBound::Fc { in_len, out, bias } => {
                    // The whole weight matrix lives on chip regardless
                    // of fusion — the VGG-16 killer.
                    let macs = p.fc_simd as u64;
                    lut += model.mac_lut(precision) * macs;
                    dsp += model.mac_dsp(precision, macs);
                    bram += Resources::bram_tiles_for_bytes((in_len * out * wbyte) as u64).max(1);
                    if bias {
                        bram += Resources::bram_tiles_for_bytes((out * 4) as u64).max(1);
                    }
                }
                LayerBound::Activation => lut += model.activation_lut,
                LayerBound::Softmax => {
                    lut += model.softmax_lut;
                    dsp += model.softmax_dsp;
                }
            }
        }
        // At least one PE exists however aggressive the fusion; a PE
        // hosting a MAC-bearing layer carries the full base cost,
        // anything else at least the pooling base. Two AXI-stream
        // endpoints come with it.
        if !self.layers.is_empty() {
            lut += if self.has_mac_pe {
                model.pe_base_lut
            } else {
                model.pool_base_lut
            };
            bram += 2;
        }
        // At least one filter chain at the largest window, one pipeline.
        if self.max_window > 1 {
            lut += model.filter_lut * (self.max_window * self.max_window) as u64;
        }
        let ff = (lut as f64 * model.ff_per_lut) as u64;
        Resources::new(lut, ff, dsp, bram) + model.datamover + model.infrastructure
    }

    /// `Some(reason)` when no plan with directive `p` can fit `budget`
    /// — the DSE prunes such points without simulating. The reason
    /// always mentions the budget so reports stay grep-able.
    pub fn infeasible_reason(
        &self,
        p: PeParallelism,
        precision: Precision,
        budget: &Resources,
    ) -> Option<String> {
        let lb = self.lower_bound(p, precision);
        if lb.fits_in(budget) {
            None
        } else {
            Some(format!(
                "statically pruned: resource lower bound ({lb}) exceeds board budget ({budget})"
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use condor_dataflow::PlanBuilder;
    use condor_hls::synthesize_plan;
    use condor_nn::zoo;

    fn f1_budget() -> Resources {
        condor_fpga::board("aws-f1").unwrap().usable_resources()
    }

    /// The load-bearing property: the bound never exceeds the real
    /// synthesis estimate, for any fusion, parallelism and precision
    /// tried.
    #[test]
    fn bound_is_sound_across_fusion_parallelism_and_precision() {
        for net in [zoo::tc1(), zoo::lenet(), zoo::vgg16()] {
            let bounds = PlanBounds::analyze(&net).unwrap();
            let device = condor_fpga::board("aws-f1").unwrap().device();
            for fusion in [1, 2, 100] {
                for (pin, pout, simd) in [(1, 1, 1), (2, 4, 2), (16, 16, 8)] {
                    for precision in [Precision::F32, Precision::Int8] {
                        let p = PeParallelism {
                            parallel_in: pin,
                            parallel_out: pout,
                            fc_simd: simd,
                        };
                        let plan = PlanBuilder::new(&net)
                            .fusion(fusion)
                            .parallelism(p)
                            .precision(precision)
                            .build()
                            .unwrap();
                        let real = synthesize_plan(&plan, device).total;
                        let lb = bounds.lower_bound(p, precision);
                        assert!(
                            lb.fits_in(&real),
                            "{} fusion {fusion} p=({pin},{pout},{simd}) {precision}: \
                             bound {lb} > real {real}",
                            net.name
                        );
                    }
                }
            }
        }
    }

    /// The acceptance pin for the int8 hardware model: a parallelism
    /// point whose f32 lower bound blows the DSP budget becomes feasible
    /// when the datapath narrows to int8 — the DSE's widened region.
    #[test]
    fn int8_admits_points_f32_rejects_under_the_same_dsp_budget() {
        let bounds = PlanBounds::analyze(&zoo::lenet()).unwrap();
        let p = PeParallelism {
            parallel_in: 8,
            parallel_out: 8,
            fc_simd: 4,
        };
        let f32_lb = bounds.lower_bound(p, Precision::F32);
        let int8_lb = bounds.lower_bound(p, Precision::Int8);
        // Pick a budget strictly between the two DSP bounds: generous
        // everywhere else so DSP is the only binding constraint.
        let budget = Resources::new(u64::MAX, u64::MAX, (int8_lb.dsp + f32_lb.dsp) / 2, u64::MAX);
        assert!(
            bounds
                .infeasible_reason(p, Precision::F32, &budget)
                .is_some(),
            "f32 should be pruned at {} DSPs",
            budget.dsp
        );
        assert!(
            bounds
                .infeasible_reason(p, Precision::Int8, &budget)
                .is_none(),
            "int8 should fit at {} DSPs (bound {})",
            budget.dsp,
            int8_lb.dsp
        );
        // And the int8 point is genuinely buildable + synthesizable
        // within that DSP budget, not just un-pruned.
        let net = zoo::lenet();
        let plan = PlanBuilder::new(&net)
            .parallelism(p)
            .precision(Precision::Int8)
            .build()
            .unwrap();
        let device = condor_fpga::board("aws-f1").unwrap().device();
        let real = synthesize_plan(&plan, device).total;
        assert!(real.dsp <= budget.dsp, "real int8 {} DSPs", real.dsp);
    }

    #[test]
    fn vgg16_is_pruned_on_f1() {
        let bounds = PlanBounds::analyze(&zoo::vgg16()).unwrap();
        let reason = bounds
            .infeasible_reason(PeParallelism::default(), Precision::F32, &f1_budget())
            .expect("VGG-16 FC layers cannot fit on-chip");
        assert!(reason.contains("budget"), "{reason}");
    }

    #[test]
    fn lenet_is_not_pruned_on_f1() {
        let bounds = PlanBounds::analyze(&zoo::lenet()).unwrap();
        assert!(bounds
            .infeasible_reason(PeParallelism::default(), Precision::F32, &f1_budget())
            .is_none());
    }

    #[test]
    fn lenet_extreme_parallelism_pruned_on_pynq() {
        let bounds = PlanBounds::analyze(&zoo::lenet()).unwrap();
        let budget = condor_fpga::board("pynq-z1").unwrap().usable_resources();
        let p = PeParallelism {
            parallel_in: 16,
            parallel_out: 16,
            fc_simd: 1,
        };
        let reason = bounds.infeasible_reason(p, Precision::F32, &budget);
        assert!(reason.is_some());
    }

    #[test]
    fn bound_grows_with_parallelism() {
        let bounds = PlanBounds::analyze(&zoo::lenet()).unwrap();
        let lo = bounds.lower_bound(PeParallelism::default(), Precision::F32);
        let hi = bounds.lower_bound(
            PeParallelism {
                parallel_in: 8,
                parallel_out: 8,
                fc_simd: 4,
            },
            Precision::F32,
        );
        assert!(hi.dsp > lo.dsp);
        assert!(hi.lut > lo.lut);
    }
}
