//! Design-space exploration (flow step 2).
//!
//! "The accelerator has the ability to exploit different level of
//! parallelism. In this phase, given the available FPGA resources,
//! different configurations are explored to find the optimal tradeoff
//! between resource consumption and performance. This phase is still not
//! automated and therefore requires human intervention, but in the
//! future, it will be performed automatically relying on resource
//! consumption and performance models."
//!
//! This module implements that future work: it sweeps fusion ×
//! parallelism × clock candidates, prices each point with the synthesis
//! model (resources, achievable clock) and the plan cycle model
//! (initiation interval → GFLOPS), discards infeasible points and ranks
//! the rest. The manual path remains available by pinning the directives
//! in the network representation.

use crate::error::CondorError;
use condor_check::PlanBounds;
use condor_dataflow::{PeParallelism, PipelineModel, PlanBuilder, Precision};
use condor_fpga::{Board, Resources, Utilization};
use condor_hls::{synthesize_plan, PlanSynthesis};
use condor_nn::Network;

/// Candidate axes of the exploration.
#[derive(Clone, Debug, PartialEq)]
pub struct DseConfig {
    /// Clock candidates in MHz.
    pub freqs_mhz: Vec<f64>,
    /// Fusion factors (computational layers per PE).
    pub fusions: Vec<usize>,
    /// Input-map parallelism candidates.
    pub parallel_in: Vec<usize>,
    /// Output-map parallelism candidates.
    pub parallel_out: Vec<usize>,
    /// FC MAC vector widths.
    pub fc_simd: Vec<usize>,
    /// Datapath precisions to sweep. Defaults to `[F32]` (the paper's
    /// baseline); adding [`Precision::Int8`] lets the exploration trade
    /// accuracy headroom for DSP budget — int8 points pack two MACs per
    /// DSP48E2, so parallelism degrees the f32 bound prunes can survive.
    pub precisions: Vec<Precision>,
    /// Batch size used to evaluate sustained GFLOPS.
    pub eval_batch: usize,
    /// When true (the default), statically-infeasible points are pruned
    /// by `condor_check::PlanBounds` before any plan is built or
    /// simulated. Pruned points still appear in the outcome with their
    /// reason, so the cross-product is always fully reported.
    pub prefilter: bool,
}

impl Default for DseConfig {
    fn default() -> Self {
        DseConfig {
            freqs_mhz: vec![100.0, 150.0, 180.0, 200.0, 250.0],
            fusions: vec![1, 2],
            parallel_in: vec![1, 2, 4, 8],
            parallel_out: vec![1, 2, 4, 8],
            fc_simd: vec![1, 2, 4, 8],
            precisions: vec![Precision::F32],
            eval_batch: 64,
            prefilter: true,
        }
    }
}

/// One evaluated configuration.
#[derive(Clone, Debug)]
pub struct DsePoint {
    /// Fusion factor.
    pub fusion: usize,
    /// Parallelism degrees.
    pub parallelism: PeParallelism,
    /// Datapath precision of every PE at this point.
    pub precision: Precision,
    /// Requested clock.
    pub freq_mhz: f64,
    /// Synthesis estimate.
    pub synthesis: PlanSynthesis,
    /// Utilisation against the board's usable resources.
    pub utilization: Utilization,
    /// Sustained GFLOPS at `eval_batch` and the achieved clock.
    pub gflops: f64,
    /// `None` when the point fits; the binding reason otherwise.
    pub infeasible_reason: Option<String>,
    /// True when the static pre-filter rejected the point before any
    /// plan was built or simulated; `synthesis.total` then holds the
    /// resource *lower bound* rather than a full estimate.
    pub pruned: bool,
}

impl DsePoint {
    /// True when the point fits on the board.
    pub fn feasible(&self) -> bool {
        self.infeasible_reason.is_none()
    }
}

/// Full exploration result.
#[derive(Clone, Debug)]
pub struct DseOutcome {
    /// Every evaluated point.
    pub points: Vec<DsePoint>,
    /// Index of the best feasible point (max GFLOPS, resources as
    /// tie-break), when any point is feasible.
    pub best: Option<usize>,
}

impl DseOutcome {
    /// The best feasible point, or the paper's "would not be
    /// synthesizable" error when none exists.
    pub fn require_best(&self) -> Result<&DsePoint, CondorError> {
        match self.best {
            Some(i) => Ok(&self.points[i]),
            None => {
                let reason = self
                    .points
                    .iter()
                    .filter_map(|p| p.infeasible_reason.as_deref())
                    .next()
                    .unwrap_or("no configurations evaluated");
                Err(CondorError::new(
                    "dse",
                    format!(
                        "network is not synthesizable with the current methodology on this \
                         board: {reason}"
                    ),
                ))
            }
        }
    }

    /// Feasible points, best first.
    pub fn feasible_ranked(&self) -> Vec<&DsePoint> {
        let mut pts: Vec<&DsePoint> = self.points.iter().filter(|p| p.feasible()).collect();
        pts.sort_by(|a, b| b.gflops.total_cmp(&a.gflops));
        pts
    }
}

/// Evaluates one configuration; `flops` is the network's FLOPs per
/// image.
#[allow(clippy::too_many_arguments)]
fn evaluate(
    net: &Network,
    flops: u64,
    board: &Board,
    fusion: usize,
    parallelism: PeParallelism,
    precision: Precision,
    freq_mhz: f64,
    eval_batch: usize,
) -> Result<DsePoint, CondorError> {
    let mut plan = PlanBuilder::new(net)
        .board(board.name)
        .freq_mhz(freq_mhz)
        .fusion(fusion)
        .parallelism(parallelism)
        .precision(precision)
        .build()?;
    let device = board.device();
    let synthesis = synthesize_plan(&plan, device);
    let budget = board.usable_resources();
    let utilization = synthesis.total.utilization(&budget);
    let infeasible_reason = if !synthesis.total.fits_in(&budget) {
        Some(format!(
            "resources exceed the usable budget of {} ({}): needs {}",
            board.name, board.device, synthesis.total
        ))
    } else {
        None
    };
    // Timing at the achieved clock.
    plan.freq_mhz = synthesis.achieved_fmax_mhz;
    let gflops = PipelineModel::from_plan(&plan).gflops(flops, eval_batch);
    Ok(DsePoint {
        fusion,
        parallelism,
        precision,
        freq_mhz,
        synthesis,
        utilization,
        gflops,
        infeasible_reason,
        pruned: false,
    })
}

/// Builds the record of a statically-pruned point: no plan, no
/// simulation — the synthesis slot carries the lower bound itself so
/// reports can still show how far over budget the point was.
fn pruned_point(
    fusion: usize,
    parallelism: PeParallelism,
    precision: Precision,
    freq_mhz: f64,
    bounds: &PlanBounds,
    budget: &Resources,
    reason: String,
) -> DsePoint {
    let lb = bounds.lower_bound(parallelism, precision);
    DsePoint {
        fusion,
        parallelism,
        precision,
        freq_mhz,
        synthesis: PlanSynthesis {
            modules: Vec::new(),
            total: lb,
            achieved_fmax_mhz: 0.0,
            requested_fmax_mhz: freq_mhz,
        },
        utilization: lb.utilization(budget),
        gflops: 0.0,
        infeasible_reason: Some(reason),
        pruned: true,
    }
}

/// Sweeps the configured candidate space, one point after another in
/// the order of the axes (fusion outermost, clock innermost).
pub fn explore(net: &Network, board: &Board, cfg: &DseConfig) -> Result<DseOutcome, CondorError> {
    let mut combos = Vec::new();
    for &fusion in &cfg.fusions {
        for &pi in &cfg.parallel_in {
            for &po in &cfg.parallel_out {
                for &simd in &cfg.fc_simd {
                    for &precision in &cfg.precisions {
                        for &f in &cfg.freqs_mhz {
                            combos.push((
                                fusion,
                                PeParallelism {
                                    parallel_in: pi,
                                    parallel_out: po,
                                    fc_simd: simd,
                                },
                                precision,
                                f,
                            ));
                        }
                    }
                }
            }
        }
    }
    if combos.is_empty() {
        return Err(CondorError::new("dse", "empty candidate space"));
    }
    // Static pre-filter: one shape-inference walk bounds the resources
    // of every candidate parallelism from below, so hopeless points
    // (most famously all of VGG-16) skip plan building and simulation.
    let bounds = if cfg.prefilter {
        Some(PlanBounds::analyze(net)?)
    } else {
        None
    };
    let budget = board.usable_resources();
    let flops = net.total_flops()?;
    let points: Vec<DsePoint> = combos
        .iter()
        .map(|&(fusion, par, precision, freq)| {
            if let Some(b) = &bounds {
                if let Some(reason) = b.infeasible_reason(par, precision, &budget) {
                    return Ok(pruned_point(
                        fusion, par, precision, freq, b, &budget, reason,
                    ));
                }
            }
            evaluate(
                net,
                flops,
                board,
                fusion,
                par,
                precision,
                freq,
                cfg.eval_batch,
            )
        })
        .collect::<Result<Vec<_>, _>>()?;

    let best = points
        .iter()
        .enumerate()
        .filter(|(_, p)| p.feasible())
        .max_by(|(_, a), (_, b)| {
            a.gflops
                .total_cmp(&b.gflops)
                // Tie-break: fewer LUTs wins.
                .then(b.synthesis.total.lut.cmp(&a.synthesis.total.lut))
        })
        .map(|(i, _)| i);
    Ok(DseOutcome { points, best })
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use condor_fpga::board;
    use condor_nn::zoo;

    fn f1() -> &'static Board {
        board("aws-f1").unwrap()
    }

    fn small_cfg() -> DseConfig {
        DseConfig {
            freqs_mhz: vec![100.0, 200.0],
            fusions: vec![1, 2],
            parallel_in: vec![1, 2],
            parallel_out: vec![1, 2],
            fc_simd: vec![1, 2],
            precisions: vec![Precision::F32],
            eval_batch: 32,
            prefilter: true,
        }
    }

    #[test]
    fn lenet_exploration_finds_feasible_best() {
        let net = zoo::lenet();
        let outcome = explore(&net, f1(), &small_cfg()).unwrap();
        assert_eq!(outcome.points.len(), 2 * 2 * 2 * 2 * 2);
        let best = outcome.require_best().unwrap();
        assert!(best.feasible());
        assert!(best.gflops > 0.0);
        // Best must dominate every other feasible point on GFLOPS.
        for p in outcome.feasible_ranked() {
            assert!(best.gflops >= p.gflops);
        }
    }

    #[test]
    fn more_parallelism_more_gflops_for_lenet() {
        let net = zoo::lenet();
        let outcome = explore(&net, f1(), &small_cfg()).unwrap();
        let seq = outcome
            .points
            .iter()
            .find(|p| {
                p.fusion == 1
                    && p.parallelism
                        == PeParallelism {
                            parallel_in: 1,
                            parallel_out: 1,
                            fc_simd: 1,
                        }
                    && p.freq_mhz == 200.0
            })
            .unwrap();
        let par = outcome
            .points
            .iter()
            .find(|p| {
                p.fusion == 1
                    && p.parallelism
                        == PeParallelism {
                            parallel_in: 2,
                            parallel_out: 2,
                            fc_simd: 2,
                        }
                    && p.freq_mhz == 200.0
            })
            .unwrap();
        assert!(par.gflops > seq.gflops);
        assert!(par.synthesis.total.dsp > seq.synthesis.total.dsp);
    }

    #[test]
    fn vgg16_full_network_is_not_synthesizable() {
        // The paper: "the fully-connected layers of VGG-16 would not be
        // synthesizable with the current methodology" — fc6's 100M+
        // weights cannot be buffered on chip.
        let net = zoo::vgg16();
        let outcome = explore(&net, f1(), &small_cfg()).unwrap();
        let err = outcome.require_best().unwrap_err();
        assert_eq!(err.tier, "dse");
        assert!(err.message.contains("not synthesizable"));
    }

    #[test]
    fn vgg16_feature_extraction_is_synthesizable() {
        let net = zoo::vgg16().feature_extraction_prefix().unwrap();
        let outcome = explore(&net, f1(), &small_cfg()).unwrap();
        assert!(outcome.require_best().is_ok());
    }

    #[test]
    fn tiny_board_rejects_big_designs() {
        // Nothing fits a Zynq-7020 once the SDAccel shell and datamover
        // overhead is paid — the methodology targets datacenter parts.
        let net = zoo::lenet();
        let pynq = board("pynq-z1").unwrap();
        let outcome = explore(&net, pynq, &small_cfg()).unwrap();
        assert!(outcome.require_best().is_err());
        // A mid-size Virtex-7 board hosts TC1 comfortably.
        let tc1 = zoo::tc1();
        let vc709 = board("vc709").unwrap();
        let outcome = explore(&tc1, vc709, &small_cfg()).unwrap();
        assert!(outcome.require_best().is_ok());
    }

    #[test]
    fn precision_axis_doubles_the_sweep_and_int8_halves_dsp() {
        let cfg = DseConfig {
            precisions: vec![Precision::F32, Precision::Int8],
            ..small_cfg()
        };
        let net = zoo::lenet();
        let outcome = explore(&net, f1(), &cfg).unwrap();
        assert_eq!(outcome.points.len(), 2 * 2 * 2 * 2 * 2 * 2);
        // At every shared (fusion, parallelism, freq) coordinate the int8
        // point must spend strictly fewer DSPs than its f32 twin.
        for p in outcome
            .points
            .iter()
            .filter(|p| p.precision == Precision::Int8)
        {
            let twin = outcome
                .points
                .iter()
                .find(|q| {
                    q.precision == Precision::F32
                        && q.fusion == p.fusion
                        && q.parallelism == p.parallelism
                        && q.freq_mhz == p.freq_mhz
                })
                .unwrap();
            assert!(p.synthesis.total.dsp < twin.synthesis.total.dsp);
        }
    }

    #[test]
    fn empty_candidate_space_is_an_error() {
        let cfg = DseConfig {
            freqs_mhz: vec![],
            ..small_cfg()
        };
        assert!(explore(&zoo::tc1(), f1(), &cfg).is_err());
    }

    #[test]
    fn infeasible_points_carry_reasons() {
        let net = zoo::vgg16();
        let outcome = explore(&net, f1(), &small_cfg()).unwrap();
        for p in &outcome.points {
            assert!(!p.feasible());
            assert!(p.infeasible_reason.as_ref().unwrap().contains("budget"));
        }
    }

    #[test]
    fn prefilter_prunes_without_changing_the_answer() {
        let no_prefilter = DseConfig {
            prefilter: false,
            ..small_cfg()
        };
        // Feasible networks: same verdicts and same winner either way.
        for net in [zoo::lenet(), zoo::tc1()] {
            let on = explore(&net, f1(), &small_cfg()).unwrap();
            let off = explore(&net, f1(), &no_prefilter).unwrap();
            assert_eq!(on.points.len(), off.points.len());
            for (a, b) in on.points.iter().zip(&off.points) {
                assert_eq!(a.feasible(), b.feasible(), "{}", net.name);
            }
            assert_eq!(on.best, off.best, "{}", net.name);
        }
        // Hopeless network: every point is pruned statically, none is
        // simulated, and the verdict matches the unfiltered sweep.
        let net = zoo::vgg16();
        let on = explore(&net, f1(), &small_cfg()).unwrap();
        assert!(on.points.iter().all(|p| p.pruned && !p.feasible()));
        let off = explore(&net, f1(), &no_prefilter).unwrap();
        assert!(off.points.iter().all(|p| !p.pruned && !p.feasible()));
    }
}
