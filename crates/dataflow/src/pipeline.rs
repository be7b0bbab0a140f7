//! Image-granularity pipeline timing model (paper Figure 5).
//!
//! "The PEs are arranged as a high-level pipeline where the output of a
//! PE is the input to the next one" — so while PE *k* processes image
//! *i*, PE *k−1* already works on image *i+1*. The paper observes that
//! "the mean time to process an image decreases as we increase the batch
//! size, until convergence is reached … approximately when the batch size
//! is bigger than the total number of layers of the network".
//!
//! This model reproduces that curve from the plan's per-stage cycle
//! counts with the classic pipeline recurrence generalised to a DAG of
//! stages, `finish[s][i] = max(max over preds p of finish[p][i],
//! finish[s][i−1]) + c_s`: the mean per-image time starts at the full
//! pipeline latency (batch 1) and converges to the initiation interval
//! (the slowest stage) as the batch grows. On fork/join plans the two
//! branches of a fork process the *same* image concurrently, so the
//! single-image latency is the critical path through the stage graph,
//! not the sum of all stages — while the initiation interval is still
//! set by the slowest stage alone.

use crate::plan::AcceleratorPlan;
use condor_faults::FaultHandle;

/// What timing faults did to one simulated run: fired events and the
/// cycles they injected, overall and per pipeline stage (stage 0 is the
/// datamover, stages 1… the PEs).
///
/// Deterministic per `(seed, plan)`: the DES advances single-threaded
/// and every perturbation is resolved by hashing `(seed, site, call)`,
/// so two runs — on any machine, under any thread count — report
/// identical perturbed cycle counts. Functional outputs are never
/// touched: timing faults stretch the clock, not the data.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TimingFaultReport {
    /// Number of timing faults that fired.
    pub events: u64,
    /// Total extra cycles injected across all stages.
    pub extra_cycles: u64,
    /// Extra cycles injected per stage.
    pub per_stage_extra: Vec<u64>,
}

impl TimingFaultReport {
    /// True when no timing fault fired (the run was unperturbed).
    pub fn is_clean(&self) -> bool {
        self.events == 0
    }
}

/// Timing of one batched run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BatchTiming {
    /// Batch size.
    pub batch: usize,
    /// Cycles from first input to last output.
    pub total_cycles: u64,
    /// Mean cycles per image (`total / batch`).
    pub mean_cycles_per_image: f64,
    /// Mean time per image in microseconds at the plan clock.
    pub mean_us_per_image: f64,
    /// Sustained throughput in images per second.
    pub images_per_second: f64,
}

/// Pipeline timing model of an accelerator plan.
///
/// ```
/// use condor_dataflow::PipelineModel;
///
/// // Three stages at 100 MHz; the slowest (30 cycles) bounds throughput.
/// let m = PipelineModel::from_stage_cycles(vec![10, 30, 20], 100.0);
/// assert_eq!(m.batch(1).total_cycles, 60);            // full latency
/// assert_eq!(m.batch(100).total_cycles, 60 + 99 * 30); // latency + (B-1)·II
/// assert!(m.batch(100).mean_cycles_per_image < m.batch(1).mean_cycles_per_image);
/// ```
#[derive(Clone, Debug)]
pub struct PipelineModel {
    stage_cycles: Vec<u64>,
    /// Predecessor stages per stage. Stage 0 (the datamover) has none;
    /// a PE stage lists the stages whose output frames it consumes.
    /// Linear plans reduce to `[[], [0], [1], …]`.
    stage_inputs: Vec<Vec<usize>>,
    freq_mhz: f64,
}

impl PipelineModel {
    /// Builds the model from a plan: stage 0 is the datamover, stages
    /// 1… are the PEs (fill latencies folded into each PE's per-image
    /// cost).
    pub fn from_plan(plan: &AcceleratorPlan) -> Self {
        let mut stage_cycles = Vec::with_capacity(plan.pes.len() + 1);
        let mut stage_inputs = Vec::with_capacity(plan.pes.len() + 1);
        stage_cycles.push(plan.datamover_cycles_per_image().max(1));
        stage_inputs.push(Vec::new());
        for pe in &plan.pes {
            stage_cycles.push(pe.cycles_per_image() + pe.fill_latency());
            // PE indices shift by one: stage 0 is the datamover, which
            // also feeds any PE with no upstream PE.
            stage_inputs.push(if pe.inputs.is_empty() {
                vec![0]
            } else {
                pe.inputs.iter().map(|&i| i + 1).collect()
            });
        }
        PipelineModel {
            stage_cycles,
            stage_inputs,
            freq_mhz: plan.freq_mhz,
        }
    }

    /// Builds a linear model from raw stage cycles (for tests and
    /// ablations): stage `s` feeds stage `s + 1`.
    pub fn from_stage_cycles(stage_cycles: Vec<u64>, freq_mhz: f64) -> Self {
        let inputs = (0..stage_cycles.len())
            .map(|s| if s == 0 { Vec::new() } else { vec![s - 1] })
            .collect();
        Self::from_stage_graph(stage_cycles, inputs, freq_mhz)
    }

    /// Builds a model over an explicit stage graph (for tests and
    /// ablations): `stage_inputs[s]` lists the stages whose output
    /// stage `s` consumes; every predecessor must come earlier.
    fn from_stage_graph(
        stage_cycles: Vec<u64>,
        stage_inputs: Vec<Vec<usize>>,
        freq_mhz: f64,
    ) -> Self {
        assert!(!stage_cycles.is_empty(), "pipeline needs stages");
        assert_eq!(
            stage_cycles.len(),
            stage_inputs.len(),
            "one predecessor list per stage"
        );
        assert!(freq_mhz > 0.0, "clock must be positive");
        for (s, preds) in stage_inputs.iter().enumerate() {
            assert!(
                preds.iter().all(|&p| p < s),
                "stage {s} must only read earlier stages"
            );
        }
        PipelineModel {
            stage_cycles,
            stage_inputs,
            freq_mhz,
        }
    }

    /// Number of pipeline stages.
    pub fn stages(&self) -> usize {
        self.stage_cycles.len()
    }

    /// The steady-state initiation interval: the slowest stage.
    pub fn initiation_interval(&self) -> u64 {
        *self.stage_cycles.iter().max().expect("non-empty")
    }

    /// Single-image latency: the critical path through the stage graph
    /// (the plain sum of all stages on a linear pipeline).
    pub fn latency(&self) -> u64 {
        let mut done = Vec::with_capacity(self.stages());
        for (s, &c) in self.stage_cycles.iter().enumerate() {
            let upstream = self.stage_inputs[s]
                .iter()
                .map(|&p| done[p])
                .max()
                .unwrap_or(0);
            done.push(upstream + c);
        }
        done.into_iter().max().unwrap_or(0)
    }

    /// Simulates a batch through the pipeline.
    pub fn batch(&self, batch: usize) -> BatchTiming {
        self.batch_with_faults(batch, &FaultHandle::disabled()).0
    }

    /// Simulates a batch with timing-fault injection: per image and
    /// stage the handle is consulted at `dataflow.datamover` (stage 0)
    /// or `dataflow.pe{i}` (stage i+1), and any fired perturbation —
    /// slowdown, stall window, jitter — stretches that stage's cost for
    /// that image. Perturbations delay, they never drop: a plan whose
    /// FIFO sizing passed `condor check` cannot be deadlocked by them,
    /// because the recurrence always advances.
    pub fn batch_with_faults(
        &self,
        batch: usize,
        faults: &FaultHandle,
    ) -> (BatchTiming, TimingFaultReport) {
        assert!(batch >= 1, "batch must be at least 1");
        let sites: Vec<String> = (0..self.stages())
            .map(|s| {
                if s == 0 {
                    "dataflow.datamover".to_string()
                } else {
                    format!("dataflow.pe{}", s - 1)
                }
            })
            .collect();
        let mut report = TimingFaultReport {
            events: 0,
            extra_cycles: 0,
            per_stage_extra: vec![0; self.stages()],
        };
        // finish[s] holds the finish time of the previous image at stage
        // s while sweeping images; done[s] the current image's finish,
        // so a join can wait on every upstream branch of *this* image.
        let mut finish = vec![0u64; self.stages()];
        let mut done = vec![0u64; self.stages()];
        let active = faults.is_active();
        for _img in 0..batch {
            for (s, &c) in self.stage_cycles.iter().enumerate() {
                let mut cost = c;
                if active {
                    if let Some(p) = faults.timing(&sites[s]) {
                        let extra = p.extra_cycles(c);
                        cost += extra;
                        report.events += 1;
                        report.extra_cycles += extra;
                        report.per_stage_extra[s] += extra;
                    }
                }
                let upstream = self.stage_inputs[s]
                    .iter()
                    .map(|&p| done[p])
                    .max()
                    .unwrap_or(0);
                let start = upstream.max(finish[s]);
                done[s] = start + cost;
                finish[s] = done[s];
            }
        }
        let total_cycles = finish.into_iter().max().expect("non-empty");
        let mean_cycles = total_cycles as f64 / batch as f64;
        let cycle_us = 1.0 / self.freq_mhz; // µs per cycle = 1/MHz
        let timing = BatchTiming {
            batch,
            total_cycles,
            mean_cycles_per_image: mean_cycles,
            mean_us_per_image: mean_cycles * cycle_us,
            images_per_second: 1e6 / (mean_cycles * cycle_us),
        };
        (timing, report)
    }

    /// The Figure 5 sweep: mean time per image across batch sizes.
    pub fn batch_sweep(&self, batches: &[usize]) -> Vec<BatchTiming> {
        batches.iter().map(|&b| self.batch(b)).collect()
    }

    /// Sustained GFLOPS at a given batch size for a network performing
    /// `flops_per_image` floating-point operations per image.
    pub fn gflops(&self, flops_per_image: u64, batch: usize) -> f64 {
        let t = self.batch(batch);
        flops_per_image as f64 * t.images_per_second / 1e9
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use crate::plan::PlanBuilder;
    use condor_nn::zoo;

    #[test]
    fn batch_one_pays_full_latency() {
        let m = PipelineModel::from_stage_cycles(vec![10, 30, 20], 100.0);
        let t = m.batch(1);
        assert_eq!(t.total_cycles, 60);
        assert_eq!(m.latency(), 60);
    }

    #[test]
    fn steady_state_converges_to_initiation_interval() {
        let m = PipelineModel::from_stage_cycles(vec![10, 30, 20], 100.0);
        assert_eq!(m.initiation_interval(), 30);
        // total(B) = latency + (B−1)·II for a simple linear pipeline.
        let t = m.batch(100);
        assert_eq!(t.total_cycles, 60 + 99 * 30);
        assert!((t.mean_cycles_per_image - 30.0).abs() < 1.0);
    }

    #[test]
    fn fork_join_latency_is_critical_path_not_sum() {
        // Diamond: dm → a, then b and c both read a, join d reads both.
        let m = PipelineModel::from_stage_graph(
            vec![10, 5, 30, 20, 7],
            vec![vec![], vec![0], vec![1], vec![1], vec![2, 3]],
            100.0,
        );
        // The same image runs both branches concurrently: only the
        // slower one (30) appears on the critical path.
        assert_eq!(m.latency(), 10 + 5 + 30 + 7);
        assert_eq!(m.batch(1).total_cycles, 52);
        // Steady state is still bounded by the slowest single stage.
        assert_eq!(m.initiation_interval(), 30);
        assert_eq!(m.batch(100).total_cycles, 52 + 99 * 30);
    }

    #[test]
    fn resnet_plan_des_matches_plan_latency() {
        for net in [zoo::lenet(), zoo::resnet_block()] {
            let plan = PlanBuilder::new(&net).build().unwrap();
            let m = PipelineModel::from_plan(&plan);
            assert_eq!(
                m.batch(1).total_cycles,
                plan.image_latency(),
                "{}: batch-1 DES must agree with the plan's path latency",
                net.name
            );
            // And batching may only help the mean.
            let sweep = m.batch_sweep(&[1, 4, 16, 64]);
            for pair in sweep.windows(2) {
                assert!(pair[1].mean_cycles_per_image <= pair[0].mean_cycles_per_image);
            }
        }
    }

    #[test]
    fn mean_time_is_monotone_decreasing_in_batch() {
        let net = zoo::lenet();
        let plan = PlanBuilder::new(&net).build().unwrap();
        let m = PipelineModel::from_plan(&plan);
        let sweep = m.batch_sweep(&[1, 2, 4, 8, 16, 32, 64]);
        for pair in sweep.windows(2) {
            assert!(
                pair[1].mean_cycles_per_image <= pair[0].mean_cycles_per_image,
                "mean time must not increase with batch size"
            );
        }
    }

    #[test]
    fn convergence_knee_near_layer_count() {
        // The paper: "convergence is reached approximately when the batch
        // size is bigger than the total number of layers". TC1 has
        // balanced stages, making the knee visible.
        let net = zoo::tc1();
        let plan = PlanBuilder::new(&net).build().unwrap();
        let m = PipelineModel::from_plan(&plan);
        let ii = m.initiation_interval() as f64;
        let layers = net.compute_layer_count();
        let at_knee = m.batch(2 * layers).mean_cycles_per_image;
        // Within 15 % of the asymptote shortly after the knee.
        assert!(at_knee <= ii * 1.15, "at_knee {at_knee} vs ii {ii}");
        // And far from converged at batch 1.
        let at_one = m.batch(1).mean_cycles_per_image;
        assert!(at_one > ii * 1.3, "at_one {at_one} vs ii {ii}");
    }

    #[test]
    fn microseconds_scale_with_clock() {
        let fast = PipelineModel::from_stage_cycles(vec![100], 200.0);
        let slow = PipelineModel::from_stage_cycles(vec![100], 100.0);
        assert!(
            (fast.batch(1).mean_us_per_image * 2.0 - slow.batch(1).mean_us_per_image).abs() < 1e-9
        );
        // 100 cycles at 100 MHz = 1 µs.
        assert!((slow.batch(1).mean_us_per_image - 1.0).abs() < 1e-9);
    }

    #[test]
    fn gflops_accounting() {
        // 1000 FLOPs/image, 100 cycles/image at 100 MHz → 1 µs/image →
        // 1e6 img/s → 1 GFLOPS.
        let m = PipelineModel::from_stage_cycles(vec![100], 100.0);
        assert!((m.gflops(1000, 16) - 1.0).abs() < 0.05);
    }

    #[test]
    fn from_plan_includes_datamover_stage() {
        let net = zoo::tc1();
        let plan = PlanBuilder::new(&net).build().unwrap();
        let m = PipelineModel::from_plan(&plan);
        assert_eq!(m.stages(), plan.pes.len() + 1);
    }

    #[test]
    #[should_panic(expected = "batch must be at least 1")]
    fn zero_batch_rejected() {
        PipelineModel::from_stage_cycles(vec![1], 100.0).batch(0);
    }
}
