//! Experiment definitions regenerating every table and figure of the
//! paper's evaluation (Section 4).
//!
//! Each experiment returns plain data; the `tables` binary renders them
//! next to the paper's published numbers, and the Criterion benches in
//! `benches/` time the underlying machinery. Absolute agreement is not
//! expected (the substrate is a calibrated simulator, not the authors'
//! F1 testbed) — EXPERIMENTS.md records paper-vs-measured per cell and
//! the shape claims each experiment preserves.

#![forbid(unsafe_code)]

#[cfg(test)]
mod kernels;

use condor::{CloudContext, Condor, DeployTarget, DeployedAccelerator, DseConfig};
use condor_dataflow::PeParallelism;
use condor_nn::{zoo, Network};

/// One row of Table 1 ("AWS F1 deployment results").
#[derive(Clone, Debug)]
pub struct Table1Row {
    /// Network name.
    pub name: String,
    /// Achieved clock (the paper: TC1 100 MHz, LeNet 180 MHz).
    pub freq_mhz: f64,
    /// LUT utilisation %.
    pub lut_pct: f64,
    /// FF utilisation %.
    pub ff_pct: f64,
    /// DSP utilisation %.
    pub dsp_pct: f64,
    /// BRAM utilisation %.
    pub bram_pct: f64,
    /// Sustained GFLOPS at batch 64.
    pub gflops: f64,
    /// Energy efficiency.
    pub gflops_per_w: f64,
}

/// The paper's published Table 1, for side-by-side reporting.
pub fn paper_table1() -> Vec<Table1Row> {
    vec![
        Table1Row {
            name: "TC1".into(),
            freq_mhz: 100.0,
            lut_pct: 10.47,
            ff_pct: 9.02,
            dsp_pct: 5.63,
            bram_pct: 0.97,
            gflops: 8.36,
            gflops_per_w: 1.56,
        },
        Table1Row {
            name: "LeNet".into(),
            freq_mhz: 180.0,
            lut_pct: 9.48,
            ff_pct: 8.6,
            dsp_pct: 2.53,
            bram_pct: 24.38,
            gflops: 3.35,
            gflops_per_w: 0.78,
        },
    ]
}

/// Builds and cloud-deploys one Table 1 design point: "the generated
/// network processes each feature map sequentially but can exploit full
/// intra-layers parallelism" — 1:1 layer→PE mapping, sequential feature
/// maps (fc SIMD 2 is the calibration knob documented in
/// EXPERIMENTS.md).
pub fn deploy_table1_network(net: Network, freq_mhz: f64) -> DeployedAccelerator {
    let ctx = CloudContext::new("condor-eval-bucket");
    Condor::from_network(net)
        .board("aws-f1")
        .freq_mhz(freq_mhz)
        .parallelism(PeParallelism {
            parallel_in: 1,
            parallel_out: 1,
            fc_simd: 2,
        })
        .build()
        .expect("Table 1 design points are synthesizable")
        .deploy(&DeployTarget::Cloud(&ctx))
        .expect("cloud deployment succeeds in the simulated account")
}

/// Regenerates Table 1.
pub fn table1() -> Vec<Table1Row> {
    let points = [
        (zoo::tc1_weighted(1), 100.0),
        (zoo::lenet_weighted(1), 180.0),
    ];
    points
        .into_iter()
        .map(|(net, freq)| {
            let name = net.name.clone();
            let deployed = deploy_table1_network(net, freq);
            let m = deployed.metrics(64).expect("metrics available");
            Table1Row {
                name,
                freq_mhz: m.freq_mhz,
                lut_pct: m.utilization.lut_pct,
                ff_pct: m.utilization.ff_pct,
                dsp_pct: m.utilization.dsp_pct,
                bram_pct: m.utilization.bram_pct,
                gflops: m.gflops,
                gflops_per_w: m.gflops_per_w,
            }
        })
        .collect()
}

/// One cell of Table 2 ("preliminary results of the improved methodology
/// for the features extraction part").
#[derive(Clone, Debug)]
pub struct Table2Cell {
    /// Network name.
    pub name: String,
    /// GFLOPS of the feature-extraction subnetwork under the improved
    /// (inter-layer parallel) methodology.
    pub gflops: f64,
    /// The parallelism the DSE selected.
    pub parallelism: PeParallelism,
    /// Achieved clock.
    pub freq_mhz: f64,
}

/// The paper's published Table 2.
pub fn paper_table2() -> Vec<(&'static str, f64)> {
    vec![("TC1", 16.56), ("LeNet", 53.51), ("VGG-16", 113.30)]
}

/// The *uniform* improved-methodology configuration Table 2 evaluates:
/// "reading multiple input feature maps concurrently and computing
/// multiple output feature maps in parallel". The paper applies one
/// refined methodology to all three networks; we fix the inter-layer
/// parallelism at 2×4 (the largest degree for which VGG-16's thirteen
/// concurrent convolution PEs still fit the VU9P DSP budget) and request
/// 250 MHz, letting the synthesis model derate the clock per design.
pub fn table2_parallelism() -> PeParallelism {
    PeParallelism {
        parallel_in: 2,
        parallel_out: 4,
        fc_simd: 1,
    }
}

/// The DSE space used by the per-network exploration variant
/// ([`table2_dse`]) and the VGG-16 example.
pub fn table2_dse_space() -> DseConfig {
    DseConfig {
        freqs_mhz: vec![150.0, 200.0, 250.0, 300.0],
        fusions: vec![1],
        parallel_in: vec![1, 2, 4, 8],
        parallel_out: vec![1, 2, 4, 8, 16],
        fc_simd: vec![1],
        precisions: vec![condor_dataflow::Precision::F32],
        eval_batch: 64,
        prefilter: true,
    }
}

/// Regenerates Table 2: the uniform improved methodology applied to each
/// network's feature-extraction prefix.
pub fn table2() -> Vec<Table2Cell> {
    [zoo::tc1(), zoo::lenet(), zoo::vgg16()]
        .into_iter()
        .map(|net| {
            let name = net.name.clone();
            let fe = net
                .feature_extraction_prefix()
                .expect("all zoo networks have a feature-extraction stage");
            let built = Condor::from_network(fe.clone())
                .board("aws-f1")
                .freq_mhz(250.0)
                .parallelism(table2_parallelism())
                .build()
                .expect("feature extraction is synthesizable (unlike the full VGG-16)");
            let mut plan = built.plan.clone();
            plan.freq_mhz = built.synthesis.achieved_fmax_mhz;
            let gflops = condor_dataflow::PipelineModel::from_plan(&plan)
                .gflops(fe.total_flops().expect("valid"), 64);
            Table2Cell {
                name,
                gflops,
                parallelism: table2_parallelism(),
                freq_mhz: built.synthesis.achieved_fmax_mhz,
            }
        })
        .collect()
}

/// The exploration variant of Table 2: per-network maximum-GFLOPS DSE.
/// Small networks parallelise disproportionately well under this
/// objective (LeNet overtakes VGG-16), which is why the headline Table 2
/// uses the uniform methodology — see EXPERIMENTS.md.
pub fn table2_dse() -> Vec<Table2Cell> {
    [zoo::tc1(), zoo::lenet(), zoo::vgg16()]
        .into_iter()
        .map(|net| {
            let name = net.name.clone();
            let fe = net
                .feature_extraction_prefix()
                .expect("all zoo networks have a feature-extraction stage");
            let board = condor_fpga::board("aws-f1").expect("catalog");
            let outcome = condor::dse::explore(&fe, board, &table2_dse_space()).expect("DSE runs");
            let best = outcome
                .require_best()
                .expect("feature extraction is synthesizable (unlike the full VGG-16)");
            Table2Cell {
                name,
                gflops: best.gflops,
                parallelism: best.parallelism,
                freq_mhz: best.synthesis.achieved_fmax_mhz,
            }
        })
        .collect()
}

/// One series of Figure 5 (mean time per image vs batch size).
#[derive(Clone, Debug)]
pub struct Figure5Series {
    /// Network name.
    pub name: String,
    /// Number of computational layers (the paper's convergence knee).
    pub layers: usize,
    /// `(batch, mean_ms_per_image)` points.
    pub points: Vec<(usize, f64)>,
}

/// The batch sizes swept by Figure 5.
pub fn figure5_batches() -> Vec<usize> {
    vec![1, 2, 4, 6, 8, 10, 12, 16, 24, 32, 48, 64]
}

/// Regenerates Figure 5 for TC1 and LeNet at their Table 1 clocks.
pub fn figure5() -> Vec<Figure5Series> {
    let points = [
        (zoo::tc1_weighted(1), 100.0),
        (zoo::lenet_weighted(1), 180.0),
    ];
    points
        .into_iter()
        .map(|(net, freq)| {
            let name = net.name.clone();
            let layers = net.compute_layer_count();
            let deployed = deploy_table1_network(net, freq);
            let points = figure5_batches()
                .into_iter()
                .map(|b| (b, deployed.timing(b).mean_us_per_image / 1000.0))
                .collect();
            Figure5Series {
                name,
                layers,
                points,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;

    #[test]
    fn table1_preserves_paper_shape() {
        let rows = table1();
        let tc1 = &rows[0];
        let lenet = &rows[1];
        // Headline shape claims (EXPERIMENTS.md): TC1 out-throughputs
        // LeNet; LeNet dominates BRAM by an order of magnitude; both
        // designs are small on a VU9P; efficiency ordering follows.
        assert!(tc1.gflops > lenet.gflops);
        assert!(lenet.bram_pct > 10.0 * tc1.bram_pct);
        assert!(tc1.lut_pct < 30.0 && lenet.lut_pct < 30.0);
        assert!(tc1.gflops_per_w > lenet.gflops_per_w);
        assert_eq!(tc1.freq_mhz, 100.0);
        assert_eq!(lenet.freq_mhz, 180.0);
    }

    #[test]
    fn table2_preserves_paper_ordering() {
        let cells = table2();
        assert_eq!(cells.len(), 3);
        // VGG-16 > LeNet > TC1, as in the paper.
        assert!(cells[2].gflops > cells[1].gflops, "{cells:?}");
        assert!(cells[1].gflops > cells[0].gflops, "{cells:?}");
        // And the improved methodology beats the Table 1 regime.
        let t1 = table1();
        assert!(cells[0].gflops > t1[0].gflops);
        assert!(cells[1].gflops > t1[1].gflops);
    }

    #[test]
    fn figure5_monotone_with_knee() {
        for series in figure5() {
            for pair in series.points.windows(2) {
                assert!(
                    pair[1].1 <= pair[0].1 + 1e-9,
                    "{}: mean time increased with batch",
                    series.name
                );
            }
            // Converged after the knee: batch 64 within 20 % of batch 2×layers.
            let at = |b: usize| {
                series
                    .points
                    .iter()
                    .find(|(bb, _)| *bb >= b)
                    .expect("swept")
                    .1
            };
            assert!(at(64) >= at(2 * series.layers) * 0.8);
        }
    }
}
