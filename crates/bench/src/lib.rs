//! Experiment definitions regenerating every table and figure of the
//! paper's evaluation (Section 4), and the ablations of DESIGN.md §4.
//!
//! Each experiment returns plain data; [`experiments_blocks`] renders
//! them, next to the paper's published numbers, as the generated blocks
//! of EXPERIMENTS.md. The `tables` binary splices those blocks into the
//! file, and a test fails when the committed file differs from them.
//! Absolute agreement is not expected (the substrate is a calibrated
//! simulator, not the authors' F1 testbed) — EXPERIMENTS.md records
//! paper-vs-measured per cell and the shape claims each experiment
//! preserves.

#![forbid(unsafe_code)]

#[cfg(test)]
mod kernels;

use condor::{CloudContext, Condor, DeployTarget, DeployedAccelerator, DseConfig, DsePoint};
use condor_dataflow::layersim::{simulate_conv_layer, LayerSimConfig};
use condor_dataflow::{PeParallelism, PipelineModel, PlanBuilder};
use condor_fpga::Resources;
use condor_nn::{zoo, Network};
use condor_tensor::{Shape, TensorRng};

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

impl Table1Row {
    /// Board power implied by throughput over efficiency.
    pub fn power_w(&self) -> f64 {
        self.gflops / self.gflops_per_w
    }
}

/// The paper's published Table 1, for side-by-side reporting.
fn paper_table1() -> Vec<Table1Row> {
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
fn deploy_table1_network(net: Network, freq_mhz: f64) -> DeployedAccelerator {
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
fn table1() -> Vec<Table1Row> {
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
fn paper_table2() -> Vec<(&'static str, f64)> {
    vec![("TC1", 16.56), ("LeNet", 53.51), ("VGG-16", 113.30)]
}

/// The *uniform* improved-methodology configuration Table 2 evaluates:
/// "reading multiple input feature maps concurrently and computing
/// multiple output feature maps in parallel". The paper applies one
/// refined methodology to all three networks; we fix the inter-layer
/// parallelism at 2×4 (the largest degree for which VGG-16's thirteen
/// concurrent convolution PEs still fit the VU9P DSP budget) and request
/// 250 MHz, letting the synthesis model derate the clock per design.
fn table2_parallelism() -> PeParallelism {
    PeParallelism {
        parallel_in: 2,
        parallel_out: 4,
        fc_simd: 1,
    }
}

/// The DSE space used by the per-network exploration variant
/// ([`table2_dse`]) and the VGG-16 example.
fn table2_dse_space() -> DseConfig {
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
fn table2() -> Vec<Table2Cell> {
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
            let gflops =
                PipelineModel::from_plan(&plan).gflops(fe.total_flops().expect("valid"), 64);
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
fn table2_dse() -> Vec<Table2Cell> {
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
fn figure5_batches() -> Vec<usize> {
    vec![1, 2, 4, 6, 8, 10, 12, 16, 24, 32, 48, 64]
}

/// Regenerates Figure 5 for TC1 and LeNet at their Table 1 clocks.
fn figure5() -> Vec<Figure5Series> {
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

/// The markdown body of each generated block of EXPERIMENTS.md, keyed
/// by the name in its markers, in document order.
pub fn experiments_blocks() -> Vec<(&'static str, String)> {
    vec![
        ("table1", table1_markdown()),
        ("table2", table2_markdown()),
        ("figure5", figure5_markdown()),
        ("ablation-fusion", ablation_fusion()),
        ("ablation-partitioning", ablation_partitioning()),
        ("ablation-parallelism", ablation_parallelism()),
        ("ablation-fifo", ablation_fifo()),
        ("ablation-precheck", ablation_precheck()),
    ]
}

/// EXPERIMENTS.md in the source tree.
pub const EXPERIMENTS_MD: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");

/// Replaces the body of every block in `doc` — the lines between
/// `<!-- generated:NAME -->` and `<!-- /generated:NAME -->` — with its
/// rendering; fails naming the first marker `doc` lacks.
pub fn splice_blocks(doc: &str, blocks: &[(&str, String)]) -> Result<String, String> {
    let mut out = doc.to_string();
    for (name, body) in blocks {
        let begin = format!("<!-- generated:{name} -->\n");
        let end = format!("<!-- /generated:{name} -->");
        let start = out
            .find(&begin)
            .ok_or_else(|| format!("missing marker `{}`", begin.trim_end()))?
            + begin.len();
        let stop = start
            + out[start..]
                .find(&end)
                .ok_or_else(|| format!("missing marker `{end}`"))?;
        out.replace_range(start..stop, &format!("\n{body}\n\n"));
    }
    Ok(out)
}

/// A markdown table, without a trailing newline.
fn md_table(head: &[impl ToString], rows: impl IntoIterator<Item = Vec<String>>) -> String {
    let head: Vec<String> = head.iter().map(ToString::to_string).collect();
    let rule = vec!["---".to_string(); head.len()];
    [head, rule]
        .into_iter()
        .chain(rows)
        .map(|cells| format!("| {} |", cells.join(" | ")))
        .collect::<Vec<_>>()
        .join("\n")
}

fn table1_markdown() -> String {
    let ours = table1();
    let paper = paper_table1();
    let cells = paper.iter().zip(&ours).flat_map(|(p, o)| {
        [
            ("LUT %", p.lut_pct, o.lut_pct),
            ("FF %", p.ff_pct, o.ff_pct),
            ("DSP %", p.dsp_pct, o.dsp_pct),
            ("BRAM %", p.bram_pct, o.bram_pct),
            ("GFLOPS", p.gflops, o.gflops),
            ("GFLOPS/W", p.gflops_per_w, o.gflops_per_w),
            ("power W", p.power_w(), o.power_w()),
        ]
        .map(|(label, pv, ov)| {
            vec![
                format!("{} {label}", o.name),
                format!("{pv:.2}"),
                format!("{ov:.2}"),
                format!("{:+.1} %", (ov / pv - 1.0) * 100.0),
            ]
        })
    });
    let ratio = |label: &str, f: fn(&[Table1Row]) -> f64| {
        vec![
            label.to_string(),
            format!("{:.2}", f(&paper)),
            format!("{:.2}", f(&ours)),
        ]
    };
    [
        md_table(&["cell", "paper", "ours", "residual"], cells),
        md_table(
            &["ratio", "paper", "ours"],
            [
                ratio("TC1 / LeNet GFLOPS", |r| r[0].gflops / r[1].gflops),
                ratio("LeNet / TC1 BRAM %", |r| r[1].bram_pct / r[0].bram_pct),
                ratio("TC1 / LeNet GFLOPS/W", |r| {
                    r[0].gflops_per_w / r[1].gflops_per_w
                }),
            ],
        ),
    ]
    .join("\n\n")
}

fn table2_markdown() -> String {
    let paper = paper_table2();
    let ours = table2();
    let dse = table2_dse();
    let rows = paper
        .iter()
        .zip(&ours)
        .zip(&dse)
        .map(|((&(name, p), o), d)| {
            vec![
                name.to_string(),
                format!("{p:.2}"),
                format!("{:.2}", o.gflops),
                format!("{:.2}", o.gflops / p),
                format!("{:.0}", o.freq_mhz),
                format!("{:.2}", d.gflops),
            ]
        });
    let ratio = |label: &str, hi: usize, lo: usize| {
        vec![
            label.to_string(),
            format!("{:.2}", paper[hi].1 / paper[lo].1),
            format!("{:.2}", ours[hi].gflops / ours[lo].gflops),
        ]
    };
    [
        md_table(
            &[
                "net",
                "paper GFLOPS",
                "ours GFLOPS",
                "ours/paper",
                "achieved MHz",
                "DSE-best GFLOPS",
            ],
            rows,
        ),
        md_table(
            &["ratio", "paper", "ours"],
            [ratio("LeNet / TC1", 1, 0), ratio("VGG-16 / LeNet", 2, 1)],
        ),
    ]
    .join("\n\n")
}

fn figure5_markdown() -> String {
    let series = figure5();
    let head: Vec<String> = std::iter::once("batch".to_string())
        .chain(
            series
                .iter()
                .map(|s| format!("{} ms ({} layers)", s.name, s.layers)),
        )
        .collect();
    let rows = figure5_batches().into_iter().enumerate().map(|(i, b)| {
        std::iter::once(b.to_string())
            .chain(series.iter().map(|s| format!("{:.4}", s.points[i].1)))
            .collect()
    });
    md_table(&head, rows)
}

/// Fusing LeNet's layers onto fewer PEs (aws-f1, 180 MHz): GFLOPS at
/// batch 64 against LUTs and BRAM tiles.
fn ablation_fusion() -> String {
    let rows = [1, 2, 3, 4, 10].map(|fusion| {
        let built = Condor::from_network(zoo::lenet_weighted(1))
            .board("aws-f1")
            .freq_mhz(180.0)
            .fusion(fusion)
            .build()
            .expect("every fusion factor of LeNet fits the VU9P");
        let mut plan = built.plan.clone();
        plan.freq_mhz = built.synthesis.achieved_fmax_mhz;
        let flops = built.network.total_flops().expect("valid");
        vec![
            fusion.to_string(),
            format!("{:.3}", PipelineModel::from_plan(&plan).gflops(flops, 64)),
            built.synthesis.total.lut.to_string(),
            built.synthesis.total.bram_36k.to_string(),
        ]
    });
    md_table(&["fusion", "GFLOPS", "LUT", "BRAM36"], rows)
}

/// Non-uniform partitioning (`(K−1)·W + K` elements, every tap read in
/// one cycle) against one monolithic buffer of the whole map, whose
/// dual-port BRAM serves two of the K² reads per cycle.
fn ablation_partitioning() -> String {
    let tiles = |elems: usize| Resources::bram_tiles_for_bytes(elems as u64 * 4).max(1);
    let rows = [
        ("LeNet conv1 (5x5@28)", 5, 28, 28),
        ("LeNet conv2 (5x5@12)", 5, 12, 12),
        ("VGG conv1_1 (3x3@224)", 3, 224, 224),
        ("VGG conv5_3 (3x3@14)", 3, 14, 14),
    ]
    .map(|(name, k, h, w): (&str, usize, usize, usize)| {
        vec![
            name.to_string(),
            tiles((k - 1) * w + k).to_string(),
            "1".to_string(),
            tiles(h * w).to_string(),
            (k * k).div_ceil(2).to_string(),
        ]
    });
    md_table(
        &[
            "layer",
            "NUP BRAM",
            "NUP cycles/window",
            "monolithic BRAM",
            "monolithic cycles/window",
        ],
        rows,
    )
}

/// Inter-layer parallelism on LeNet's feature extraction (200 MHz
/// requested, synthesis derates): GFLOPS at batch 64 against DSPs.
fn ablation_parallelism() -> String {
    let net = zoo::lenet()
        .feature_extraction_prefix()
        .expect("LeNet has a feature-extraction stage");
    let device = condor_fpga::device("xcvu9p").expect("catalog");
    let rows = [(1, 1), (1, 2), (2, 2), (2, 5), (4, 5), (4, 10), (8, 10)].map(|(pi, po)| {
        let mut plan = PlanBuilder::new(&net)
            .freq_mhz(200.0)
            .parallelism(PeParallelism {
                parallel_in: pi,
                parallel_out: po,
                fc_simd: 1,
            })
            .build()
            .expect("LeNet features plan at every degree");
        let synth = condor_hls::synthesize_plan(&plan, device);
        plan.freq_mhz = synth.achieved_fmax_mhz;
        let flops = net.total_flops().expect("valid");
        vec![
            format!("{pi} x {po}"),
            format!("{:.3}", PipelineModel::from_plan(&plan).gflops(flops, 64)),
            synth.total.dsp.to_string(),
        ]
    });
    md_table(&["Pin x Pout", "GFLOPS", "DSP"], rows)
}

/// The cycle-level layer simulation of an 8×2@16, 3×3 convolution with
/// smaller output FIFOs and slower consumers: back-pressure costs PE
/// stall cycles, never results.
fn ablation_fifo() -> String {
    let mut rng = TensorRng::seeded(11);
    let input = rng.uniform(Shape::chw(2, 16, 16), -1.0, 1.0);
    let weights = rng.uniform(Shape::new(8, 2, 3, 3), -0.5, 0.5);
    let rows = [
        (64, 1),
        (8, 1),
        (1, 1),
        (64, 2),
        (8, 2),
        (1, 2),
        (64, 8),
        (1, 8),
    ]
    .map(|(out_fifo_depth, drain_every)| {
        let cfg = LayerSimConfig {
            out_fifo_depth,
            drain_every,
            ..LayerSimConfig::default()
        };
        let report = simulate_conv_layer(&input, &weights, None, 1, 0, false, &cfg)
            .expect("the layer simulates at every FIFO depth");
        vec![
            out_fifo_depth.to_string(),
            drain_every.to_string(),
            report.cycles.to_string(),
            report.pe_stall_cycles.to_string(),
        ]
    });
    md_table(&["FIFO depth", "drain every", "cycles", "PE stalls"], rows)
}

/// The static DSE pre-filter over the default candidate space on aws-f1:
/// points it prunes without building a plan, and the feasible points
/// left (the same set as an unfiltered sweep, pinned by `condor::dse`'s
/// tests).
fn ablation_precheck() -> String {
    let f1 = condor_fpga::board("aws-f1").expect("catalog");
    let rows = [zoo::tc1(), zoo::lenet(), zoo::vgg16()].map(|net| {
        let outcome = condor::dse::explore(&net, f1, &DseConfig::default()).expect("DSE runs");
        let count =
            |f: fn(&DsePoint) -> bool| outcome.points.iter().filter(|p| f(p)).count().to_string();
        vec![
            net.name.clone(),
            outcome.points.len().to_string(),
            count(|p| p.pruned),
            count(|p| p.feasible()),
        ]
    });
    md_table(&["network", "points", "pruned", "feasible"], rows)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;

    #[test]
    fn experiments_md_matches_its_generated_blocks() {
        let committed = std::fs::read_to_string(EXPERIMENTS_MD).unwrap();
        let rendered = splice_blocks(&committed, &experiments_blocks()).unwrap();
        let stale = committed
            .lines()
            .zip(rendered.lines())
            .enumerate()
            .find(|(_, (c, r))| c != r);
        if let Some((i, (c, r))) = stale {
            panic!(
                "EXPERIMENTS.md line {} is stale:\n  committed: {c}\n  rendered:  {r}\n\
                 regenerate it with `cargo run --release -p condor-bench --bin tables`",
                i + 1
            );
        }
        assert_eq!(
            committed, rendered,
            "EXPERIMENTS.md is stale; regenerate it with \
             `cargo run --release -p condor-bench --bin tables`"
        );
    }

    #[test]
    fn splice_replaces_only_between_markers() {
        let doc = "a\n<!-- generated:x -->\nold\n<!-- /generated:x -->\nb\n";
        let out = splice_blocks(doc, &[("x", "new".to_string())]).unwrap();
        assert_eq!(
            out,
            "a\n<!-- generated:x -->\n\nnew\n\n<!-- /generated:x -->\nb\n"
        );
        let err = splice_blocks(doc, &[("y", String::new())]).unwrap_err();
        assert!(err.contains("generated:y"), "{err}");
    }

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
