//! Property tests over the dataflow substrate: window streaming, plan
//! invariants, pipeline timing and runtime/golden equivalence.

#![allow(clippy::unwrap_used)] // test code: unwrap is the assertion

use condor_dataflow::layersim::{simulate_conv_layer, LayerSimConfig};
use condor_dataflow::runtime::ThreadedRuntime;
use condor_dataflow::{FilterChain, PipelineModel, PlanBuilder};
use condor_nn::arbitrary::{random_chain, random_weighted_chain};
use condor_nn::{golden, GoldenEngine};
use condor_tensor::{AllClose, Shape, TensorRng};
use proptest::prelude::*;

proptest! {
    /// The filter chain emits exactly the sliding windows, in output
    /// row-major order, for arbitrary geometries.
    #[test]
    fn filter_chain_equals_window_enumeration(
        h in 2usize..14,
        w in 2usize..14,
        k in 1usize..5,
        stride in 1usize..3,
    ) {
        prop_assume!(k <= h && k <= w);
        let img: Vec<f32> = (0..h * w).map(|v| v as f32 * 0.5 - 3.0).collect();
        let mut chain = FilterChain::new(k, h, w, stride, 0);
        let got = chain.run(&img);
        let (oh, ow) = chain.out_dims();
        prop_assert_eq!(got.len(), oh * ow);
        for (idx, win) in got.iter().enumerate() {
            prop_assert_eq!(win.out_row, idx / ow);
            prop_assert_eq!(win.out_col, idx % ow);
            for r in 0..k {
                for c in 0..k {
                    let expect = img[(win.out_row * stride + r) * w + win.out_col * stride + c];
                    prop_assert_eq!(win.elems[r * k + c], expect);
                }
            }
        }
        // The buffer never exceeds the paper's bound.
        prop_assert!(chain.high_water() <= chain.buffer_bound());
    }

    /// FIFO depths always follow the spatial-distance rule and sum to
    /// the span between first and last access, for any plan.
    #[test]
    fn plan_fifo_rule_holds_for_random_networks(seed in any::<u64>()) {
        let net = random_chain(seed);
        let plan = PlanBuilder::new(&net).build().unwrap();
        for pe in &plan.pes {
            let k = pe.max_window();
            let depths = pe.fifo_depths();
            prop_assert_eq!(depths.len(), k * k - 1);
            if k > 1 {
                let w = pe.max_input_width();
                // When w == k the row-crossing distance degenerates to 1
                // and is indistinguishable from in-row FIFOs.
                if w > k {
                    prop_assert_eq!(
                        depths.iter().filter(|&&d| d == w - k + 1).count(),
                        k - 1
                    );
                }
                prop_assert_eq!(depths.iter().sum::<usize>(), (k - 1) * w + k - 1);
            }
        }
    }

    /// Fusion preserves total PE cycles: a fused PE costs the sum of its
    /// members, so the pipeline's *work* is invariant (only its balance
    /// changes).
    #[test]
    fn fusion_preserves_total_cycles(seed in any::<u64>(), fusion in 2usize..5) {
        let net = random_chain(seed);
        let unfused = PlanBuilder::new(&net).build().unwrap();
        let fused = PlanBuilder::new(&net).fusion(fusion).build().unwrap();
        let total_a: u64 = unfused.pes.iter().map(|p| p.cycles_per_image()).sum();
        let total_b: u64 = fused.pes.iter().map(|p| p.cycles_per_image()).sum();
        prop_assert_eq!(total_a, total_b);
        // And fusing never increases the stage count.
        prop_assert!(fused.pes.len() <= unfused.pes.len());
        // The initiation interval can only get worse (slowest stage grows).
        prop_assert!(fused.initiation_interval() >= unfused.initiation_interval());
    }

    /// Pipeline timing identities: total(B) = latency + (B−1)·II for a
    /// linear pipeline; the mean is monotonically decreasing.
    #[test]
    fn pipeline_timing_identities(
        stages in prop::collection::vec(1u64..10_000, 1..12),
        batch in 1usize..64,
    ) {
        let m = PipelineModel::from_stage_cycles(stages.clone(), 100.0);
        let t = m.batch(batch);
        let latency: u64 = stages.iter().sum();
        let ii = *stages.iter().max().unwrap();
        prop_assert_eq!(t.total_cycles, latency + (batch as u64 - 1) * ii);
        if batch > 1 {
            prop_assert!(
                m.batch(batch).mean_cycles_per_image
                    <= m.batch(batch - 1).mean_cycles_per_image
            );
        }
    }

    /// The threaded hardware runtime equals the golden engine on random
    /// weighted networks (the central functional-correctness property).
    #[test]
    fn runtime_matches_golden_on_random_networks(seed in 0u64..64) {
        let net = random_weighted_chain(seed);
        let plan = PlanBuilder::new(&net).build().unwrap();
        let rt = ThreadedRuntime::new(&net, &plan).unwrap();
        let mut rng = TensorRng::seeded(seed ^ 0xabcd);
        let images: Vec<_> = (0..2)
            .map(|_| rng.uniform(net.input_shape, -1.0, 1.0))
            .collect();
        let hw = rt.run_batch(&images).unwrap();
        let golden = GoldenEngine::new(&net).unwrap().infer_batch(&images).unwrap();
        for (h, g) in hw.iter().zip(&golden) {
            prop_assert!(h.all_close(g));
        }
    }

    /// Fused and unfused plans run the same engine steps, so they
    /// compute the same bits.
    #[test]
    fn fusion_is_functionally_invisible(seed in 0u64..32, fusion in 2usize..4) {
        let net = random_weighted_chain(seed);
        let mut rng = TensorRng::seeded(seed ^ 0x77);
        let img = rng.uniform(net.input_shape, -1.0, 1.0);
        let a = ThreadedRuntime::new(&net, &PlanBuilder::new(&net).build().unwrap())
            .unwrap()
            .run_batch(std::slice::from_ref(&img))
            .unwrap();
        let b = ThreadedRuntime::new(
            &net,
            &PlanBuilder::new(&net).fusion(fusion).build().unwrap(),
        )
        .unwrap()
        .run_batch(std::slice::from_ref(&img))
        .unwrap();
        let bits = |t: &condor_tensor::Tensor| {
            t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        };
        prop_assert_eq!(bits(&a[0]), bits(&b[0]));
    }

    /// The element-level conv simulation equals the golden convolution
    /// for arbitrary small geometries, with and without back-pressure.
    #[test]
    fn layersim_matches_golden_under_backpressure(
        seed in any::<u64>(),
        c in 1usize..3,
        f in 1usize..4,
        k in 1usize..4,
        drain in 1u64..4,
    ) {
        let (h, w) = (6usize, 7usize);
        prop_assume!(k <= h && k <= w);
        let mut rng = TensorRng::seeded(seed);
        let input = rng.uniform(Shape::chw(c, h, w), -1.0, 1.0);
        let weights = rng.uniform(Shape::new(f, c, k, k), -0.5, 0.5);
        let report = simulate_conv_layer(
            &input,
            &weights,
            None,
            1,
            0,
            false,
            &LayerSimConfig {
                out_fifo_depth: 2,
                drain_every: drain,
                ..LayerSimConfig::default()
            },
        ).unwrap();
        let out_shape = Shape::new(1, f, h - k + 1, w - k + 1);
        let expect = golden::convolve(&input, &weights, None, out_shape, f, k, 1, 0, false);
        prop_assert!(report.output.all_close(&expect));
        // Cycle count is bounded below by both compute and stream work.
        let compute = (c * f * (h - k + 1) * (w - k + 1)) as u64;
        let stream = (c * h * w) as u64;
        prop_assert!(report.cycles >= compute.max(stream));
    }
}
