//! Property tests over the network IR and golden engine.

#![allow(clippy::unwrap_used)] // test code: unwrap is the assertion

use condor_nn::arbitrary::{random_chain, random_dag, random_weighted_chain, random_weighted_dag};
use condor_nn::golden;
use condor_nn::{FastEngine, GoldenEngine, LayerKind, NodeId, PoolKind, QuantizedEngine, Stage};
use condor_tensor::{AllClose, Shape, Tensor, TensorRng};
use proptest::prelude::*;

proptest! {
    /// Shape inference matches a brute-force sliding-window count for
    /// every convolution geometry.
    #[test]
    fn conv_shape_matches_bruteforce(
        input in 1usize..40,
        kernel in 1usize..8,
        stride in 1usize..4,
        pad in 0usize..3,
    ) {
        prop_assume!(input + 2 * pad >= kernel);
        let analytic = Shape::conv_out_dim(input, kernel, stride, pad);
        // Brute force: count valid window anchors.
        let padded = input + 2 * pad;
        let mut count = 0;
        let mut pos = 0;
        while pos + kernel <= padded {
            count += 1;
            pos += stride;
        }
        prop_assert_eq!(analytic, count);
    }

    /// Every random network validates, shape-infers and cost-accounts
    /// consistently.
    #[test]
    fn random_networks_are_consistent(seed in any::<u64>()) {
        let net = random_chain(seed);
        let costs = net.costs().unwrap();
        prop_assert_eq!(costs.len(), net.layers.len());
        // FLOPs ≥ 2·MACs (bias adds only add).
        for c in &costs {
            prop_assert!(c.flops >= 2 * c.macs);
            prop_assert!(c.flops <= 2 * c.macs + c.output.len() as u64);
        }
        // Stages are monotone: never FE after classification.
        let stages = net.stages();
        let first_cl = stages.iter().position(|s| *s == Stage::Classification);
        if let Some(i) = first_cl {
            prop_assert!(stages[i..].iter().all(|s| *s == Stage::Classification));
        }
        // Feature-extraction FLOPs never exceed the total.
        prop_assert!(net.feature_extraction_flops().unwrap() <= net.total_flops().unwrap());
    }

    /// The golden engine runs every random weighted network and produces
    /// finite outputs of the inferred shape.
    #[test]
    fn golden_engine_runs_random_networks(seed in 0u64..512) {
        let net = random_weighted_chain(seed);
        let engine = GoldenEngine::new(&net).unwrap();
        let input = TensorRng::seeded(seed).uniform(net.input_shape, -1.0, 1.0);
        let per_layer = engine.infer_all_layers(&input).unwrap();
        let shapes = net.output_shapes().unwrap();
        for (out, expected) in per_layer.iter().zip(shapes) {
            prop_assert_eq!(out.shape(), expected);
            prop_assert!(out.as_slice().iter().all(|v| v.is_finite()));
        }
    }

    /// The fast engine (implicit-GEMM convolution, fused ReLU, reused
    /// activation arena) agrees with the golden oracle on every random weighted
    /// network, within float tolerance, and keeps agreeing when the same
    /// engine instance is reused (the arena holds no stale state).
    #[test]
    fn fast_engine_matches_golden_oracle(seed in any::<u64>()) {
        let net = random_weighted_chain(seed);
        let golden = GoldenEngine::new(&net).unwrap();
        let mut fast = FastEngine::new(&net).unwrap();
        let mut rng = TensorRng::seeded(seed ^ 0x9e37_79b9);
        for _ in 0..2 {
            let input = rng.uniform(net.input_shape, -1.0, 1.0);
            let want = golden.infer(&input).unwrap();
            let got = fast.infer(&input).unwrap();
            prop_assert_eq!(got.shape(), want.shape());
            prop_assert!(
                got.all_close_tol(&want, 1e-4, 1e-4),
                "fast engine diverged from golden on seed {}", seed
            );
        }
    }

    /// Every random DAG validates, shape-infers and cost-accounts
    /// consistently; merge nodes see their full fan-in.
    #[test]
    fn random_dags_are_consistent(seed in any::<u64>()) {
        let net = random_dag(seed);
        let costs = net.costs().unwrap();
        prop_assert_eq!(costs.len(), net.node_count());
        let ins_multi = net.input_shapes_multi().unwrap();
        for id in net.node_ids() {
            let preds = net.inputs_of(id);
            if !preds.is_empty() {
                prop_assert_eq!(ins_multi[id.index()].len(), preds.len());
            }
            prop_assert_eq!(costs[id.index()].node, id);
        }
        prop_assert!(net.feature_extraction_flops().unwrap() <= net.total_flops().unwrap());
    }

    /// The fast engine agrees with the golden oracle on every random
    /// weighted DAG — branches, eltwise and concat merges included —
    /// within float tolerance, including on engine reuse.
    #[test]
    fn fast_engine_matches_golden_oracle_on_dags(seed in any::<u64>()) {
        let net = random_weighted_dag(seed);
        let golden = GoldenEngine::new(&net).unwrap();
        let mut fast = FastEngine::new(&net).unwrap();
        let mut rng = TensorRng::seeded(seed ^ 0x517c_c1b7);
        for _ in 0..2 {
            let input = rng.uniform(net.input_shape, -1.0, 1.0);
            let want = golden.infer(&input).unwrap();
            let got = fast.infer(&input).unwrap();
            prop_assert_eq!(got.shape(), want.shape());
            prop_assert!(
                got.all_close_tol(&want, 1e-4, 1e-4),
                "fast engine diverged from golden on DAG seed {}", seed
            );
        }
    }

    /// The INT8 quantized engine, calibrated with min/max observers on a
    /// small batch, stays within its own declared per-layer error budgets
    /// against the golden oracle on every random weighted chain — the
    /// budgets are honest, not vacuous.
    #[test]
    fn quantized_engine_honors_budgets_on_chains(seed in 0u64..128) {
        let net = random_weighted_chain(seed);
        let mut rng = TensorRng::seeded(seed ^ 0x2545_f491);
        let calib: Vec<Tensor> =
            (0..2).map(|_| rng.uniform(net.input_shape, -1.0, 1.0)).collect();
        let mut q = QuantizedEngine::calibrate(&net, &calib).unwrap();
        let report = q.accuracy_report(&calib).unwrap();
        prop_assert!(
            report.within_budget(),
            "seed {}: worst layer {:?}", seed, report.worst()
        );
    }

    /// Same property over random weighted DAGs: concat/eltwise merges of
    /// differently-scaled branches requantize onto a common output scale
    /// and the per-layer budgets still hold.
    #[test]
    fn quantized_engine_honors_budgets_on_dags(seed in 0u64..128) {
        let net = random_weighted_dag(seed);
        let mut rng = TensorRng::seeded(seed ^ 0x9e37_79b9);
        let calib: Vec<Tensor> =
            (0..2).map(|_| rng.uniform(net.input_shape, -1.0, 1.0)).collect();
        let mut q = QuantizedEngine::calibrate(&net, &calib).unwrap();
        let report = q.accuracy_report(&calib).unwrap();
        prop_assert!(
            report.within_budget(),
            "DAG seed {}: worst layer {:?}", seed, report.worst()
        );
    }

    /// Convolution distributes over input maps: conv(x, all maps) equals
    /// the sum of single-map convolutions with sliced weights.
    #[test]
    fn convolution_is_linear_in_input_maps(seed in any::<u64>()) {
        let mut rng = TensorRng::seeded(seed);
        let (c, h, w, k, f) = (2usize, 6usize, 6usize, 3usize, 2usize);
        let input = rng.uniform(Shape::chw(c, h, w), -1.0, 1.0);
        let weights = rng.uniform(Shape::new(f, c, k, k), -0.5, 0.5);
        let out_shape = Shape::new(1, f, h - k + 1, w - k + 1);
        let full = golden::convolve(&input, &weights, None, out_shape, f, k, 1, 0, false);

        let mut acc = Tensor::zeros(out_shape);
        for ci in 0..c {
            // Slice map ci of input and weights into 1-channel tensors.
            let map = Tensor::from_vec(
                Shape::chw(1, h, w),
                input.map_slice(0, ci).to_vec(),
            );
            let mut wslice = Tensor::zeros(Shape::new(f, 1, k, k));
            for fi in 0..f {
                for m in 0..k {
                    for n in 0..k {
                        *wslice.at_mut(fi, 0, m, n) = weights.at(fi, ci, m, n);
                    }
                }
            }
            let part = golden::convolve(&map, &wslice, None, out_shape, f, k, 1, 0, false);
            for (a, p) in acc.as_mut_slice().iter_mut().zip(part.as_slice()) {
                *a += p;
            }
        }
        prop_assert!(full.all_close(&acc));
    }

    /// Max pooling is idempotent under repetition with kernel 1 and
    /// bounded by the input range.
    #[test]
    fn pooling_respects_input_range(seed in any::<u64>()) {
        let mut rng = TensorRng::seeded(seed);
        let input = rng.uniform(Shape::chw(2, 8, 8), -5.0, 5.0);
        let out_shape = Shape::new(1, 2, 4, 4);
        for method in [PoolKind::Max, PoolKind::Average] {
            let out = golden::pool(&input, out_shape, method, 2, 2, 0);
            let lo = input.as_slice().iter().copied().fold(f32::INFINITY, f32::min);
            let hi = input.as_slice().iter().copied().fold(f32::NEG_INFINITY, f32::max);
            prop_assert!(out.as_slice().iter().all(|&v| v >= lo && v <= hi));
        }
    }

    /// Softmax outputs are a probability distribution regardless of
    /// input scale; log-softmax is its logarithm.
    #[test]
    fn softmax_is_a_distribution(vals in prop::collection::vec(-30.0f32..30.0, 2..16)) {
        let t = Tensor::from_vec(Shape::vector(vals.len()), vals);
        let p = golden::softmax(&t, false);
        let sum: f32 = p.as_slice().iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4);
        prop_assert!(p.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
        let lp = golden::softmax(&t, true);
        for (a, b) in p.as_slice().iter().zip(lp.as_slice()) {
            prop_assert!((a.ln() - b).abs() < 1e-4);
        }
    }

    /// Weight-shape bookkeeping: installed random weights always match
    /// the declared shapes (set_weights validates, attach relies on it).
    #[test]
    fn weight_shapes_agree_with_installation(seed in 0u64..256) {
        let net = random_weighted_chain(seed);
        for (i, layer) in net.layers.iter().enumerate() {
            match net.node_weight_shapes(NodeId::from_index(i)).unwrap() {
                Some((ws, bs)) => {
                    let lw = net.weights_of(&layer.name).unwrap();
                    prop_assert_eq!(lw.weights.shape(), ws);
                    prop_assert_eq!(lw.bias.as_ref().map(|b| b.shape()), bs);
                    let weighted_kind = matches!(
                        layer.kind,
                        LayerKind::Convolution { .. } | LayerKind::InnerProduct { .. }
                    );
                    prop_assert!(weighted_kind);
                }
                None => prop_assert!(net.weights_of(&layer.name).is_none()),
            }
        }
    }
}
