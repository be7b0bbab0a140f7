//! Shape and stream-type inference over a network (pass 1).
//!
//! Unlike `Network::validate`, which stops at the first failure, this
//! pass walks the whole network and *collects* every finding it can
//! still reason about: structural problems (C001–C004, plus C040 for
//! dangling DAG branches), shape-inference failures (C010–C012, C041,
//! C042) and weight mismatches (C013–C015). Shapes propagate along the
//! graph edges; a node is only diagnosed when *all* of its input shapes
//! were established — downstream of a failure the shapes are
//! unknowable, not separately broken. Weight checks keep running for
//! every layer whose input shape was established.
//!
//! Before the weight checks, the size gate ([`check_size`], C017)
//! counts every tensor and the MACs per image with checked arithmetic;
//! a network past a ceiling gets that one finding and nothing that
//! would multiply its extents.

use crate::diag::{Code, Diagnostic, Diagnostics};
use condor_nn::{LayerKind, Network, NodeId};
use condor_tensor::Shape;
use std::collections::BTreeSet;

/// Runs the shape/stream pass, appending findings to `diags`.
///
/// Returns the per-layer input shapes established before the first
/// shape failure (one entry per layer, in order), which the SDF pass
/// reuses to cross-check the plan topology; none at all when the size
/// gate refused the network.
pub fn check_network(net: &Network, diags: &mut Diagnostics) -> Vec<Option<Shape>> {
    check_structure(net, diags);
    let (ins, outs) = propagate_shapes(net, diags);
    if let Err(d) = check_sizes(net, &ins, &outs) {
        diags.push(d);
        return vec![None; ins.len()];
    }
    check_weights(net, &ins, diags);
    ins
}

/// Largest element count of any one tensor the flow accepts: an
/// activation, a layer's weights or a zero-padded input map. 2³¹
/// elements is 8 GiB of `f32`; the zoo's largest tensor is VGG-16's
/// `fc6` weights at 1.0·10⁸. Under it the product of two counts fits a
/// `u64`, so the unchecked arithmetic downstream (`Shape::len`,
/// `LayerKind::macs`, FIFO depths, window sizes) cannot overflow.
pub const MAX_TENSOR_ELEMS: u64 = 1 << 31;

/// Largest multiply-accumulate count per image the flow accepts, 2⁴⁰;
/// VGG-16 needs 1.5·10¹⁰.
pub const MAX_IMAGE_MACS: u64 = 1 << 40;

/// The size gate: the first tensor past [`MAX_TENSOR_ELEMS`], or a MAC
/// total past [`MAX_IMAGE_MACS`], as one C017 diagnostic. Every count is
/// computed with checked arithmetic, so a hostile shape (a 4·10⁹ ×
/// 4·10⁹ input) is refused, never wrapped. The frontend and the build
/// flow run it before anything else multiplies extents.
pub fn check_size(net: &Network) -> Result<(), Diagnostic> {
    let (ins, outs) = propagate_shapes(net, &mut Diagnostics::new());
    check_sizes(net, &ins, &outs)
}

/// [`check_size`] over shapes already propagated; layers whose shapes
/// are unknown are skipped.
fn check_sizes(
    net: &Network,
    ins: &[Option<Shape>],
    outs: &[Option<Shape>],
) -> Result<(), Diagnostic> {
    let refuse = |site: &str, what: String| {
        Diagnostic::new(Code::C017, what)
            .at(site.to_string())
            .hint("shrink the input or the layer: no board holds a network this large")
    };
    let count = |shape: Shape| {
        shape
            .checked_len()
            .map(|n| n as u64)
            .filter(|&n| n <= MAX_TENSOR_ELEMS)
    };
    if count(net.input_shape).is_none() {
        let what = format!(
            "network input {} holds more than 2^31 elements",
            net.input_shape
        );
        return Err(refuse("input", what));
    }
    for (layer, out) in net.layers.iter().zip(outs) {
        if let Some(out) = *out {
            if count(out).is_none() {
                let what = format!("output {out} holds more than 2^31 elements");
                return Err(refuse(&layer.name, what));
            }
        }
    }
    let mut macs = 0u64;
    for ((layer, input), out) in net.layers.iter().zip(ins).zip(outs) {
        let (Some(input), Some(out)) = (*input, *out) else {
            continue;
        };
        if let LayerKind::Convolution { pad, .. } | LayerKind::Pooling { pad, .. } = layer.kind {
            let padded = |len: usize| pad.checked_mul(2).and_then(|p| p.checked_add(len));
            let map = padded(input.h)
                .zip(padded(input.w))
                .and_then(|(h, w)| count(Shape::chw(input.c, h, w)));
            if map.is_none() {
                let what = format!("input {input} padded by {pad} holds more than 2^31 elements");
                return Err(refuse(&layer.name, what));
            }
        }
        let Some((weights, _)) = weight_shapes(&layer.kind, input) else {
            continue;
        };
        let Some(params) = count(weights) else {
            let what = format!("weights {weights} hold more than 2^31 elements");
            return Err(refuse(&layer.name, what));
        };
        // Each weight meets every output position once: `LayerKind::macs`.
        macs = (out.map_len() as u64)
            .checked_mul(params)
            .and_then(|m| macs.checked_add(m))
            .filter(|&m| m <= MAX_IMAGE_MACS)
            .ok_or_else(|| refuse(&layer.name, "MACs per image pass 2^40".to_string()))?;
    }
    Ok(())
}

/// The weight and bias shapes a weight-bearing layer expects for
/// `input`; `input` must have passed the size gate.
fn weight_shapes(kind: &LayerKind, input: Shape) -> Option<(Shape, Option<Shape>)> {
    match *kind {
        LayerKind::Convolution {
            num_output,
            kernel,
            bias,
            ..
        } => Some((
            Shape::new(num_output, input.c, kernel, kernel),
            bias.then(|| Shape::vector(num_output)),
        )),
        LayerKind::InnerProduct { num_output, bias } => Some((
            Shape::new(num_output, input.item_len(), 1, 1),
            bias.then(|| Shape::vector(num_output)),
        )),
        _ => None,
    }
}

/// Structural checks (the C00x group), collected exhaustively.
fn check_structure(net: &Network, diags: &mut Diagnostics) {
    if !net.layers.iter().any(|l| l.kind.is_compute()) {
        diags.push(
            Diagnostic::new(Code::C001, "network has no computational layers")
                .hint("add at least one convolution, pooling or inner-product layer"),
        );
    }
    let mut seen = BTreeSet::new();
    for (i, layer) in net.layers.iter().enumerate() {
        if layer.name.is_empty() {
            diags.push(
                Diagnostic::new(
                    Code::C002,
                    format!("layer at position {i} has an empty name"),
                )
                .hint("every layer needs a unique Caffe-style name"),
            );
        } else if !seen.insert(layer.name.as_str()) {
            diags.push(
                Diagnostic::new(Code::C003, format!("duplicate layer name '{}'", layer.name))
                    .at(layer.name.clone())
                    .hint("rename one of the layers; weights are keyed by name"),
            );
        }
        if matches!(layer.kind, LayerKind::Input) && i != 0 {
            diags.push(
                Diagnostic::new(
                    Code::C004,
                    format!("Input layer at position {i}, expected 0"),
                )
                .at(layer.name.clone())
                .hint("move the Input layer to the front of the chain"),
            );
        }
    }
    // Dangling branches (C040): every node except the network output
    // must be consumed by someone, or its compute would be synthesised
    // and thrown away. Trivially satisfied on linear chains.
    let last = net.node_count().checked_sub(1).map(NodeId::from_index);
    for id in net.node_ids() {
        if Some(id) != last && net.consumers_of(id).is_empty() {
            let name = net.node(id).map(|l| l.name.clone()).unwrap_or_default();
            diags.push(
                Diagnostic::new(
                    Code::C040,
                    format!("node {id} ('{name}') is consumed by no other node"),
                )
                .at(name)
                .hint("route the branch into a Concat/Eltwise join or remove it"),
            );
        }
    }
}

/// Propagates shape inference along the graph edges, reporting every
/// failure whose input shapes are all known and leaving shapes
/// downstream of a failure unknown. On a linear chain this degenerates
/// to the historical walk: one report, then silence. Returns each
/// layer's input (its first input, for merges) and output shape.
fn propagate_shapes(
    net: &Network,
    diags: &mut Diagnostics,
) -> (Vec<Option<Shape>>, Vec<Option<Shape>>) {
    let mut outs: Vec<Option<Shape>> = Vec::with_capacity(net.layers.len());
    let mut ins: Vec<Option<Shape>> = Vec::with_capacity(net.layers.len());
    for (i, layer) in net.layers.iter().enumerate() {
        let preds = net.inputs_of(NodeId::from_index(i));
        let in_shapes: Option<Vec<Shape>> = if preds.is_empty() {
            Some(vec![net.input_shape])
        } else {
            preds
                .iter()
                .map(|p| outs.get(p.index()).copied().flatten())
                .collect()
        };
        // The SDF pass cross-checks against the *primary* (first) input.
        ins.push(
            in_shapes
                .as_ref()
                .and_then(|v| v.first().copied())
                .or(in_shapes.as_ref().map(|_| net.input_shape)),
        );
        let out = match &in_shapes {
            None => None, // upstream already failed; unknowable here
            Some(shapes) => match layer.kind.output_shape_multi(shapes) {
                Ok(out) => Some(out),
                Err(e) => {
                    let code = Code::from_nn_kind(condor_nn::NnErrorKind::Shape(e.kind));
                    diags.push(
                        Diagnostic::new(code, e.message.clone())
                            .at(layer.name.clone())
                            .hint(shape_hint(
                                &layer.kind,
                                shapes.first().copied().unwrap_or(net.input_shape),
                            )),
                    );
                    None
                }
            },
        };
        outs.push(out);
    }
    (ins, outs)
}

/// A fix hint tailored to the failing layer kind.
fn shape_hint(kind: &LayerKind, input: Shape) -> String {
    match kind {
        LayerKind::Convolution { pad, .. } | LayerKind::Pooling { pad, .. } => {
            format!(
                "input is {}x{} (pad {pad}); shrink the kernel below \
                 {} or pad the input",
                input.h,
                input.w,
                input.h.min(input.w) + 2 * pad + 1
            )
        }
        LayerKind::Softmax { .. } => format!(
            "insert an InnerProduct (or flatten) before softmax; \
             input still has a {}x{} spatial extent",
            input.h, input.w
        ),
        _ => "check the layer hyper-parameters".to_string(),
    }
}

/// Weight checks for every layer whose input shape is known: fan-in
/// mismatches (C015), other shape mismatches (C013), missing weights
/// (C014, warning) and weights keyed to no layer (C013).
fn check_weights(net: &Network, ins: &[Option<Shape>], diags: &mut Diagnostics) {
    for (layer, input) in net.layers.iter().zip(ins) {
        let Some(input) = *input else { continue };
        let Some((want_w, want_b)) = weight_shapes(&layer.kind, input) else {
            continue;
        };
        let Some(installed) = net.weights_of(&layer.name) else {
            diags.push(
                Diagnostic::new(
                    Code::C014,
                    format!("no weights installed (expected {want_w})"),
                )
                .at(layer.name.clone())
                .hint("install trained weights or call attach_random_weights"),
            );
            continue;
        };
        let got = installed.weights.shape();
        if got != want_w {
            // Distinguish a wrong fan-in (the classic "previous layer
            // changed" bug) from any other dimension disagreement.
            let fan_in_only =
                got.n == want_w.n && got.h == want_w.h && got.w == want_w.w && got.c != want_w.c;
            let (code, hint) = if fan_in_only {
                (
                    Code::C015,
                    format!(
                        "weights expect {} input channels but the layer receives {}",
                        got.c, want_w.c
                    ),
                )
            } else {
                (
                    Code::C013,
                    "re-export weights for the current topology".to_string(),
                )
            };
            diags.push(
                Diagnostic::new(
                    code,
                    format!("weight shape {got} does not match expected {want_w}"),
                )
                .at(layer.name.clone())
                .hint(hint),
            );
        }
        match (&installed.bias, want_b) {
            (Some(b), Some(want)) if b.shape() != want => {
                diags.push(
                    Diagnostic::new(
                        Code::C013,
                        format!("bias shape {} does not match expected {want}", b.shape()),
                    )
                    .at(layer.name.clone()),
                );
            }
            (Some(_), None) => {
                diags.push(
                    Diagnostic::new(Code::C013, "bias installed but layer has bias_term: false")
                        .at(layer.name.clone()),
                );
            }
            (None, Some(want)) => {
                diags.push(
                    Diagnostic::new(Code::C013, format!("missing bias tensor (expected {want})"))
                        .at(layer.name.clone()),
                );
            }
            _ => {}
        }
    }
    for name in net.weights.keys() {
        if !net.layers.iter().any(|l| &l.name == name) {
            diags.push(
                Diagnostic::new(
                    Code::C013,
                    format!("weights keyed to unknown layer '{name}'"),
                )
                .hint("remove the stale entry or rename the layer"),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use condor_nn::{zoo, Layer};
    use condor_tensor::Tensor;

    fn run(net: &Network) -> Diagnostics {
        let mut d = Diagnostics::new();
        check_network(net, &mut d);
        d
    }

    #[test]
    fn clean_networks_have_no_errors() {
        for net in [zoo::tc1(), zoo::lenet(), zoo::vgg16(), zoo::resnet_block()] {
            let d = run(&net);
            assert!(!d.has_errors(), "{}: {}", net.name, d.render());
        }
    }

    #[test]
    fn dangling_branch_reports_c040() {
        use condor_nn::NetworkBuilder;
        let mut b = NetworkBuilder::new("dangling", Shape::chw(3, 8, 8));
        let data = b.add(Layer::new("data", LayerKind::Input), &[]).unwrap();
        let conv = |name: &str| {
            Layer::new(
                name,
                LayerKind::Convolution {
                    num_output: 4,
                    kernel: 3,
                    stride: 1,
                    pad: 1,
                    bias: true,
                },
            )
        };
        // conv1 branches off data but nothing ever reads it back.
        b.add(conv("conv1"), &[data]).unwrap();
        b.add(conv("conv2"), &[data]).unwrap();
        let net = b.build().unwrap();
        let d = run(&net);
        assert!(d.has_code(Code::C040), "{}", d.render());
    }

    #[test]
    fn mismatched_merge_inputs_report_c041() {
        let mut net = zoo::resnet_block();
        // Shrink conv2's output maps behind the builder's back: the
        // eltwise join now sees 8-channel vs 4-channel operands.
        if let Some(l) = net.layers.iter_mut().find(|l| l.name == "conv2") {
            if let LayerKind::Convolution { num_output, .. } = &mut l.kind {
                *num_output = 4;
            }
        }
        let d = run(&net);
        assert!(d.has_code(Code::C041), "{}", d.render());
    }

    #[test]
    fn unary_layer_with_two_inputs_reports_c042() {
        let mut net = zoo::resnet_block();
        // Rewrite the two-input join into a unary ReLU behind the
        // builder's back: fan-in 2 is impossible for that kind.
        if let Some(l) = net.layers.iter_mut().find(|l| l.name == "join") {
            l.kind = LayerKind::ReLU {
                negative_slope: 0.0,
            };
        }
        let d = run(&net);
        assert!(d.has_code(Code::C042), "{}", d.render());
    }

    #[test]
    fn unweighted_networks_only_warn_about_weights() {
        let d = run(&zoo::lenet());
        assert!(d.iter().all(|x| x.code == Code::C014), "{}", d.render());
        // Weighted variant is fully clean.
        let d = run(&zoo::lenet_weighted(1));
        assert!(d.is_empty(), "{}", d.render());
    }

    fn one_layer(input: Shape, kind: LayerKind) -> Network {
        Network::new("sized", input, vec![Layer::new("l", kind)]).unwrap()
    }

    fn conv(num_output: usize, kernel: usize, stride: usize, pad: usize) -> LayerKind {
        LayerKind::Convolution {
            num_output,
            kernel,
            stride,
            pad,
            bias: true,
        }
    }

    /// Each count past its ceiling is refused with one C017 at its site,
    /// the only finding of the pass; counts under the ceilings pass.
    #[test]
    fn size_gate_refuses_each_count_past_its_ceiling() {
        let fc = LayerKind::InnerProduct {
            num_output: 1 << 16,
            bias: false,
        };
        let refused = [
            // The committed hostile input: every product overflows u64.
            (
                one_layer(
                    Shape::chw(3, 4_000_000_000, 4_000_000_000),
                    conv(2_000_000_000, 3, 1, 0),
                ),
                "input",
            ),
            // 2^30 input elements, 2^32 output elements.
            (
                one_layer(Shape::chw(1, 1 << 15, 1 << 15), conv(4, 1, 1, 0)),
                "l",
            ),
            // A 2x2 output read from a (1 + 2^21)^2 zero-padded map.
            (
                one_layer(Shape::chw(1, 1, 1), conv(1, 1, 1 << 21, 1 << 20)),
                "l",
            ),
            // 2^32 weights.
            (one_layer(Shape::vector(1 << 16), fc), "l"),
            // 2^31 outputs, 2^40.2 MACs.
            (
                one_layer(Shape::chw(64, 1 << 12, 1 << 12), conv(128, 3, 1, 1)),
                "l",
            ),
        ];
        for (net, site) in &refused {
            let err = check_size(net).unwrap_err();
            assert_eq!((err.code, err.site.as_deref()), (Code::C017, Some(*site)));
            let d = run(net);
            assert_eq!(d.codes(), ["C017"], "{}", d.render());
        }
        // 2^30 outputs and 2^39.2 MACs pass, as does every zoo network.
        check_size(&one_layer(
            Shape::chw(64, 1 << 12, 1 << 12),
            conv(64, 3, 1, 1),
        ))
        .unwrap();
        for net in [zoo::vgg16(), zoo::lenet(), zoo::tc1(), zoo::resnet_block()] {
            check_size(&net).unwrap();
        }
    }

    #[test]
    fn oversized_kernel_reports_c011_once_then_stops() {
        let mut net = zoo::lenet();
        if let Some(l) = net.layers.iter_mut().find(|l| l.name == "conv1") {
            if let LayerKind::Convolution { kernel, .. } = &mut l.kind {
                *kernel = 40;
            }
        }
        let d = run(&net);
        assert!(d.has_code(Code::C011), "{}", d.render());
        // Downstream layers are unknowable, not separately broken.
        assert_eq!(d.error_count(), 1, "{}", d.render());
    }

    #[test]
    fn early_softmax_reports_c012() {
        let mut net = zoo::lenet();
        net.layers
            .insert(2, Layer::new("bad_prob", LayerKind::Softmax { log: false }));
        let d = run(&net);
        assert!(d.has_code(Code::C012), "{}", d.render());
    }

    #[test]
    fn duplicate_and_empty_names_collected_together() {
        let mut net = zoo::lenet();
        if let Some(l) = net.layers.iter_mut().find(|l| l.name == "pool1") {
            l.name = "conv1".to_string();
        }
        if let Some(l) = net.layers.iter_mut().find(|l| l.name == "relu1") {
            l.name = String::new();
        }
        let d = run(&net);
        assert!(d.has_code(Code::C003), "{}", d.render());
        assert!(d.has_code(Code::C002), "{}", d.render());
    }

    #[test]
    fn wrong_fanin_weights_report_c015() {
        let mut net = zoo::lenet_weighted(3);
        // conv2 expects 50×20×5×5; install 50×10×5×5 behind the API's back.
        let w = net.weights.get_mut("conv2").unwrap();
        w.weights = Tensor::zeros(Shape::new(50, 10, 5, 5));
        let d = run(&net);
        assert!(d.has_code(Code::C015), "{}", d.render());
    }

    #[test]
    fn other_weight_mismatch_reports_c013() {
        let mut net = zoo::lenet_weighted(3);
        let w = net.weights.get_mut("conv2").unwrap();
        w.weights = Tensor::zeros(Shape::new(50, 20, 3, 3));
        let d = run(&net);
        assert!(d.has_code(Code::C013), "{}", d.render());
        assert!(!d.has_code(Code::C015), "{}", d.render());
    }

    #[test]
    fn orphaned_weights_report_c013() {
        let mut net = zoo::lenet_weighted(3);
        let w = net.weights.get("conv1").unwrap().clone();
        net.weights.insert("ghost".to_string(), w);
        let d = run(&net);
        assert!(d.has_code(Code::C013), "{}", d.render());
    }

    #[test]
    fn returned_shapes_match_network_inference() {
        let net = zoo::lenet();
        let mut d = Diagnostics::new();
        let ins = check_network(&net, &mut d);
        let want = net.input_shapes().unwrap();
        let got: Vec<Shape> = ins.into_iter().map(Option::unwrap).collect();
        assert_eq!(got, want);
    }
}
