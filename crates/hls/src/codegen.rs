//! HLS C source generation for PEs and filters.
//!
//! Paper Section 3.3: "the C code performing the computation of the layer
//! is automatically generated, and the PE is synthesized via Vivado HLS"
//! (step 3a); "Given the size of the sliding window and the size of the
//! input image, the code for the filters is automatically generated"
//! (step 3b); fully-connected layers generate "the C code of the related
//! PE" only (step 4). Fused PEs get "an additional outer loop that
//! iterates through the implemented layers, and a set of conditionals to
//! infer which input ports must be read".
//!
//! The generated sources use Vivado HLS idioms (`hls::stream`, pragmas)
//! and are emitted verbatim into the build artifacts so a user with real
//! tools can run the genuine flow.

use condor_dataflow::window::{push_decimal, FilterSpec};
use condor_dataflow::{PePlan, PlannedLayer};
use condor_nn::LayerKind;
use std::fmt::Write as _;

/// Sanitises a layer/PE name into a C identifier.
fn c_ident(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    if out.chars().next().is_none_or(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

/// Generates the C source of one filter process (paper step 3b).
///
/// "Each filter is associated to a set of inequalities that are used to
/// select which of the elements present in the input stream of the filter
/// have to be sent to the PE."
pub fn filter_source(pe_name: &str, spec: &FilterSpec, padded_w: usize) -> String {
    let next = spec.downstream_fifo_depth;
    let mut src = String::with_capacity(768);
    src.push_str("// Auto-generated by Condor: sliding-window filter\n// access (");
    push_decimal(&mut src, spec.row);
    src.push_str(", ");
    push_decimal(&mut src, spec.col);
    src.push_str("), chain position ");
    push_decimal(&mut src, spec.position);
    src.push_str(".\n#include <hls_stream.h>\n\nvoid ");
    src.push_str(&c_ident(pe_name));
    src.push_str("_filter_");
    push_decimal(&mut src, spec.row);
    src.push('_');
    push_decimal(&mut src, spec.col);
    src.push_str("(\n    hls::stream<float> &in,\n");
    if next.is_some() {
        src.push_str("    hls::stream<float> &next,\n");
    }
    src.push_str(
        "    hls::stream<float> &to_pe,\n    int rows, int cols) {\n#pragma HLS INLINE off\n",
    );
    if let Some(depth) = next {
        src.push_str("#pragma HLS STREAM variable=next depth=");
        push_decimal(&mut src, depth);
        src.push_str(" // spatial distance\n");
    }
    src.push_str(
        "    for (int i = 0; i < rows; i++) {\n        for (int j = 0; j < cols; j++) {\n\
         #pragma HLS PIPELINE II=1\n            float v = in.read();\n            if (",
    );
    spec.write_domain(&mut src);
    src.push_str(") {\n                to_pe.write(v);\n            }\n");
    if next.is_some() {
        src.push_str("            next.write(v);\n");
    }
    src.push_str("        }\n    }\n}\n// padded row width: ");
    push_decimal(&mut src, padded_w);
    src.push('\n');
    src
}

/// Generates the C source of a feature-extraction PE (paper step 3a),
/// including the fused-layer outer loop and port-selection conditionals
/// when the PE implements more than one logical layer.
pub fn pe_source(pe: &PePlan) -> String {
    let name = c_ident(&pe.name);
    let k = pe.max_window();
    let mut src = String::new();
    let _ = writeln!(src, "// Auto-generated by Condor: feature-extraction PE");
    let _ = writeln!(
        src,
        "// implements {} logical layer(s): {}",
        pe.layers.len(),
        pe.layers
            .iter()
            .map(|l| l.name.as_str())
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(src, "#include <hls_stream.h>");
    let _ = writeln!(src);
    let _ = writeln!(src, "#define {}_K {k}", name.to_uppercase());
    let _ = writeln!(src);
    let _ = writeln!(src, "void {name}(");
    let _ = writeln!(
        src,
        "    hls::stream<float> window[{k}*{k}], // one port per filter"
    );
    let _ = writeln!(src, "    hls::stream<float> &weights, // from datamover");
    let _ = writeln!(src, "    hls::stream<float> &out) {{");
    let _ = writeln!(src, "#pragma HLS INTERFACE axis port=out");
    let _ = writeln!(src, "#pragma HLS ARRAY_PARTITION variable=window complete");
    let _ = writeln!(src);
    if pe.layers.len() > 1 {
        let _ = writeln!(
            src,
            "    // Outer loop iterating through the implemented layers."
        );
        let _ = writeln!(
            src,
            "    for (int layer = 0; layer < {}; layer++) {{",
            pe.layers.len()
        );
        for (idx, l) in pe.layers.iter().enumerate() {
            let _ = writeln!(src, "        if (layer == {idx}) {{ // {}", l.name);
            emit_layer_body(&mut src, l, k, 12);
            let _ = writeln!(src, "        }}");
        }
        let _ = writeln!(src, "    }}");
    } else {
        emit_layer_body(&mut src, &pe.layers[0], k, 4);
    }
    let _ = writeln!(src, "}}");
    src
}

fn emit_layer_body(src: &mut String, l: &PlannedLayer, max_k: usize, indent: usize) {
    let pad = " ".repeat(indent);
    match l.kind {
        LayerKind::Convolution {
            num_output,
            kernel,
            bias,
            ..
        } => {
            let _ = writeln!(
                src,
                "{pad}// convolution: {} -> {} ({kernel}x{kernel} kernel)",
                l.input, l.output
            );
            if kernel != max_k {
                let _ = writeln!(
                    src,
                    "{pad}// window size {kernel} < pipeline window {max_k}: only the"
                );
                let _ = writeln!(
                    src,
                    "{pad}// first {kernel}x{kernel} ports are read for this layer."
                );
            }
            let _ = writeln!(src, "{pad}for (int oy = 0; oy < {}; oy++)", l.output.h);
            let _ = writeln!(src, "{pad}for (int ox = 0; ox < {}; ox++) {{", l.output.w);
            let _ = writeln!(src, "{pad}#pragma HLS PIPELINE II=1");
            let _ = writeln!(src, "{pad}    float acc[{num_output}];");
            let _ = writeln!(src, "{pad}    for (int m = 0; m < {kernel}; m++)");
            let _ = writeln!(src, "{pad}    for (int n = 0; n < {kernel}; n++) {{");
            let _ = writeln!(src, "{pad}#pragma HLS UNROLL");
            let _ = writeln!(
                src,
                "{pad}        acc[phi] += w[phi][m][n] * window[m * {max_k} + n].read();"
            );
            let _ = writeln!(src, "{pad}    }}");
            if bias {
                let _ = writeln!(src, "{pad}    acc[phi] += b[phi];");
            }
            let _ = writeln!(src, "{pad}    out.write(acc[phi]);");
            let _ = writeln!(src, "{pad}}}");
        }
        LayerKind::Pooling { method, kernel, .. } => {
            let _ = writeln!(
                src,
                "{pad}// {method:?}-pooling {kernel}x{kernel}: {} -> {}",
                l.input, l.output
            );
            if kernel != max_k {
                let _ = writeln!(
                    src,
                    "{pad}// window size {kernel} < pipeline window {max_k}: only the"
                );
                let _ = writeln!(
                    src,
                    "{pad}// first {kernel}x{kernel} ports are read for this layer."
                );
            }
            let _ = writeln!(src, "{pad}for (int oy = 0; oy < {}; oy++)", l.output.h);
            let _ = writeln!(src, "{pad}for (int ox = 0; ox < {}; ox++) {{", l.output.w);
            let _ = writeln!(src, "{pad}#pragma HLS PIPELINE II=1");
            let _ = writeln!(src, "{pad}    float v = window[0].read();");
            let _ = writeln!(src, "{pad}    for (int t = 1; t < {kernel}*{kernel}; t++)");
            let reduce = match method {
                condor_nn::PoolKind::Max => "v = fmaxf(v, window[t].read());",
                condor_nn::PoolKind::Average => "v += window[t].read();",
            };
            let _ = writeln!(src, "{pad}        {reduce}");
            if matches!(method, condor_nn::PoolKind::Average) {
                let _ = writeln!(src, "{pad}    v /= {kernel}.0f * {kernel}.0f;");
            }
            let _ = writeln!(src, "{pad}    out.write(v);");
            let _ = writeln!(src, "{pad}}}");
        }
        LayerKind::ReLU { negative_slope } => {
            let _ = writeln!(
                src,
                "{pad}// fused ReLU (negative slope {negative_slope}) applied on the output stream"
            );
        }
        LayerKind::Sigmoid => {
            let _ = writeln!(src, "{pad}// fused sigmoid applied on the output stream");
        }
        LayerKind::TanH => {
            let _ = writeln!(src, "{pad}// fused tanh applied on the output stream");
        }
        LayerKind::Softmax { log } => {
            let _ = writeln!(
                src,
                "{pad}// fused {}softmax normalisation over {} classes",
                if log { "log-" } else { "" },
                l.input.c
            );
        }
        LayerKind::InnerProduct { .. } => {
            let _ = writeln!(src, "{pad}// see fc_pe_source for fully-connected PEs");
        }
        LayerKind::Concat => {
            let _ = writeln!(
                src,
                "{pad}// concat: drain each input stream in turn onto out ({} elems)",
                l.output.item_len()
            );
            let _ = writeln!(
                src,
                "{pad}for (int e = 0; e < {}; e++) {{",
                l.output.item_len()
            );
            let _ = writeln!(src, "{pad}#pragma HLS PIPELINE II=1");
            let _ = writeln!(src, "{pad}    out.write(window[0].read());");
            let _ = writeln!(src, "{pad}}}");
        }
        LayerKind::Eltwise { op } => {
            let combine = match op {
                condor_nn::EltwiseOp::Sum => "a + b",
                condor_nn::EltwiseOp::Prod => "a * b",
                condor_nn::EltwiseOp::Max => "fmaxf(a, b)",
            };
            let _ = writeln!(
                src,
                "{pad}// eltwise join: combine the two input streams element-wise"
            );
            let _ = writeln!(
                src,
                "{pad}for (int e = 0; e < {}; e++) {{",
                l.output.item_len()
            );
            let _ = writeln!(src, "{pad}#pragma HLS PIPELINE II=1");
            let _ = writeln!(src, "{pad}    float a = window[0].read();");
            let _ = writeln!(src, "{pad}    float b = window[1].read();");
            let _ = writeln!(src, "{pad}    out.write({combine});");
            let _ = writeln!(src, "{pad}}}");
        }
        LayerKind::Input => {}
    }
}

/// Generates the C source of a fully-connected PE (paper step 4): "a
/// fully-connected layer performs Multiply-and-Accumulation (MAC)
/// operations on all the input with the given weights, and this kind of
/// execution can be described as a 1×1 convolution … implemented as a
/// single-input/single-output convolutional PE" — no filter-chain memory
/// subsystem is generated.
pub fn fc_pe_source(pe: &PePlan) -> String {
    let name = c_ident(&pe.name);
    let simd = pe.parallelism.fc_simd;
    let mut src = String::new();
    let _ = writeln!(src, "// Auto-generated by Condor: fully-connected PE");
    let _ = writeln!(src, "// (1x1 convolution, single-input/single-output)");
    let _ = writeln!(src, "#include <hls_stream.h>");
    let _ = writeln!(src);
    let _ = writeln!(src, "void {name}(");
    let _ = writeln!(src, "    hls::stream<float> &in,");
    let _ = writeln!(src, "    hls::stream<float> &weights,");
    let _ = writeln!(src, "    hls::stream<float> &out) {{");
    for l in &pe.layers {
        if let LayerKind::InnerProduct { num_output, bias } = l.kind {
            let fan_in = l.input.item_len();
            let _ = writeln!(src, "    // {}: {fan_in} -> {num_output}", l.name);
            let _ = writeln!(src, "    for (int o = 0; o < {num_output}; o++) {{");
            let _ = writeln!(src, "        float acc = 0.0f;");
            let _ = writeln!(src, "        for (int h = 0; h < {fan_in}; h += {simd}) {{");
            let _ = writeln!(src, "#pragma HLS PIPELINE II=1");
            let _ = writeln!(src, "#pragma HLS UNROLL factor={simd}");
            let _ = writeln!(src, "            acc += weights.read() * x[h];");
            let _ = writeln!(src, "        }}");
            if bias {
                let _ = writeln!(src, "        acc += bias[o];");
            }
            let _ = writeln!(src, "        out.write(acc);");
            let _ = writeln!(src, "    }}");
        } else if !matches!(l.kind, LayerKind::Input) {
            let _ = writeln!(src, "    // fused {}: {}", l.kind.caffe_type(), l.name);
        }
    }
    let _ = writeln!(src, "}}");
    src
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use condor_dataflow::{FilterChain, PlanBuilder};
    use condor_nn::zoo;

    fn lenet_plan() -> condor_dataflow::AcceleratorPlan {
        let net = zoo::lenet();
        PlanBuilder::new(&net).build().unwrap()
    }

    #[test]
    fn conv_pe_source_structure() {
        let plan = lenet_plan();
        let src = pe_source(&plan.pes[0]); // conv1
        assert!(src.contains("void pe0("));
        assert!(src.contains("hls::stream<float> window[5*5]"));
        assert!(src.contains("#pragma HLS PIPELINE II=1"));
        assert!(src.contains("#pragma HLS UNROLL"));
        assert!(src.contains("convolution: 1x1x28x28 -> 1x20x24x24"));
    }

    #[test]
    fn fused_pe_gets_outer_layer_loop_and_conditionals() {
        let net = zoo::lenet();
        let plan = PlanBuilder::new(&net).fusion(10).build().unwrap();
        let src = pe_source(&plan.pes[0]); // all feature-extraction layers
        assert!(src.contains("for (int layer = 0; layer < 4; layer++)"));
        assert!(src.contains("if (layer == 0) { // conv1"));
        assert!(src.contains("if (layer == 1) { // pool1"));
        // Smaller-window layers only read a subset of ports.
        assert!(src.contains("only the"));
    }

    #[test]
    fn pool_pe_body_reduces_window() {
        let plan = lenet_plan();
        let src = pe_source(&plan.pes[1]); // pool1
        assert!(src.contains("Max-pooling 2x2"));
        assert!(src.contains("fmaxf"));
    }

    #[test]
    fn fc_pe_is_single_stream() {
        let plan = lenet_plan();
        let src = fc_pe_source(&plan.pes[4]); // ip1 + relu
        assert!(src.contains("single-input/single-output"));
        assert!(src.contains("// ip1: 800 -> 500"));
        assert!(src.contains("// fused ReLU: relu1"));
        assert!(!src.contains("window["));
    }

    #[test]
    fn fc_simd_controls_unroll_factor() {
        let net = zoo::lenet();
        let plan = PlanBuilder::new(&net)
            .parallelism(condor_dataflow::PeParallelism {
                parallel_in: 1,
                parallel_out: 1,
                fc_simd: 4,
            })
            .build()
            .unwrap();
        let src = fc_pe_source(&plan.pes[4]);
        assert!(src.contains("#pragma HLS UNROLL factor=4"));
        assert!(src.contains("h += 4"));
    }

    #[test]
    fn filter_source_carries_inequalities_and_fifo_depth() {
        let chain = FilterChain::new(5, 28, 28, 1, 0);
        let specs = chain.filter_specs();
        // A row-crossing filter: FIFO depth 24 on LeNet conv1.
        let crossing = specs
            .iter()
            .find(|s| s.downstream_fifo_depth == Some(24))
            .unwrap();
        let src = filter_source("pe0", crossing, 28);
        assert!(src.contains("depth=24 // spatial distance"));
        assert!(src.contains("to_pe.write(v);"));
        assert!(src.contains("next.write(v);"));
        assert!(src.contains("if ((i >="));
        // The last filter forwards to no one.
        let last = specs.last().unwrap();
        let src = filter_source("pe0", last, 28);
        assert!(!src.contains("next.write"));
    }

    #[test]
    fn identifiers_are_sanitised() {
        assert_eq!(c_ident("conv1/3x3"), "conv1_3x3");
        assert_eq!(c_ident("2ndlayer"), "_2ndlayer");
        assert_eq!(c_ident(""), "_");
    }
}
