//! Property tests over the Caffe formats: binary round trips with
//! arbitrary message contents and prototxt robustness.

#![allow(clippy::unwrap_used)] // test code: unwrap is the assertion

use condor_caffe::{
    BlobProto, BlobShape, ConvolutionParameter, InnerProductParameter, InputParameter,
    LayerParameter, NetParameter, PoolMethod, PoolingParameter, TextMessage,
};
use proptest::prelude::*;

fn blob_strategy() -> impl Strategy<Value = BlobProto> {
    (1usize..4, 1usize..4, 1usize..5, 1usize..5).prop_flat_map(|(n, c, h, w)| {
        prop::collection::vec(-100.0f32..100.0, n * c * h * w).prop_map(move |data| BlobProto {
            shape: Some(BlobShape::nchw(n, c, h, w)),
            data,
            ..BlobProto::default()
        })
    })
}

fn conv_param_strategy() -> impl Strategy<Value = ConvolutionParameter> {
    (1u32..64, any::<bool>(), 0u32..3, 1u32..8, 1u32..4).prop_map(
        |(num_output, bias_term, pad, kernel_size, stride)| ConvolutionParameter {
            num_output,
            bias_term,
            pad,
            kernel_size,
            stride,
        },
    )
}

fn pool_param_strategy() -> impl Strategy<Value = PoolingParameter> {
    (any::<bool>(), 1u32..5, 1u32..4, 0u32..2).prop_map(|(max, kernel_size, stride, pad)| {
        PoolingParameter {
            pool: if max {
                PoolMethod::Max
            } else {
                PoolMethod::Ave
            },
            kernel_size,
            stride,
            pad,
        }
    })
}

fn layer_strategy() -> impl Strategy<Value = LayerParameter> {
    (
        "[a-z][a-z0-9_]{0,12}",
        prop_oneof![
            conv_param_strategy().prop_map(|p| ("Convolution".to_string(), Some(p), None, None)),
            pool_param_strategy().prop_map(|p| ("Pooling".to_string(), None, Some(p), None)),
            (1u32..128, any::<bool>()).prop_map(|(n, b)| (
                "InnerProduct".to_string(),
                None,
                None,
                Some(InnerProductParameter {
                    num_output: n,
                    bias_term: b
                })
            )),
            Just(("ReLU".to_string(), None, None, None)),
            Just(("Softmax".to_string(), None, None, None)),
        ],
        prop::collection::vec(blob_strategy(), 0..3),
        -1.0f32..1.0,
    )
        .prop_map(
            |(name, (type_, conv, pool, ip), blobs, slope)| LayerParameter {
                name: name.clone(),
                type_: type_.clone(),
                bottom: vec![format!("{name}_in")],
                top: vec![name.clone()],
                blobs,
                convolution_param: conv,
                pooling_param: pool,
                inner_product_param: ip,
                relu_negative_slope: if type_ == "ReLU" { slope } else { 0.0 },
                ..LayerParameter::default()
            },
        )
}

fn net_strategy() -> impl Strategy<Value = NetParameter> {
    (
        "[A-Za-z][A-Za-z0-9_-]{0,16}",
        prop::collection::vec(layer_strategy(), 0..6),
        prop::collection::vec(1u64..64, 4),
    )
        .prop_map(|(name, mut layer, dims)| {
            // Prepend an Input layer so the net resembles real deploy
            // prototxts.
            layer.insert(
                0,
                LayerParameter {
                    name: "data".into(),
                    type_: "Input".into(),
                    top: vec!["data".into()],
                    input_param: Some(InputParameter {
                        shape: vec![BlobShape { dim: dims }],
                    }),
                    ..LayerParameter::default()
                },
            );
            NetParameter {
                name,
                layer,
                ..NetParameter::default()
            }
        })
}

proptest! {
    /// Arbitrary NetParameter trees survive the binary encode/decode
    /// round trip exactly.
    #[test]
    fn caffemodel_roundtrip(net in net_strategy()) {
        let bytes = net.encode();
        let back = NetParameter::decode(&bytes).unwrap();
        prop_assert_eq!(back, net);
    }

    /// Blob data survives with full f32 fidelity.
    #[test]
    fn blob_roundtrip_preserves_floats(blob in blob_strategy()) {
        let net = NetParameter {
            layer: vec![LayerParameter {
                name: "l".into(),
                type_: "Convolution".into(),
                blobs: vec![blob.clone()],
                ..LayerParameter::default()
            }],
            ..NetParameter::default()
        };
        let back = NetParameter::decode(&net.encode()).unwrap();
        prop_assert_eq!(&back.layer[0].blobs[0], &blob);
        // And the tensor view agrees.
        let t = blob.clone().into_tensor().unwrap();
        prop_assert_eq!(t.as_slice(), &blob.data[..]);
    }

    /// The binary decoder never panics on arbitrary bytes — it returns
    /// structured errors (or tolerantly skips unknown fields).
    #[test]
    fn decoder_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = NetParameter::decode(&bytes);
    }

    /// Truncating a valid caffemodel anywhere yields an error or a
    /// shorter-but-valid prefix — never a panic.
    #[test]
    fn truncation_is_safe(net in net_strategy(), cut in 0usize..512) {
        let bytes = net.encode();
        let cut = cut.min(bytes.len());
        let _ = NetParameter::decode(&bytes[..cut]);
    }

    /// The prototxt parser never panics on arbitrary text.
    #[test]
    fn prototxt_parser_never_panics(text in ".{0,256}") {
        let _ = TextMessage::parse(&text);
        let _ = NetParameter::from_prototxt(&text);
    }
}
