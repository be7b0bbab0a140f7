//! Snapshot of the artifacts the flow writes: the `.xo` payload (every
//! generated HLS source), the kernel XML and the host code, pinned by
//! length and FNV-1a-64 for the zoo networks at several fusion factors.
//! A change to code generation that alters a single byte fails here.

#![allow(clippy::unwrap_used)] // test code: unwrap is the assertion

use condor::Condor;
use condor_dataflow::Precision;
use condor_nn::{zoo, Network};

/// 64-bit FNV-1a.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(payload bytes, payload hash, kernel.xml hash, host code hash)`.
type Snapshot = (usize, u64, u64, u64);

fn zoo_net(name: &str) -> Network {
    match name {
        "lenet" => zoo::lenet(),
        "tc1" => zoo::tc1(),
        "resnet_block" => zoo::resnet_block(),
        "vgg16_features" => zoo::vgg16().feature_extraction_prefix().unwrap(),
        other => panic!("no zoo net {other}"),
    }
}

fn snapshot(net: &str, fusion: usize, precision: Precision) -> Snapshot {
    let built = Condor::from_network(zoo_net(net))
        .board("aws-f1")
        .fusion(fusion)
        .precision(precision)
        .build()
        .unwrap();
    (
        built.xo.payload.len(),
        fnv1a64(&built.xo.payload),
        fnv1a64(built.xo.xml.as_bytes()),
        fnv1a64(built.host_code.as_bytes()),
    )
}

/// Checks every case and reports all mismatches at once, each as the
/// table row it would need, so a deliberate change can be re-pinned.
fn check(cases: &[(&str, usize, Precision, Snapshot)]) {
    let mut wrong = Vec::new();
    for &(net, fusion, precision, want) in cases {
        let got = snapshot(net, fusion, precision);
        if got != want {
            wrong.push(format!(
                "(\"{net}\", {fusion}, Precision::{precision:?}, ({}, 0x{:016x}, 0x{:016x}, 0x{:016x})),",
                got.0, got.1, got.2, got.3
            ));
        }
    }
    assert!(wrong.is_empty(), "artifacts changed:\n{}", wrong.join("\n"));
}

#[rustfmt::skip]
const F32_CASES: &[(&str, usize, Precision, Snapshot)] = &[
    ("lenet", 1, Precision::F32, (44996, 0xb4cbcf9e55059e74, 0xe622d96bc3247114, 0xa1cdaaefab7d9e81)),
    ("lenet", 2, Precision::F32, (39526, 0x3e0a37211faa4530, 0xe622d96bc3247114, 0xa1cdaaefab7d9e81)),
    ("lenet", 4, Precision::F32, (21319, 0x1f455ac3d536fab1, 0xe622d96bc3247114, 0xa1cdaaefab7d9e81)),
    ("tc1", 1, Precision::F32, (42307, 0x63c067b4a39c5bef, 0x51029cb9f0ebd4d4, 0xb021e9ed0c1db8b5)),
    ("tc1", 2, Precision::F32, (39187, 0x05a003a10e88db6c, 0x51029cb9f0ebd4d4, 0xb021e9ed0c1db8b5)),
    ("tc1", 4, Precision::F32, (21025, 0x02167671cb7b3676, 0x51029cb9f0ebd4d4, 0xb021e9ed0c1db8b5)),
    ("resnet_block", 1, Precision::F32, (15658, 0xa0d5695977926399, 0x63d33849e6f8b2b4, 0xd796680c18c32ef9)),
    ("resnet_block", 2, Precision::F32, (15658, 0xa0d5695977926399, 0x63d33849e6f8b2b4, 0xd796680c18c32ef9)),
    ("resnet_block", 4, Precision::F32, (15658, 0xa0d5695977926399, 0x63d33849e6f8b2b4, 0xd796680c18c32ef9)),
    ("vgg16_features", 1, Precision::F32, (115102, 0x9d5bbe2d8b905789, 0xd24ef924db69f8a8, 0x0d52c2f670b3d2ad)),
    ("vgg16_features", 2, Precision::F32, (73274, 0x05c9dea2966a32ed, 0xd24ef924db69f8a8, 0x0d52c2f670b3d2ad)),
    ("vgg16_features", 4, Precision::F32, (46045, 0x81ce20137052a0c7, 0xd24ef924db69f8a8, 0x0d52c2f670b3d2ad)),
];

#[rustfmt::skip]
const INT8_CASES: &[(&str, usize, Precision, Snapshot)] = &[
    ("lenet", 1, Precision::Int8, (44996, 0xb4cbcf9e55059e74, 0xe622d96bc3247114, 0xa1cdaaefab7d9e81)),
    ("lenet", 2, Precision::Int8, (39526, 0x3e0a37211faa4530, 0xe622d96bc3247114, 0xa1cdaaefab7d9e81)),
    ("lenet", 4, Precision::Int8, (21319, 0x1f455ac3d536fab1, 0xe622d96bc3247114, 0xa1cdaaefab7d9e81)),
    ("tc1", 1, Precision::Int8, (42307, 0x63c067b4a39c5bef, 0x51029cb9f0ebd4d4, 0xb021e9ed0c1db8b5)),
    ("tc1", 2, Precision::Int8, (39187, 0x05a003a10e88db6c, 0x51029cb9f0ebd4d4, 0xb021e9ed0c1db8b5)),
    ("tc1", 4, Precision::Int8, (21025, 0x02167671cb7b3676, 0x51029cb9f0ebd4d4, 0xb021e9ed0c1db8b5)),
    ("resnet_block", 1, Precision::Int8, (15658, 0xa0d5695977926399, 0x63d33849e6f8b2b4, 0xd796680c18c32ef9)),
    ("resnet_block", 2, Precision::Int8, (15658, 0xa0d5695977926399, 0x63d33849e6f8b2b4, 0xd796680c18c32ef9)),
    ("resnet_block", 4, Precision::Int8, (15658, 0xa0d5695977926399, 0x63d33849e6f8b2b4, 0xd796680c18c32ef9)),
    ("vgg16_features", 1, Precision::Int8, (115102, 0x9d5bbe2d8b905789, 0xd24ef924db69f8a8, 0x0d52c2f670b3d2ad)),
    ("vgg16_features", 2, Precision::Int8, (73274, 0x05c9dea2966a32ed, 0xd24ef924db69f8a8, 0x0d52c2f670b3d2ad)),
    ("vgg16_features", 4, Precision::Int8, (46045, 0x81ce20137052a0c7, 0xd24ef924db69f8a8, 0x0d52c2f670b3d2ad)),
];

#[test]
fn generated_artifacts_match_their_snapshot() {
    check(F32_CASES);
}

/// The long form: every zoo net × fusion {1, 2, 4} × {F32, Int8}.
#[test]
#[ignore = "long form; CI runs it in release with --ignored"]
fn generated_artifacts_match_their_snapshot_every_precision() {
    check(F32_CASES);
    check(INT8_CASES);
}
