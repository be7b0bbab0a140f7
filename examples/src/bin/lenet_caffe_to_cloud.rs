//! The paper's headline use case: a pre-trained Caffe LeNet deployed to
//! the Amazon F1 instances with zero FPGA expertise.
//!
//! ```text
//! cargo run --release -p condor-examples --bin lenet_caffe_to_cloud
//! ```
//!
//! Walks the full Section 3.3 flow: prototxt + caffemodel → input
//! analysis → layer/network creation → SDAccel packaging → xclbin →
//! S3 staging → AFI generation → F1 slot load → batched inference.

use condor::{CloudContext, Condor, DeployTarget, Deployment};
use condor_caffe::{BlobProto, NetParameter};
use condor_nn::{dataset, zoo, GoldenEngine};
use condor_tensor::AllClose;

/// Fabricates the `caffemodel` bytes a real user would download: the
/// topology's NetParameter with per-layer weight blobs attached.
fn fabricate_caffemodel() -> Vec<u8> {
    let trained = zoo::lenet_weighted(123);
    let mut proto =
        NetParameter::from_prototxt(zoo::lenet_prototxt()).expect("reference prototxt parses");
    for lp in &mut proto.layer {
        if let Some(lw) = trained.weights_of(&lp.name) {
            lp.blobs.push(BlobProto::from_tensor(&lw.weights));
            if let Some(b) = &lw.bias {
                lp.blobs.push(BlobProto::from_tensor(b));
            }
        }
    }
    proto.encode()
}

fn main() {
    let prototxt = zoo::lenet_prototxt();
    let caffemodel = fabricate_caffemodel();
    println!(
        "inputs: lenet.prototxt ({} bytes), lenet.caffemodel ({} bytes)",
        prototxt.len(),
        caffemodel.len()
    );

    // Build at the paper's achieved clock for LeNet.
    let built = Condor::from_caffe(prototxt, Some(&caffemodel))
        .expect("Caffe frontend")
        .board("aws-f1")
        .freq_mhz(180.0)
        .parallelism(condor_dataflow::PeParallelism {
            parallel_in: 1,
            parallel_out: 1,
            fc_simd: 2,
        })
        .build()
        .expect("LeNet is synthesizable on aws-f1");
    println!(
        "built '{}' — kernel XML:\n{}",
        built.accelerator.name,
        built.xo.xml.lines().take(4).collect::<Vec<_>>().join("\n")
    );

    // Cloud deployment against the simulated AWS account.
    let ctx = CloudContext::new("condor-demo-bucket");
    let deployed = built
        .deploy(&DeployTarget::Cloud(&ctx))
        .expect("cloud deployment");
    match &deployed.deployment {
        Deployment::Cloud {
            afi_id,
            agfi_id,
            s3_key,
            instance_id,
            slots,
        } => {
            println!("\ncloud deployment complete:");
            println!("  S3        : s3://condor-demo-bucket/{s3_key}");
            println!("  AFI       : {afi_id} (global {agfi_id})");
            println!("  instance  : {instance_id}, FPGA slots {slots:?}");
        }
        other => panic!("expected cloud deployment, got {other:?}"),
    }
    condor_examples::print_metrics(&deployed, 64);

    // Batched inference, cross-checked against the golden engine.
    let samples = dataset::mnist_like(20, 9);
    let images: Vec<_> = samples.iter().map(|s| s.image.clone()).collect();
    let hw = deployed.infer_batch(&images).expect("inference");
    let reference = zoo::lenet_weighted(123);
    let golden = GoldenEngine::new(&reference)
        .expect("weighted")
        .infer_batch(&images)
        .expect("golden inference");
    let matching = hw
        .iter()
        .zip(&golden)
        .filter(|(h, g)| h.all_close(g))
        .count();
    println!();
    condor_examples::print_accuracy("accelerator vs golden engine", matching, images.len());
    assert_eq!(
        matching,
        images.len(),
        "hardware results must match software"
    );

    // Figure 5 flavour: the batch effect on this deployment.
    println!("\nmean time per image (pipeline effect):");
    for t in deployed.batch_sweep(&[1, 4, 16, 64]) {
        println!(
            "  batch {:>3}: {:>9.1} µs/image",
            t.batch, t.mean_us_per_image
        );
    }
}
