//! Serving LeNet from both FPGA slots of an f1.4xlarge: concurrent
//! clients, dynamic batching on whichever slot is free, live metrics.
//!
//! ```text
//! cargo run --release -p condor-examples --bin serving
//! ```
//!
//! The paper's host runtime stops at "load the AFI and run a batch";
//! this example puts that handle behind `condor-serve`: 8 client
//! threads fire single-image requests, and each of the two F1 slots
//! takes them as hardware batches whenever it is free (the Figure 5
//! economics — per-image cost falls as the pipeline fills). The printed
//! snapshot shows the batch-size distribution and latency percentiles.

use condor::{CloudContext, Condor, DeployTarget, Deployment};
use condor_cloud::F1InstanceType;
use condor_nn::{dataset, zoo};
use condor_serve::{InferenceServer, ServeConfig};
use condor_tensor::Tensor;
use std::time::{Duration, Instant};

const CLIENTS: usize = 8;
const REQUESTS_PER_CLIENT: usize = 32;

fn main() {
    // Build LeNet and deploy to a 2-slot F1 instance: the AFI is loaded
    // on every slot, and each slot becomes a dispatch lane.
    let ctx =
        CloudContext::new("condor-serving-bucket").with_instance_type(F1InstanceType::F1_4xlarge);
    let deployed = Condor::from_network(zoo::lenet_weighted(2024))
        .board("aws-f1")
        .freq_mhz(180.0)
        .build()
        .expect("LeNet builds for aws-f1")
        .deploy(&DeployTarget::Cloud(&ctx))
        .expect("cloud deployment");
    if let Deployment::Cloud {
        instance_id, slots, ..
    } = &deployed.deployment
    {
        println!(
            "deployed on {} ({} — {} FPGA slots)",
            instance_id,
            ctx.instance_type.api_name(),
            slots.len()
        );
    }

    let server = InferenceServer::from_deployment(
        deployed,
        ServeConfig::default()
            .with_max_batch(16)
            .with_default_timeout(Duration::from_secs(10)),
    )
    .expect("server starts");
    println!("serving lanes: {:?}\n", server.backend_locations());

    // N concurrent clients, each classifying its own stream of digits.
    let started = Instant::now();
    let correct: usize = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let server = &server;
                scope.spawn(move || {
                    let samples = dataset::mnist_like(REQUESTS_PER_CLIENT, 7_000 + c as u64);
                    let mut agree = 0;
                    for sample in samples {
                        let image: Tensor = sample.image;
                        let probs = server.infer(image).expect("request served");
                        if probs.argmax() == sample.label {
                            agree += 1;
                        }
                    }
                    agree
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .sum()
    });
    let elapsed = started.elapsed();

    let total = CLIENTS * REQUESTS_PER_CLIENT;
    println!(
        "{CLIENTS} clients × {REQUESTS_PER_CLIENT} requests = {total} images in {:.2}s \
         ({:.0} images/s)",
        elapsed.as_secs_f64(),
        total as f64 / elapsed.as_secs_f64()
    );
    println!("label agreement with the generator: {correct}/{total}\n");

    let snapshot = server.shutdown();
    println!("final metrics snapshot:");
    print!("{snapshot}");

    let batches = snapshot
        .histogram("batch_size")
        .expect("batches were dispatched");
    assert!(
        batches.mean > 1.0,
        "dynamic batching should coalesce concurrent clients"
    );
    println!(
        "\nmean dispatched batch: {:.2} images (max {:.0}) — the Figure 5 \
         pipeline effect, captured by the serving layer",
        batches.mean, batches.max
    );
}
