//! Serving-layer guarantees under concurrency: exactly-once replies,
//! bit-identical outputs, and real batch coalescing across F1 slots.

#![allow(clippy::unwrap_used)] // test code: unwrap is the assertion

use condor::{
    CloudContext, Condor, CondorError, DeployTarget, DeployedAccelerator, ExecutionBackend,
};
use condor_cloud::F1InstanceType;
use condor_dataflow::PipelineModel;
use condor_nn::{dataset, zoo};
use condor_serve::{
    CpuBackend, DiskQueueConfig, Fleet, FleetConfig, InferenceServer, QueueBackend, ServeConfig,
};
use condor_tensor::Tensor;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn deployed_tc1(seed: u64) -> DeployedAccelerator {
    Condor::from_network(zoo::tc1_weighted(seed))
        .board("aws-f1")
        .freq_mhz(100.0)
        .build()
        .unwrap()
        .deploy(&DeployTarget::OnPremise)
        .unwrap()
}

proptest! {
    /// The acceptance property: under concurrent submitters, the server
    /// answers every accepted request exactly once, and each answer is
    /// bit-identical to what a direct sequential `infer_batch` on the
    /// same deployment produces for that image.
    #[test]
    fn concurrent_requests_answered_exactly_once_bit_identical(
        weight_seed in 0u64..4,
        threads in 2usize..6,
        per_thread in 1usize..4,
    ) {
        let deployed = deployed_tc1(weight_seed);
        // One distinct image per (thread, slot) pair.
        let images: Vec<Vec<Tensor>> = (0..threads)
            .map(|t| {
                dataset::usps_like(per_thread, 100 + (weight_seed * 31 + t as u64))
                    .into_iter()
                    .map(|s| s.image)
                    .collect()
            })
            .collect();
        let flat: Vec<Tensor> = images.iter().flatten().cloned().collect();
        let expected = deployed.infer_batch(&flat).unwrap();

        let server = InferenceServer::from_deployment(
            deployed,
            ServeConfig::default()
                .with_batch_window(Duration::from_millis(2))
                .with_default_timeout(Duration::from_secs(60)),
        )
        .unwrap();

        let outputs: Vec<Vec<Tensor>> = std::thread::scope(|scope| {
            let handles: Vec<_> = images
                .iter()
                .map(|mine| {
                    let server = &server;
                    scope.spawn(move || {
                        // Submit everything first so requests overlap,
                        // then collect: exactly one reply per ticket.
                        let tickets: Vec<_> = mine
                            .iter()
                            .map(|img| server.submit(img.clone()).unwrap())
                            .collect();
                        tickets
                            .into_iter()
                            .map(|t| t.wait().unwrap())
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        let got: Vec<&Tensor> = outputs.iter().flatten().collect();
        prop_assert_eq!(got.len(), expected.len());
        for (g, e) in got.iter().zip(&expected) {
            prop_assert_eq!(g.as_slice(), e.as_slice());
        }

        let snap = server.shutdown();
        prop_assert_eq!(snap.counter("requests_accepted"), flat.len() as u64);
        prop_assert_eq!(snap.counter("requests_completed"), flat.len() as u64);
        prop_assert_eq!(snap.counter("requests_timed_out"), 0);
        prop_assert_eq!(snap.counter("requests_failed"), 0);
    }
}

/// The acceptance scenario: 8 concurrent clients against both FPGA
/// slots of an f1.4xlarge, with the dispatched mean batch size
/// observably above 1 and every output bit-identical to sequential
/// execution.
#[test]
fn eight_clients_against_two_f1_slots_form_real_batches() {
    let ctx = CloudContext::new("serving-it-bucket").with_instance_type(F1InstanceType::F1_4xlarge);
    let deployed = Condor::from_network(zoo::lenet_weighted(3))
        .board("aws-f1")
        .freq_mhz(180.0)
        .build()
        .unwrap()
        .deploy(&DeployTarget::Cloud(&ctx))
        .unwrap();
    assert_eq!(deployed.replica_count(), 2);

    const CLIENTS: usize = 8;
    const PER_CLIENT: usize = 8;
    let images: Vec<Vec<Tensor>> = (0..CLIENTS)
        .map(|c| {
            dataset::mnist_like(PER_CLIENT, 500 + c as u64)
                .into_iter()
                .map(|s| s.image)
                .collect()
        })
        .collect();
    let flat: Vec<Tensor> = images.iter().flatten().cloned().collect();
    let expected = deployed.infer_batch(&flat).unwrap();

    let server = InferenceServer::from_deployment(
        deployed,
        ServeConfig::default()
            .with_max_batch(16)
            .with_batch_window(Duration::from_millis(10))
            .with_default_timeout(Duration::from_secs(60)),
    )
    .unwrap();
    assert_eq!(server.backend_locations().len(), 2);

    let outputs: Vec<Vec<Tensor>> = std::thread::scope(|scope| {
        let handles: Vec<_> = images
            .iter()
            .map(|mine| {
                let server = &server;
                scope.spawn(move || {
                    let tickets: Vec<_> = mine
                        .iter()
                        .map(|img| server.submit(img.clone()).unwrap())
                        .collect();
                    tickets
                        .into_iter()
                        .map(|t| t.wait().unwrap())
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (g, e) in outputs.iter().flatten().zip(&expected) {
        assert_eq!(
            g.as_slice(),
            e.as_slice(),
            "served output must be bit-identical to sequential infer_batch"
        );
    }

    let snap = server.shutdown();
    assert_eq!(
        snap.counter("requests_completed"),
        (CLIENTS * PER_CLIENT) as u64
    );
    let batches = snap.histogram("batch_size").expect("batches dispatched");
    assert!(
        batches.mean > 1.0,
        "dynamic batching must coalesce concurrent requests (mean batch {})",
        batches.mean
    );
    let latency = snap.histogram("latency_us").expect("latencies recorded");
    assert_eq!(latency.count, (CLIENTS * PER_CLIENT) as u64);
    assert!(latency.p99 >= latency.p50);
}

/// A backend that counts itself live from construction until drop.
struct TrackedBackend {
    inner: CpuBackend,
    live: Arc<AtomicUsize>,
}

impl TrackedBackend {
    fn boxed(live: &Arc<AtomicUsize>) -> Box<dyn ExecutionBackend> {
        live.fetch_add(1, Ordering::SeqCst);
        Box::new(TrackedBackend {
            inner: CpuBackend::new(&zoo::tc1_weighted(1)).unwrap(),
            live: Arc::clone(live),
        })
    }
}

impl Drop for TrackedBackend {
    fn drop(&mut self) {
        self.live.fetch_sub(1, Ordering::SeqCst);
    }
}

impl ExecutionBackend for TrackedBackend {
    fn infer_batch(&self, images: &[Tensor]) -> Result<Vec<Tensor>, CondorError> {
        self.inner.infer_batch(images)
    }
    fn pipeline(&self) -> PipelineModel {
        self.inner.pipeline()
    }
    fn location(&self) -> String {
        self.inner.location()
    }
}

/// A constructor that fails on its disk queue must leave nothing
/// behind: no thread may still own a backend once `Err` is returned.
/// The queue directory sits under a regular file, so the open fails on
/// the environment, not on the configuration.
#[test]
fn failed_disk_queue_open_leaves_no_backend_alive() {
    let file = std::env::temp_dir().join(format!("condor-serve-not-a-dir-{}", std::process::id()));
    std::fs::write(&file, b"regular file").unwrap();
    let queue = || QueueBackend::Disk(DiskQueueConfig::new(file.join("q")));

    let live = Arc::new(AtomicUsize::new(0));
    let server = InferenceServer::new(
        vec![TrackedBackend::boxed(&live)],
        ServeConfig::default().with_queue(queue()),
    );
    assert!(
        server.is_err(),
        "server opened a queue under a regular file"
    );
    assert_eq!(live.load(Ordering::SeqCst), 0, "server leaked its backend");

    let live = Arc::new(AtomicUsize::new(0));
    let provisioned = Arc::clone(&live);
    let fleet = Fleet::new(
        move |_: usize, _: u64| Ok(vec![TrackedBackend::boxed(&provisioned)]),
        FleetConfig::default().with_queue(queue()),
    );
    assert!(fleet.is_err(), "fleet opened a queue under a regular file");
    assert_eq!(live.load(Ordering::SeqCst), 0, "fleet leaked its backends");

    let _ = std::fs::remove_file(&file);
}
