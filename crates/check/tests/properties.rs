//! Property tests for the static verifier.
//!
//! Two contracts anchor `condor-check`:
//!
//! 1. **No false positives**: any plan the builder accepts for a valid
//!    network passes verification with zero errors — the checker never
//!    rejects what the flow would happily build.
//! 2. **No false negatives on the corpus**: every seeded defect is
//!    rejected with its expected stable code.
//!
//! Plus the pre-filter soundness bound, exercised over random networks
//! rather than just the zoo.

#![allow(clippy::unwrap_used)] // test code: unwrap is the assertion

use condor_check::{check, check_defect, corpus, PlanBounds, Severity};
use condor_dataflow::{PeParallelism, PlanBuilder, Precision};
use condor_hls::synthesize_plan;
use condor_nn::arbitrary::{random_chain, random_weighted_chain};
use proptest::prelude::*;

/// Derives a parallelism directive from the seed, covering degenerate
/// (1,1,1) through aggressive (8,8,8) corners.
fn parallelism_from(seed: u64) -> PeParallelism {
    let pick = |s: u64| 1usize << (s % 4); // 1, 2, 4, 8
    PeParallelism {
        parallel_in: pick(seed),
        parallel_out: pick(seed / 4),
        fc_simd: pick(seed / 16),
    }
}

proptest! {
    /// Builder-accepted plans verify clean: no errors, and for fully
    /// weighted networks no warnings either.
    #[test]
    fn accepted_plans_pass_verification(seed in 0u64..512) {
        let net = random_weighted_chain(seed);
        let fusion = 1 + (seed % 3) as usize;
        let plan = PlanBuilder::new(&net)
            .fusion(fusion)
            .parallelism(parallelism_from(seed))
            .build()
            .unwrap();
        let report = check(&net, &plan);
        prop_assert_eq!(
            report.diagnostics.error_count(), 0,
            "seed {}: {}", seed, report.render()
        );
        prop_assert!(
            report.diagnostics.iter().all(|d| d.severity != Severity::Error)
        );
    }

    /// Unweighted networks add only missing-weight warnings — the plan
    /// itself still verifies.
    #[test]
    fn unweighted_plans_only_warn(seed in 0u64..256) {
        let net = random_chain(seed);
        let plan = PlanBuilder::new(&net).build().unwrap();
        let report = check(&net, &plan);
        prop_assert!(report.passed(), "seed {}: {}", seed, report.render());
    }

    /// The DSE pre-filter bound never exceeds the true synthesis
    /// estimate, whatever the network, fusion or parallelism.
    #[test]
    fn prefilter_bound_is_sound(seed in 0u64..256) {
        let net = random_chain(seed);
        let bounds = PlanBounds::analyze(&net).unwrap();
        let p = parallelism_from(seed);
        let fusion = 1 + (seed % 4) as usize;
        let precision = if seed % 2 == 0 { Precision::F32 } else { Precision::Int8 };
        let plan = PlanBuilder::new(&net)
            .fusion(fusion)
            .parallelism(p)
            .precision(precision)
            .build()
            .unwrap();
        let device = condor_fpga::board("aws-f1").unwrap().device();
        let real = synthesize_plan(&plan, device).total;
        let lb = bounds.lower_bound(p, precision);
        prop_assert!(
            lb.fits_in(&real),
            "seed {}: bound {} exceeds real {}", seed, lb, real
        );
    }
}

/// Every entry of the seeded-defect corpus is rejected with its
/// expected stable code (the checker's false-negative guard).
#[test]
fn defect_corpus_is_rejected_with_expected_codes() {
    let corpus = corpus();
    assert!(corpus.len() >= 9, "corpus shrank to {}", corpus.len());
    for d in corpus {
        let report = check_defect(&d);
        assert!(!report.passed(), "{} must fail verification", d.name);
        assert!(
            report.diagnostics.has_code(d.expected),
            "{}: expected {}, diagnostics were [{}]",
            d.name,
            d.expected,
            report.diagnostics.codes().join(", ")
        );
    }
}
