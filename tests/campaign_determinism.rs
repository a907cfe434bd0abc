//! Property tests for campaign replayability: the whole point of a seeded
//! fault schedule is that `<seed>:<n>` names one exact experiment. Same
//! seed + same matrix configuration must reproduce the schedule, the
//! manifest, and the full result matrix (including its `failures` set)
//! byte for byte; different seeds must explore different schedules.

use isacmp::{run_matrix_opts, CampaignManifest, CampaignSpec, MatrixOptions, SizeClass, Workload};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn same_seed_reproduces_the_manifest(seed in any::<u64>(), n in 4usize..16) {
        let spec = CampaignSpec { seed, n_faults: n };
        let a = CampaignManifest::sample(spec);
        let b = CampaignManifest::sample(spec);
        // Compare the schedules themselves, not just the (trivially equal)
        // seed fields — and the serialized artifact byte for byte.
        prop_assert_eq!(&a.specs, &b.specs);
        prop_assert_eq!(a.to_json(), b.to_json());
        prop_assert_eq!(a.specs.len(), n);

        // The manifest survives its own serialization, full u64 seed and all.
        let back = CampaignManifest::from_json(&a.to_json())
            .map_err(TestCaseError::fail)?;
        prop_assert_eq!(back, a);
    }

    #[test]
    fn different_seeds_sample_different_schedules(seed in any::<u64>(), n in 4usize..16) {
        let a = CampaignManifest::sample(CampaignSpec { seed, n_faults: n });
        let b = CampaignManifest::sample(CampaignSpec {
            seed: seed.wrapping_add(1),
            n_faults: n,
        });
        // With >= 4 sampled (kind, instret, argument) draws, two SplitMix64
        // streams colliding on every fault would be astronomical.
        prop_assert!(a.specs != b.specs, "seeds {seed} and {} collided: {:?}", seed.wrapping_add(1), a.specs);
    }
}

proptest! {
    // Each case runs the 4-cell STREAM matrix twice under injection; keep
    // the case count low so the suite stays fast.
    #![proptest_config(ProptestConfig::with_cases(3))]
    #[test]
    fn seeded_matrix_runs_are_byte_identical(seed in any::<u64>(), n in 2usize..6) {
        let manifest = CampaignManifest::sample(CampaignSpec { seed, n_faults: n });
        let opts = MatrixOptions {
            campaign: Some(manifest.campaign().map_err(TestCaseError::fail)?),
            ..Default::default()
        };
        let a = run_matrix_opts(&[Workload::Stream], SizeClass::Test, &opts);
        let b = run_matrix_opts(&[Workload::Stream], SizeClass::Test, &opts);
        // Every cell and every typed failure record — one serialized blob.
        prop_assert_eq!(a.to_json(), b.to_json());
        prop_assert_eq!(a.cells.len() + a.failures.len(), 4, "all four cells accounted for");
    }
}
