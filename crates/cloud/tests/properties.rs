//! Property tests for the simulated cloud services.

#![allow(clippy::unwrap_used)] // test code: unwrap is the assertion

use condor_cloud::{xocc_link, AfiRegistry, AfiState, S3Client, Xclbin, XoFile};
use proptest::prelude::*;

proptest! {
    /// S3 get returns the last put for any key/body sequence.
    #[test]
    fn s3_last_write_wins(
        keys in prop::collection::vec("[a-z0-9/._-]{1,24}", 1..12),
        bodies in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..64), 1..12),
    ) {
        let s3 = S3Client::new();
        s3.create_bucket("prop-bucket").unwrap();
        let mut last: std::collections::BTreeMap<String, Vec<u8>> = Default::default();
        for (k, b) in keys.iter().zip(bodies.iter().cycle()) {
            if k.is_empty() {
                continue;
            }
            s3.put_object("prop-bucket", k, b.as_slice().into()).unwrap();
            last.insert(k.clone(), b.clone());
        }
        for (k, b) in &last {
            prop_assert_eq!(&*s3.get_object("prop-bucket", k).unwrap(), b.as_slice());
        }
        // Listing returns exactly the live keys, sorted.
        let listed = s3.list_objects("prop-bucket", "").unwrap();
        let expect: Vec<String> = last.keys().cloned().collect();
        prop_assert_eq!(listed, expect);
    }

    /// xclbin linking embeds the right part for every board and the
    /// payload always parses back.
    #[test]
    fn xclbin_part_roundtrip(payload in prop::collection::vec(any::<u8>(), 1..128)) {
        let xo = XoFile::package("k", "v", payload.into()).unwrap();
        for board in ["aws-f1", "vc709", "kcu1500", "pynq-z1"] {
            let xclbin = xocc_link(&xo, board).unwrap();
            let part = Xclbin::parse_part(&xclbin.bytes).unwrap();
            prop_assert_eq!(part, xclbin.part.clone());
        }
    }

    /// AFI lifecycle: exactly `ticks` advances from pending to
    /// available, never regressing.
    #[test]
    fn afi_lifecycle_is_monotone(ticks in 0u32..12) {
        let s3 = S3Client::new();
        s3.create_bucket("prop-bucket").unwrap();
        let xo = XoFile::package("k", "v", b"IP".as_slice().into()).unwrap();
        let xclbin = xocc_link(&xo, "aws-f1").unwrap();
        s3.put_object("prop-bucket", "d.xclbin", xclbin.bytes).unwrap();
        let reg = AfiRegistry::with_generation_ticks(ticks);
        let (afi, _) = reg.create_fpga_image(&s3, "prop-bucket", "d.xclbin", "n").unwrap();
        let mut became_available_at = None;
        for step in 0..=ticks + 2 {
            let state = reg.describe(&afi).unwrap();
            match state {
                AfiState::Pending => prop_assert!(step < ticks),
                AfiState::Available => {
                    became_available_at.get_or_insert(step);
                }
                AfiState::Failed => prop_assert!(false, "unexpected failure"),
            }
            reg.tick();
        }
        prop_assert_eq!(became_available_at, Some(ticks));
    }

    /// AFI ids are unique and resolvable across arbitrary creation
    /// counts.
    #[test]
    fn afi_ids_unique(n in 1usize..16) {
        let s3 = S3Client::new();
        s3.create_bucket("prop-bucket").unwrap();
        let xo = XoFile::package("k", "v", b"IP".as_slice().into()).unwrap();
        let xclbin = xocc_link(&xo, "aws-f1").unwrap();
        s3.put_object("prop-bucket", "d.xclbin", xclbin.bytes).unwrap();
        let reg = AfiRegistry::with_generation_ticks(0);
        let mut ids = std::collections::BTreeSet::new();
        for i in 0..n {
            let (afi, agfi) = reg
                .create_fpga_image(&s3, "prop-bucket", "d.xclbin", &format!("n{i}"))
                .unwrap();
            prop_assert!(ids.insert(afi.clone()));
            prop_assert_eq!(reg.agfi_of(&afi).unwrap(), agfi.clone());
            prop_assert_eq!(reg.describe_by_agfi(&agfi).unwrap(), AfiState::Available);
        }
        prop_assert_eq!(reg.list().len(), n);
    }
}
