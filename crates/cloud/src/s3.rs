//! In-memory Amazon S3 model.
//!
//! The AFI workflow requires the xclbin (design checkpoint tarball on
//! real AWS) to be staged "inside a user-specified Amazon S3 Bucket"
//! (paper step 8). This model provides the bucket/object surface that
//! workflow touches, with S3's relevant failure modes.

use crate::CloudError;
use condor_faults::FaultHandle;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One bucket's objects by key; a body is shared, so a read is a
/// reference-count bump.
type Bucket = BTreeMap<String, Arc<[u8]>>;

/// An in-memory S3 endpoint.
///
/// Fault sites (see `condor-faults`): `s3.put_object` and
/// `s3.get_object` gate the transfer before any bucket logic runs, the
/// way a real transport failure precedes server-side validation.
#[derive(Default)]
pub struct S3Client {
    buckets: Mutex<BTreeMap<String, Bucket>>,
    faults: FaultHandle,
}

fn valid_bucket_name(name: &str) -> bool {
    (3..=63).contains(&name.len())
        && name
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-' || c == '.')
        && !name.starts_with('-')
        && !name.ends_with('-')
}

impl S3Client {
    /// Creates an empty endpoint.
    pub fn new() -> Self {
        S3Client::default()
    }

    /// Arms fault injection on this endpoint (disabled by default).
    pub fn set_faults(&mut self, faults: FaultHandle) {
        self.faults = faults;
    }

    /// Creates a bucket; fails if it already exists or the name is
    /// invalid per S3 naming rules.
    pub fn create_bucket(&self, name: &str) -> Result<(), CloudError> {
        if !valid_bucket_name(name) {
            return Err(CloudError::new(
                "s3",
                format!("invalid bucket name '{name}'"),
            ));
        }
        let mut buckets = self.buckets.lock();
        if buckets.contains_key(name) {
            return Err(CloudError::new(
                "s3",
                format!("BucketAlreadyOwnedByYou: {name}"),
            ));
        }
        buckets.insert(name.to_string(), BTreeMap::new());
        Ok(())
    }

    /// Uploads an object, creating or overwriting `key`.
    pub fn put_object(&self, bucket: &str, key: &str, body: Arc<[u8]>) -> Result<(), CloudError> {
        self.faults.gate("s3.put_object")?;
        if key.is_empty() {
            return Err(CloudError::new("s3", "object key must not be empty"));
        }
        let mut buckets = self.buckets.lock();
        let b = buckets
            .get_mut(bucket)
            .ok_or_else(|| CloudError::new("s3", format!("NoSuchBucket: {bucket}")))?;
        b.insert(key.to_string(), body);
        Ok(())
    }

    /// Downloads an object.
    pub fn get_object(&self, bucket: &str, key: &str) -> Result<Arc<[u8]>, CloudError> {
        self.faults.gate("s3.get_object")?;
        let buckets = self.buckets.lock();
        let b = buckets
            .get(bucket)
            .ok_or_else(|| CloudError::new("s3", format!("NoSuchBucket: {bucket}")))?;
        b.get(key)
            .cloned()
            .ok_or_else(|| CloudError::new("s3", format!("NoSuchKey: {bucket}/{key}")))
    }

    /// Lists object keys under a prefix, in lexicographic order.
    pub fn list_objects(&self, bucket: &str, prefix: &str) -> Result<Vec<String>, CloudError> {
        let buckets = self.buckets.lock();
        let b = buckets
            .get(bucket)
            .ok_or_else(|| CloudError::new("s3", format!("NoSuchBucket: {bucket}")))?;
        Ok(b.keys()
            .filter(|k| k.starts_with(prefix))
            .cloned()
            .collect())
    }

    /// True when the bucket exists.
    pub fn bucket_exists(&self, bucket: &str) -> bool {
        self.buckets.lock().contains_key(bucket)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;

    #[test]
    fn bucket_lifecycle() {
        let s3 = S3Client::new();
        s3.create_bucket("condor-artifacts").unwrap();
        assert!(s3.bucket_exists("condor-artifacts"));
        let err = s3.create_bucket("condor-artifacts").unwrap_err();
        assert!(err.message.contains("BucketAlreadyOwnedByYou"));
    }

    #[test]
    fn bucket_name_rules() {
        let s3 = S3Client::new();
        for bad in ["ab", "UPPER", "has_underscore", "-leading", "trailing-"] {
            assert!(s3.create_bucket(bad).is_err(), "should reject {bad}");
        }
        s3.create_bucket("good-name.v2").unwrap();
    }

    #[test]
    fn object_roundtrip() {
        let s3 = S3Client::new();
        s3.create_bucket("b-1").unwrap();
        s3.put_object("b-1", "afi/lenet.xclbin", b"bits".as_slice().into())
            .unwrap();
        assert_eq!(&*s3.get_object("b-1", "afi/lenet.xclbin").unwrap(), b"bits");
        // Overwrite.
        s3.put_object("b-1", "afi/lenet.xclbin", b"v2".as_slice().into())
            .unwrap();
        assert_eq!(&*s3.get_object("b-1", "afi/lenet.xclbin").unwrap(), b"v2");
    }

    #[test]
    fn missing_bucket_and_key_errors() {
        let s3 = S3Client::new();
        assert!(s3
            .put_object("nope", "k", Vec::new().into())
            .unwrap_err()
            .message
            .contains("NoSuchBucket"));
        s3.create_bucket("b-1").unwrap();
        assert!(s3
            .get_object("b-1", "missing")
            .unwrap_err()
            .message
            .contains("NoSuchKey"));
        assert!(s3.put_object("b-1", "", Vec::new().into()).is_err());
    }

    #[test]
    fn listing_filters_by_prefix() {
        let s3 = S3Client::new();
        s3.create_bucket("b-1").unwrap();
        for k in ["afi/a.xclbin", "afi/b.xclbin", "logs/build.log"] {
            s3.put_object("b-1", k, Vec::new().into()).unwrap();
        }
        assert_eq!(
            s3.list_objects("b-1", "afi/").unwrap(),
            vec!["afi/a.xclbin", "afi/b.xclbin"]
        );
        assert_eq!(s3.list_objects("b-1", "").unwrap().len(), 3);
    }
}
