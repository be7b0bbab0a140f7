//! Payload codec between an inference request and the disk queue.
//!
//! A durable record must reconstruct the request after a crash with
//! nothing but its bytes: the NCHW shape, the timeout the caller asked
//! for, the absolute wall-clock deadline (so a record recovered after
//! a long outage is failed as timed out instead of served hours late),
//! and the image data. The priority class is *not* here — it lives in
//! the CQR2 frame header, so the queue can preserve it without
//! decoding payloads. The layout is little-endian and fixed:
//!
//! ```text
//! n u32 | c u32 | h u32 | w u32 | timeout_us u64 | deadline_epoch_us u64 | data f32 × (n·c·h·w)
//! ```
//!
//! `deadline_epoch_us` is microseconds since `UNIX_EPOCH` at which the
//! caller's deadline lapses; `0` means "no absolute deadline" (the
//! pre-deadline v1 payloads had no such field and fail the length
//! check below, decoding to `None` like any other poisoned record —
//! failed and acked once, never looping).
//!
//! [`decode_request`] validates the declared element count against the
//! byte length before touching `Tensor::from_vec` (which panics on a
//! mismatch), so a poisoned record decodes to `None` and is failed and
//! acked instead of crashing the redelivery thread.

use condor_tensor::{Shape, Tensor};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

const HEADER: usize = 4 * 4 + 8 + 8;

/// Microseconds since the Unix epoch, saturating.
pub(crate) fn epoch_micros_now() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_micros().min(u64::MAX as u128) as u64)
        .unwrap_or(0)
}

/// The absolute deadline a request submitted now with `timeout` left
/// carries into its durable record.
pub(crate) fn deadline_epoch_us(timeout: Duration) -> u64 {
    epoch_micros_now().saturating_add(timeout.as_micros().min(u64::MAX as u128) as u64)
}

/// Serializes one request payload.
pub(crate) fn encode_request(
    tensor: &Tensor,
    timeout: Duration,
    deadline_epoch_us: u64,
) -> Vec<u8> {
    let shape = tensor.shape();
    let data = tensor.as_slice();
    let mut out = Vec::with_capacity(HEADER + data.len() * 4);
    for dim in [shape.n, shape.c, shape.h, shape.w] {
        out.extend_from_slice(&(dim as u32).to_le_bytes());
    }
    out.extend_from_slice(&(timeout.as_micros().min(u64::MAX as u128) as u64).to_le_bytes());
    out.extend_from_slice(&deadline_epoch_us.to_le_bytes());
    for v in data {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Deserializes one request payload; `None` on any structural
/// mismatch. Returns `(tensor, timeout, deadline_epoch_us)`.
pub(crate) fn decode_request(bytes: &[u8]) -> Option<(Tensor, Duration, u64)> {
    if bytes.len() < HEADER {
        return None;
    }
    let dim = |i: usize| {
        u32::from_le_bytes(bytes[i * 4..i * 4 + 4].try_into().ok()?)
            .try_into()
            .ok()
    };
    let shape = Shape::new(dim(0)?, dim(1)?, dim(2)?, dim(3)?);
    let timeout_us = u64::from_le_bytes(bytes[16..24].try_into().ok()?);
    let deadline_epoch_us = u64::from_le_bytes(bytes[24..32].try_into().ok()?);
    let body = &bytes[HEADER..];
    let count = shape.checked_len()?;
    if body.len() != count.checked_mul(4)? {
        return None;
    }
    let data: Vec<f32> = body
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect();
    Some((
        Tensor::from_vec(shape, data),
        Duration::from_micros(timeout_us),
        deadline_epoch_us,
    ))
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;

    #[test]
    fn roundtrip_preserves_shape_timeout_deadline_and_bits() {
        let tensor = Tensor::from_vec(
            Shape::new(1, 2, 3, 4),
            (0..24).map(|i| i as f32 * 0.37 - 1.5).collect(),
        );
        let timeout = Duration::from_micros(123_456_789);
        let deadline = deadline_epoch_us(timeout);
        assert!(deadline > 0);
        let bytes = encode_request(&tensor, timeout, deadline);
        let (back, t, d) = decode_request(&bytes).unwrap();
        assert_eq!(back.shape(), tensor.shape());
        assert_eq!(back.as_slice(), tensor.as_slice());
        assert_eq!(t, timeout);
        assert_eq!(d, deadline);
    }

    #[test]
    fn poisoned_payloads_decode_to_none_not_panic() {
        let tensor = Tensor::from_vec(Shape::new(1, 1, 2, 2), vec![1.0, 2.0, 3.0, 4.0]);
        let bytes = encode_request(&tensor, Duration::from_secs(1), 0);
        // Every truncation of a valid payload is rejected cleanly.
        for cut in 0..bytes.len() {
            assert!(decode_request(&bytes[..cut]).is_none(), "cut {cut}");
        }
        // A length/shape mismatch is rejected before Tensor::from_vec.
        let mut grown = bytes.clone();
        grown.extend_from_slice(&[0u8; 4]);
        assert!(decode_request(&grown).is_none());
        assert!(decode_request(&[]).is_none());
        // Dimensions whose product overflows are refused, not wrapped:
        // 65536⁴ = 2⁶⁴ would wrap to 0 and match an empty body.
        for dim in [65_536u32, u32::MAX] {
            let mut huge = bytes[..HEADER].to_vec();
            for i in 0..4 {
                huge[i * 4..i * 4 + 4].copy_from_slice(&dim.to_le_bytes());
            }
            assert!(decode_request(&huge).is_none(), "dim {dim}");
        }
    }

    #[test]
    fn v1_payloads_without_a_deadline_field_are_refused() {
        // The old layout lacked deadline_epoch_us: its body starts 8
        // bytes early, so the element-count check fails and the record
        // takes the poisoned path (failed and acked exactly once).
        let tensor = Tensor::from_vec(Shape::new(1, 1, 2, 2), vec![1.0, 2.0, 3.0, 4.0]);
        let mut v1 = Vec::new();
        for dim in [1u32, 1, 2, 2] {
            v1.extend_from_slice(&dim.to_le_bytes());
        }
        v1.extend_from_slice(&1_000_000u64.to_le_bytes());
        for v in tensor.as_slice() {
            v1.extend_from_slice(&v.to_le_bytes());
        }
        assert!(decode_request(&v1).is_none());
    }
}
