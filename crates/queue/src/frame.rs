//! The on-disk binary format of the admission queue: record frames,
//! segment headers, ack-journal frames and the checkpoint blob.
//!
//! Everything here is a pure function over byte slices so the recovery
//! semantics — "parse the longest clean prefix, report where it ends" —
//! can be property-tested without touching a filesystem. The framing
//! deliberately mirrors the torn-tail idiom of the `condor-faultlog/2`
//! journal: a crash mid-write leaves a partial final frame, and a
//! scanner must recover exactly the records written before it.
//!
//! Layouts (all integers little-endian):
//!
//! ```text
//! segment header   "CQSG" | version u32 | segment index u64            (16 B)
//! record frame     "CQR2" | id u64 | class u8 | len u32
//!                  | fnv64(id,class,len,payload) u64 | payload
//! ack header       "CQAK" | version u32 | reserved u64                 (16 B)
//! ack frame        "CQRA" | id u64 | fnv64(id) u64                     (20 B)
//! checkpoint       "CQCP" | version u32 | acked_below u64 | next_id u64
//!                  | fnv64(version,acked_below,next_id) u64            (32 B)
//! ```
//!
//! Version 2 (`CQR2`) added the priority-class byte to the record
//! frame and its checksum so redelivery preserves the request class
//! across a restart. The bump is deliberately non-silent in both
//! directions: a version-1 reader sees an unknown record magic and a
//! version-2 header it refuses, and this reader reports version-1
//! files distinctly (see [`SegmentScan::version`]) so
//! [`crate::DiskQueue::open`] can reject them as a typed error instead
//! of "repairing" them into data loss.

/// Magic of a data-segment file header.
pub const SEGMENT_MAGIC: [u8; 4] = *b"CQSG";
/// Magic of one record frame inside a segment.
pub const RECORD_MAGIC: [u8; 4] = *b"CQR2";
/// Magic of the ack-journal file header.
pub const ACK_MAGIC: [u8; 4] = *b"CQAK";
/// Magic of one ack frame inside the journal.
pub const ACK_FRAME_MAGIC: [u8; 4] = *b"CQRA";
/// Magic of the checkpoint blob.
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"CQCP";
/// On-disk format version (bumped only with a migration path).
pub const FORMAT_VERSION: u32 = 2;

/// Bytes of a segment or ack-journal file header.
pub const FILE_HEADER_LEN: usize = 16;
/// Bytes of a record frame before its payload.
pub const RECORD_HEADER_LEN: usize = 25;
/// Bytes of one ack frame.
pub const ACK_FRAME_LEN: usize = 20;
/// Bytes of the checkpoint blob.
pub const CHECKPOINT_LEN: usize = 32;

/// 64-bit FNV-1a over a sequence of byte slices.
fn fnv1a64(parts: &[&[u8]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for &b in *part {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn record_checksum(id: u64, class: u8, payload: &[u8]) -> u64 {
    fnv1a64(&[
        &id.to_le_bytes(),
        &[class],
        &(payload.len() as u32).to_le_bytes(),
        payload,
    ])
}

/// Encodes one record frame. `class` is the request's priority class
/// ([`crate::Priority::as_class`]); it sits under the checksum so a
/// clean record always redelivers at the class it was accepted at.
pub fn encode_record(id: u64, class: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(RECORD_HEADER_LEN + payload.len());
    out.extend_from_slice(&RECORD_MAGIC);
    out.extend_from_slice(&id.to_le_bytes());
    out.push(class);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&record_checksum(id, class, payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Encodes a segment file header.
pub fn encode_segment_header(index: u64) -> [u8; FILE_HEADER_LEN] {
    let mut out = [0u8; FILE_HEADER_LEN];
    out[..4].copy_from_slice(&SEGMENT_MAGIC);
    out[4..8].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    out[8..].copy_from_slice(&index.to_le_bytes());
    out
}

/// Encodes the ack-journal file header.
pub fn encode_ack_header() -> [u8; FILE_HEADER_LEN] {
    let mut out = [0u8; FILE_HEADER_LEN];
    out[..4].copy_from_slice(&ACK_MAGIC);
    out[4..8].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    out
}

/// Encodes one ack frame.
pub fn encode_ack(id: u64) -> [u8; ACK_FRAME_LEN] {
    let mut out = [0u8; ACK_FRAME_LEN];
    out[..4].copy_from_slice(&ACK_FRAME_MAGIC);
    out[4..12].copy_from_slice(&id.to_le_bytes());
    out[12..].copy_from_slice(&fnv1a64(&[&id.to_le_bytes()]).to_le_bytes());
    out
}

/// Encodes the checkpoint blob.
pub fn encode_checkpoint(acked_below: u64, next_id: u64) -> [u8; CHECKPOINT_LEN] {
    let mut out = [0u8; CHECKPOINT_LEN];
    out[..4].copy_from_slice(&CHECKPOINT_MAGIC);
    out[4..8].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    out[8..16].copy_from_slice(&acked_below.to_le_bytes());
    out[16..24].copy_from_slice(&next_id.to_le_bytes());
    let sum = fnv1a64(&[
        &FORMAT_VERSION.to_le_bytes(),
        &acked_below.to_le_bytes(),
        &next_id.to_le_bytes(),
    ]);
    out[24..].copy_from_slice(&sum.to_le_bytes());
    out
}

/// Decodes a checkpoint blob; `None` when short, torn or corrupt.
pub fn decode_checkpoint(bytes: &[u8]) -> Option<(u64, u64)> {
    if bytes.len() != CHECKPOINT_LEN || bytes[..4] != CHECKPOINT_MAGIC {
        return None;
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().ok()?);
    if version != FORMAT_VERSION {
        return None;
    }
    let acked_below = u64::from_le_bytes(bytes[8..16].try_into().ok()?);
    let next_id = u64::from_le_bytes(bytes[16..24].try_into().ok()?);
    let sum = u64::from_le_bytes(bytes[24..32].try_into().ok()?);
    let expect = fnv1a64(&[
        &FORMAT_VERSION.to_le_bytes(),
        &acked_below.to_le_bytes(),
        &next_id.to_le_bytes(),
    ]);
    (sum == expect).then_some((acked_below, next_id))
}

/// Result of scanning one data segment: the clean records, the byte
/// length of the clean prefix (torn or corrupt bytes past it are
/// truncated by recovery), whether the file header itself parsed, and
/// the segment index it named.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SegmentScan {
    /// Every fully-written, checksum-clean `(id, class, payload)`
    /// record, in file order.
    pub records: Vec<(u64, u8, Vec<u8>)>,
    /// Byte length of the parseable prefix (header + clean frames).
    pub clean_len: usize,
    /// False when the header is short or corrupt (a crashed rotation).
    pub header_ok: bool,
    /// The segment index recorded in the header (0 when `!header_ok`).
    pub index: u64,
    /// The version the file header named, when the magic parsed at
    /// all: [`FORMAT_VERSION`] on a clean header, the foreign version
    /// on a format mismatch (`header_ok` false), 0 on garbage. Lets
    /// recovery tell "old format" apart from "crashed rotation".
    pub version: u32,
}

/// Scans a whole segment file image, stopping at the first torn or
/// corrupt frame.
pub fn scan_segment(data: &[u8]) -> SegmentScan {
    let bad = |version: u32| SegmentScan {
        records: Vec::new(),
        clean_len: 0,
        header_ok: false,
        index: 0,
        version,
    };
    if data.len() < FILE_HEADER_LEN || data[..4] != SEGMENT_MAGIC {
        return bad(0);
    }
    let version = u32::from_le_bytes(data[4..8].try_into().unwrap_or_default());
    if version != FORMAT_VERSION {
        return bad(version);
    }
    let index = u64::from_le_bytes(data[8..16].try_into().unwrap_or_default());
    let mut records = Vec::new();
    let mut at = FILE_HEADER_LEN;
    while data.len() - at >= RECORD_HEADER_LEN {
        let frame = &data[at..];
        if frame[..4] != RECORD_MAGIC {
            break;
        }
        let id = u64::from_le_bytes(frame[4..12].try_into().unwrap_or_default());
        let class = frame[12];
        let len = u32::from_le_bytes(frame[13..17].try_into().unwrap_or_default()) as usize;
        let sum = u64::from_le_bytes(frame[17..25].try_into().unwrap_or_default());
        if frame.len() - RECORD_HEADER_LEN < len {
            break;
        }
        let payload = &frame[RECORD_HEADER_LEN..RECORD_HEADER_LEN + len];
        if sum != record_checksum(id, class, payload) {
            break;
        }
        records.push((id, class, payload.to_vec()));
        at += RECORD_HEADER_LEN + len;
    }
    SegmentScan {
        records,
        clean_len: at,
        header_ok: true,
        index,
        version,
    }
}

/// Result of scanning the ack journal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AckScan {
    /// Every clean acked id, in file order (duplicates preserved).
    pub ids: Vec<u64>,
    /// Byte length of the parseable prefix.
    pub clean_len: usize,
    /// False when the journal header is short or corrupt.
    pub header_ok: bool,
    /// The version the header named (see [`SegmentScan::version`]).
    pub version: u32,
}

/// Scans a whole ack-journal file image, stopping at the first torn or
/// corrupt frame.
pub fn scan_acks(data: &[u8]) -> AckScan {
    let bad = |version: u32| AckScan {
        ids: Vec::new(),
        clean_len: 0,
        header_ok: false,
        version,
    };
    if data.len() < FILE_HEADER_LEN || data[..4] != ACK_MAGIC {
        return bad(0);
    }
    let version = u32::from_le_bytes(data[4..8].try_into().unwrap_or_default());
    if version != FORMAT_VERSION {
        return bad(version);
    }
    let mut ids = Vec::new();
    let mut at = FILE_HEADER_LEN;
    while data.len() - at >= ACK_FRAME_LEN {
        let frame = &data[at..at + ACK_FRAME_LEN];
        if frame[..4] != ACK_FRAME_MAGIC {
            break;
        }
        let id = u64::from_le_bytes(frame[4..12].try_into().unwrap_or_default());
        let sum = u64::from_le_bytes(frame[12..20].try_into().unwrap_or_default());
        if sum != fnv1a64(&[&id.to_le_bytes()]) {
            break;
        }
        ids.push(id);
        at += ACK_FRAME_LEN;
    }
    AckScan {
        ids,
        clean_len: at,
        header_ok: true,
        version,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_roundtrip_and_torn_tail() {
        let mut file = encode_segment_header(3).to_vec();
        file.extend(encode_record(10, 0, b"alpha"));
        file.extend(encode_record(11, 1, b""));
        file.extend(encode_record(12, 2, &[0xAB; 100]));
        let scan = scan_segment(&file);
        assert!(scan.header_ok);
        assert_eq!(scan.version, FORMAT_VERSION);
        assert_eq!(scan.index, 3);
        assert_eq!(scan.clean_len, file.len());
        assert_eq!(
            scan.records,
            vec![
                (10, 0, b"alpha".to_vec()),
                (11, 1, Vec::new()),
                (12, 2, vec![0xAB; 100]),
            ]
        );

        // Cut the final frame mid-payload: the prefix survives intact.
        let cut = file.len() - 40;
        let scan = scan_segment(&file[..cut]);
        assert_eq!(scan.records.len(), 2);
        assert!(scan.clean_len <= cut);
    }

    #[test]
    fn corrupt_checksum_stops_the_scan() {
        let mut file = encode_segment_header(0).to_vec();
        file.extend(encode_record(1, 0, b"ok"));
        let flip = file.len() - 1;
        file.extend(encode_record(2, 0, b"bad"));
        file[flip] ^= 0xFF; // corrupt record 1's payload
        let scan = scan_segment(&file);
        assert_eq!(scan.records, Vec::new());
        assert_eq!(scan.clean_len, FILE_HEADER_LEN);
    }

    #[test]
    fn flipped_class_byte_fails_the_checksum() {
        let mut file = encode_segment_header(0).to_vec();
        let frame_at = file.len();
        file.extend(encode_record(5, 0, b"payload"));
        file[frame_at + 12] = 2; // Interactive -> Batch, checksum unchanged
        let scan = scan_segment(&file);
        assert_eq!(scan.records, Vec::new(), "class is integrity-protected");
    }

    #[test]
    fn foreign_version_headers_are_reported_not_parsed() {
        let mut seg = encode_segment_header(4).to_vec();
        seg[4..8].copy_from_slice(&1u32.to_le_bytes()); // a CQR1-era file
        let scan = scan_segment(&seg);
        assert!(!scan.header_ok);
        assert_eq!(scan.version, 1);

        let mut acks = encode_ack_header().to_vec();
        acks[4..8].copy_from_slice(&1u32.to_le_bytes());
        let scan = scan_acks(&acks);
        assert!(!scan.header_ok);
        assert_eq!(scan.version, 1);

        // Garbage is version 0: recovery may reset it, unlike v1.
        assert_eq!(scan_segment(b"XXXXGARBAGEGARBAGE").version, 0);
    }

    #[test]
    fn ack_journal_roundtrip_and_torn_tail() {
        let mut file = encode_ack_header().to_vec();
        for id in [4u64, 7, 7, 9] {
            file.extend(encode_ack(id));
        }
        let scan = scan_acks(&file);
        assert!(scan.header_ok);
        assert_eq!(scan.version, FORMAT_VERSION);
        assert_eq!(scan.ids, vec![4, 7, 7, 9]);
        assert_eq!(scan.clean_len, file.len());

        let scan = scan_acks(&file[..file.len() - 5]);
        assert_eq!(scan.ids, vec![4, 7, 7]);
    }

    #[test]
    fn checkpoint_rejects_torn_and_corrupt_blobs() {
        let blob = encode_checkpoint(42, 99);
        assert_eq!(decode_checkpoint(&blob), Some((42, 99)));
        assert_eq!(decode_checkpoint(&blob[..CHECKPOINT_LEN - 1]), None);
        let mut bad = blob;
        bad[20] ^= 1;
        assert_eq!(decode_checkpoint(&bad), None);
    }

    #[test]
    fn half_written_headers_are_not_ok() {
        assert!(!scan_segment(&encode_segment_header(1)[..7]).header_ok);
        assert!(!scan_acks(&encode_ack_header()[..3]).header_ok);
        assert!(!scan_segment(b"XXXXGARBAGEGARBAGE").header_ok);
    }
}
