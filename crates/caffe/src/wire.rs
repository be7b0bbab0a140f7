//! Protocol-buffers wire format (proto2 subset).
//!
//! Implements the varint / 64-bit / length-delimited / 32-bit wire types,
//! field tags, packed repeated scalars and unknown-field skipping — enough
//! to encode and decode Caffe `NetParameter` trees byte-compatibly with the
//! official implementation for the message subset this workspace models.

use std::fmt;

/// Protobuf wire types (tag & 0x7).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireType {
    /// Base-128 varint.
    Varint = 0,
    /// Little-endian 64-bit scalar (`fixed64`, `double`).
    Fixed64 = 1,
    /// Length-prefixed payload (strings, bytes, sub-messages, packed).
    LengthDelimited = 2,
    /// Little-endian 32-bit scalar (`fixed32`, `float`).
    Fixed32 = 5,
}

impl WireType {
    fn from_bits(bits: u64) -> Result<WireType, WireError> {
        match bits {
            0 => Ok(WireType::Varint),
            1 => Ok(WireType::Fixed64),
            2 => Ok(WireType::LengthDelimited),
            5 => Ok(WireType::Fixed32),
            other => Err(WireError::new(format!("unsupported wire type {other}"))),
        }
    }
}

/// Decode failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError {
    /// Human-readable description.
    pub message: String,
}

impl WireError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        WireError {
            message: message.into(),
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "protobuf wire error: {}", self.message)
    }
}

impl std::error::Error for WireError {}

/// Streaming encoder for the protobuf wire format.
#[derive(Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        WireWriter::default()
    }

    /// Finishes encoding and returns the bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Encoded length so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    fn tag(&mut self, field: u32, wt: WireType) {
        self.varint(((field as u64) << 3) | wt as u64);
    }

    /// Writes a raw base-128 varint.
    fn varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// `field: uint32/uint64/int64/bool/enum` (varint).
    pub fn uint(&mut self, field: u32, v: u64) {
        self.tag(field, WireType::Varint);
        self.varint(v);
    }

    /// `field: bool`.
    pub fn bool(&mut self, field: u32, v: bool) {
        self.uint(field, v as u64);
    }

    /// `field: int64` two's-complement (proto2 `int32`/`int64` negative
    /// values encode as 10-byte varints).
    pub fn int(&mut self, field: u32, v: i64) {
        self.uint(field, v as u64);
    }

    /// `field: float` (fixed32).
    pub fn float(&mut self, field: u32, v: f32) {
        self.tag(field, WireType::Fixed32);
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// `field: string`.
    pub fn string(&mut self, field: u32, v: &str) {
        self.bytes(field, v.as_bytes());
    }

    /// `field: bytes`.
    pub fn bytes(&mut self, field: u32, v: &[u8]) {
        self.tag(field, WireType::LengthDelimited);
        self.varint(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Length-delimited sub-message encoded by `f`.
    pub fn message(&mut self, field: u32, f: impl FnOnce(&mut WireWriter)) {
        let mut inner = WireWriter::new();
        f(&mut inner);
        self.bytes(field, &inner.buf);
    }

    /// Packed repeated `float` — the encoding Caffe uses for
    /// `BlobProto.data`.
    pub fn packed_floats(&mut self, field: u32, vs: &[f32]) {
        if vs.is_empty() {
            return;
        }
        self.tag(field, WireType::LengthDelimited);
        self.varint((vs.len() * 4) as u64);
        for &v in vs {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Packed repeated varints (`BlobShape.dim`).
    pub fn packed_varints(&mut self, field: u32, vs: &[u64]) {
        if vs.is_empty() {
            return;
        }
        let mut inner = WireWriter::new();
        for &v in vs {
            inner.varint(v);
        }
        self.bytes(field, &inner.buf);
    }
}

/// Streaming decoder over a byte slice.
pub struct WireReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Wraps a complete message payload.
    pub fn new(data: &'a [u8]) -> Self {
        WireReader { data, pos: 0 }
    }

    /// True when the payload is exhausted.
    fn is_at_end(&self) -> bool {
        self.pos >= self.data.len()
    }

    /// Reads the next field tag, or `None` at end of payload.
    pub fn next_field(&mut self) -> Result<Option<(u32, WireType)>, WireError> {
        if self.is_at_end() {
            return Ok(None);
        }
        let key = self.read_varint()?;
        let field = (key >> 3) as u32;
        if field == 0 {
            return Err(WireError::new("field number 0 is invalid"));
        }
        Ok(Some((field, WireType::from_bits(key & 0x7)?)))
    }

    /// Reads a raw varint.
    pub fn read_varint(&mut self) -> Result<u64, WireError> {
        let mut result = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = *self
                .data
                .get(self.pos)
                .ok_or_else(|| WireError::new("truncated varint"))?;
            self.pos += 1;
            if shift >= 64 {
                return Err(WireError::new("varint longer than 10 bytes"));
            }
            if shift == 63 && (byte & 0x7e) != 0 {
                return Err(WireError::new("varint overflows u64"));
            }
            result |= ((byte & 0x7f) as u64) << shift;
            if byte & 0x80 == 0 {
                return Ok(result);
            }
            shift += 7;
        }
    }

    /// Reads a fixed 32-bit float.
    pub fn read_float(&mut self) -> Result<f32, WireError> {
        Ok(f32::from_le_bytes(self.take_array()?))
    }

    /// Reads a length-delimited payload.
    pub fn read_bytes(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.read_varint()? as usize;
        self.take(len)
    }

    /// Reads a length-delimited payload as UTF-8.
    pub fn read_string(&mut self) -> Result<String, WireError> {
        let b = self.read_bytes()?;
        String::from_utf8(b.to_vec()).map_err(|_| WireError::new("invalid UTF-8 in string field"))
    }

    /// Reads a `float` field that may be packed (length-delimited) or
    /// unpacked (fixed32), appending to `out` — proto2 parsers must accept
    /// both encodings.
    pub fn read_floats(&mut self, wt: WireType, out: &mut Vec<f32>) -> Result<(), WireError> {
        match wt {
            WireType::Fixed32 => out.push(self.read_float()?),
            WireType::LengthDelimited => {
                let payload = self.read_bytes()?;
                if payload.len() % 4 != 0 {
                    return Err(WireError::new("packed float payload not multiple of 4"));
                }
                out.extend(
                    payload
                        .chunks_exact(4)
                        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])),
                );
            }
            other => {
                return Err(WireError::new(format!(
                    "wire type {other:?} invalid for float field"
                )))
            }
        }
        Ok(())
    }

    /// Reads a varint field that may be packed or unpacked, appending to
    /// `out`.
    pub fn read_varints(&mut self, wt: WireType, out: &mut Vec<u64>) -> Result<(), WireError> {
        match wt {
            WireType::Varint => out.push(self.read_varint()?),
            WireType::LengthDelimited => {
                let payload = self.read_bytes()?;
                let mut inner = WireReader::new(payload);
                while !inner.is_at_end() {
                    out.push(inner.read_varint()?);
                }
            }
            other => {
                return Err(WireError::new(format!(
                    "wire type {other:?} invalid for varint field"
                )))
            }
        }
        Ok(())
    }

    /// Skips a field of the given wire type (unknown-field tolerance).
    pub fn skip(&mut self, wt: WireType) -> Result<(), WireError> {
        match wt {
            WireType::Varint => {
                self.read_varint()?;
            }
            WireType::Fixed64 => {
                self.take(8)?;
            }
            WireType::LengthDelimited => {
                self.read_bytes()?;
            }
            WireType::Fixed32 => {
                self.take(4)?;
            }
        }
        Ok(())
    }

    fn take(&mut self, len: usize) -> Result<&'a [u8], WireError> {
        if self.pos + len > self.data.len() {
            return Err(WireError::new(format!(
                "truncated payload: need {len} bytes, have {}",
                self.data.len() - self.pos
            )));
        }
        let slice = &self.data[self.pos..self.pos + len];
        self.pos += len;
        Ok(slice)
    }

    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        Ok(self
            .take(N)?
            .try_into()
            .expect("take returns exactly N bytes"))
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;

    fn roundtrip_varint(v: u64) -> u64 {
        let mut w = WireWriter::new();
        w.varint(v);
        let bytes = w.into_bytes();
        WireReader::new(&bytes).read_varint().unwrap()
    }

    #[test]
    fn varint_boundaries() {
        for v in [0, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            assert_eq!(roundtrip_varint(v), v);
        }
    }

    #[test]
    fn varint_known_encoding() {
        // 300 = 0xAC 0x02, the canonical protobuf example.
        let mut w = WireWriter::new();
        w.varint(300);
        assert_eq!(&w.into_bytes()[..], &[0xAC, 0x02]);
    }

    #[test]
    fn tag_encoding_matches_spec() {
        // field 1, varint 150 → 08 96 01 (protobuf docs example).
        let mut w = WireWriter::new();
        w.uint(1, 150);
        assert_eq!(&w.into_bytes()[..], &[0x08, 0x96, 0x01]);
    }

    #[test]
    fn string_field_roundtrip() {
        let mut w = WireWriter::new();
        w.string(2, "testing");
        let bytes = w.into_bytes();
        // field 2 LEN → 0x12, len 7.
        assert_eq!(bytes[0], 0x12);
        assert_eq!(bytes[1], 7);
        let mut r = WireReader::new(&bytes);
        let (f, wt) = r.next_field().unwrap().unwrap();
        assert_eq!((f, wt), (2, WireType::LengthDelimited));
        assert_eq!(r.read_string().unwrap(), "testing");
        assert!(r.next_field().unwrap().is_none());
    }

    #[test]
    fn packed_floats_roundtrip() {
        let vs = [1.0f32, -2.5, 3.25, f32::MIN_POSITIVE];
        let mut w = WireWriter::new();
        w.packed_floats(5, &vs);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        let (f, wt) = r.next_field().unwrap().unwrap();
        assert_eq!(f, 5);
        let mut out = Vec::new();
        r.read_floats(wt, &mut out).unwrap();
        assert_eq!(out, vs);
    }

    #[test]
    fn unpacked_float_also_accepted() {
        let mut w = WireWriter::new();
        w.float(5, 7.5);
        w.float(5, -1.0);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        let mut out = Vec::new();
        while let Some((_, wt)) = r.next_field().unwrap() {
            r.read_floats(wt, &mut out).unwrap();
        }
        assert_eq!(out, vec![7.5, -1.0]);
    }

    #[test]
    fn packed_varints_roundtrip() {
        let vs = [64u64, 1, 28, 28, 1 << 40];
        let mut w = WireWriter::new();
        w.packed_varints(1, &vs);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        let (_, wt) = r.next_field().unwrap().unwrap();
        let mut out = Vec::new();
        r.read_varints(wt, &mut out).unwrap();
        assert_eq!(out, vs);
    }

    #[test]
    fn empty_packed_fields_write_nothing() {
        let mut w = WireWriter::new();
        w.packed_floats(5, &[]);
        w.packed_varints(1, &[]);
        assert!(w.is_empty());
    }

    #[test]
    fn nested_message_roundtrip() {
        let mut w = WireWriter::new();
        w.message(7, |inner| {
            inner.uint(1, 42);
            inner.string(2, "blob");
        });
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        let (f, wt) = r.next_field().unwrap().unwrap();
        assert_eq!((f, wt), (7, WireType::LengthDelimited));
        let payload = r.read_bytes().unwrap();
        let mut inner = WireReader::new(payload);
        let (f1, _) = inner.next_field().unwrap().unwrap();
        assert_eq!(f1, 1);
        assert_eq!(inner.read_varint().unwrap(), 42);
        let (f2, _) = inner.next_field().unwrap().unwrap();
        assert_eq!(f2, 2);
        assert_eq!(inner.read_string().unwrap(), "blob");
    }

    #[test]
    fn skip_unknown_fields() {
        let mut w = WireWriter::new();
        w.uint(99, 7);
        w.float(98, 1.0);
        w.bytes(97, b"xyz");
        w.uint(1, 5);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        let mut value = None;
        while let Some((f, wt)) = r.next_field().unwrap() {
            if f == 1 {
                value = Some(r.read_varint().unwrap());
            } else {
                r.skip(wt).unwrap();
            }
        }
        assert_eq!(value, Some(5));
    }

    #[test]
    fn negative_int_uses_ten_byte_varint() {
        let mut w = WireWriter::new();
        w.int(1, -1);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 1 + 10);
        let mut r = WireReader::new(&bytes);
        r.next_field().unwrap();
        assert_eq!(r.read_varint().unwrap() as i64, -1);
    }

    #[test]
    fn truncated_inputs_error_cleanly() {
        // Truncated varint.
        assert!(WireReader::new(&[0x80]).read_varint().is_err());
        // Length longer than payload.
        let mut w = WireWriter::new();
        w.bytes(1, b"abcdef");
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes[..4]);
        r.next_field().unwrap();
        assert!(r.read_bytes().is_err());
    }

    #[test]
    fn overlong_varint_rejected() {
        let eleven = [0xff; 11];
        assert!(WireReader::new(&eleven).read_varint().is_err());
    }

    #[test]
    fn field_zero_rejected() {
        // key 0x00 → field 0.
        assert!(WireReader::new(&[0x00]).next_field().is_err());
    }

    #[test]
    fn wire_type_3_rejected() {
        // key: field 1, wire type 3 (deprecated group) = 0x0b.
        assert!(WireReader::new(&[0x0b]).next_field().is_err());
    }
}
