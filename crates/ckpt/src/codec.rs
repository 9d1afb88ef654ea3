//! A small, self-describing binary codec for checkpoint images.
//!
//! The 1988 implementation wrote raw `a.out` core segments to disk; we keep
//! the same spirit — a compact binary format with no external schema — but
//! add the robustness a modern library needs: explicit magic/version,
//! varint-compressed integers, length-prefixed byte fields with sanity
//! bounds, and a CRC-32 frame checksum so truncated or bit-flipped images
//! are rejected instead of restoring a corrupt process.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::error::DecodeError;

/// Sanity bound on any single length field (1 GiB). A VAXstation II had a
/// few megabytes of memory; even generous modern images stay far below this.
const MAX_FIELD_LEN: u64 = 1 << 30;

/// Encoder half of the codec: a thin, append-only wrapper over `BytesMut`.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: BytesMut,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Encoder { buf: BytesMut::new() }
    }

    /// Creates an encoder with pre-reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Encoder {
            buf: BytesMut::with_capacity(cap),
        }
    }

    /// Appends raw bytes verbatim (no length prefix).
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.put_slice(bytes);
    }

    /// Appends a fixed-width little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.put_u16_le(v);
    }

    /// Appends a LEB128 varint.
    pub fn put_varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.put_u8(byte);
                return;
            }
            self.buf.put_u8(byte | 0x80);
        }
    }

    /// Appends a length-prefixed byte field.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_varint(bytes.len() as u64);
        self.buf.put_slice(bytes);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }

    /// Number of bytes encoded so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when nothing has been encoded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Finishes encoding, returning the immutable buffer.
    pub fn finish(self) -> Bytes {
        self.buf.freeze()
    }

    /// Finishes encoding into a checksummed frame: `payload-len (u32) ||
    /// crc32(payload) (u32) || payload`. The matching reader is
    /// [`Decoder::from_frame`].
    pub fn finish_frame(self) -> Bytes {
        let payload = self.buf.freeze();
        let mut framed = BytesMut::with_capacity(payload.len() + 8);
        framed.put_u32_le(payload.len() as u32);
        framed.put_u32_le(crc32(&payload));
        framed.put_slice(&payload);
        framed.freeze()
    }
}

/// Decoder half of the codec.
#[derive(Debug)]
pub struct Decoder {
    buf: Bytes,
}

impl Decoder {
    /// Wraps a raw (unframed) buffer.
    pub fn new(buf: Bytes) -> Self {
        Decoder { buf }
    }

    /// Opens a checksummed frame produced by [`Encoder::finish_frame`],
    /// verifying length and CRC before any field is decoded.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::UnexpectedEof`] if the frame header or payload
    /// is truncated, and [`DecodeError::ChecksumMismatch`] on corruption.
    pub fn from_frame(mut framed: Bytes) -> Result<Self, DecodeError> {
        if framed.remaining() < 8 {
            return Err(DecodeError::UnexpectedEof { context: "frame header" });
        }
        let len = framed.get_u32_le() as usize;
        let expected = framed.get_u32_le();
        if framed.remaining() < len {
            return Err(DecodeError::UnexpectedEof { context: "frame payload" });
        }
        let payload = framed.split_to(len);
        let actual = crc32(&payload);
        if actual != expected {
            return Err(DecodeError::ChecksumMismatch { expected, actual });
        }
        Ok(Decoder { buf: payload })
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.remaining()
    }

    /// Fails with [`DecodeError::TrailingBytes`] unless fully consumed.
    pub fn finish(self) -> Result<(), DecodeError> {
        if self.buf.has_remaining() {
            Err(DecodeError::TrailingBytes {
                remaining: self.buf.remaining(),
            })
        } else {
            Ok(())
        }
    }

    /// Reads `n` raw bytes.
    ///
    /// # Errors
    ///
    /// [`DecodeError::UnexpectedEof`] when fewer than `n` bytes remain.
    pub fn get_raw(&mut self, n: usize, context: &'static str) -> Result<Bytes, DecodeError> {
        if self.buf.remaining() < n {
            return Err(DecodeError::UnexpectedEof { context });
        }
        Ok(self.buf.split_to(n))
    }

    /// Reads a fixed-width little-endian `u16`.
    ///
    /// # Errors
    ///
    /// [`DecodeError::UnexpectedEof`] on truncation.
    pub fn get_u16(&mut self, context: &'static str) -> Result<u16, DecodeError> {
        if self.buf.remaining() < 2 {
            return Err(DecodeError::UnexpectedEof { context });
        }
        Ok(self.buf.get_u16_le())
    }

    /// Reads a LEB128 varint.
    ///
    /// # Errors
    ///
    /// [`DecodeError::UnexpectedEof`] on truncation,
    /// [`DecodeError::VarintOverflow`] past 64 bits.
    pub fn get_varint(&mut self, context: &'static str) -> Result<u64, DecodeError> {
        let mut shift = 0u32;
        let mut out = 0u64;
        loop {
            if !self.buf.has_remaining() {
                return Err(DecodeError::UnexpectedEof { context });
            }
            let byte = self.buf.get_u8();
            if shift >= 64 || (shift == 63 && byte > 1) {
                return Err(DecodeError::VarintOverflow);
            }
            out |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(out);
            }
            shift += 7;
        }
    }

    /// Reads a length-prefixed byte field, enforcing the 1 GiB `MAX_FIELD_LEN` bound.
    ///
    /// # Errors
    ///
    /// Propagates varint errors, [`DecodeError::LengthOutOfBounds`] when the
    /// prefix exceeds the sanity bound, and
    /// [`DecodeError::UnexpectedEof`] when the payload is truncated.
    pub fn get_bytes(&mut self, context: &'static str) -> Result<Bytes, DecodeError> {
        let len = self.get_varint(context)?;
        if len > MAX_FIELD_LEN {
            return Err(DecodeError::LengthOutOfBounds { len, max: MAX_FIELD_LEN });
        }
        self.get_raw(len as usize, context)
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// As for [`Decoder::get_bytes`], plus [`DecodeError::InvalidUtf8`].
    pub fn get_str(&mut self, context: &'static str) -> Result<String, DecodeError> {
        let raw = self.get_bytes(context)?;
        String::from_utf8(raw.to_vec()).map_err(|_| DecodeError::InvalidUtf8)
    }
}

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), table-driven.
pub fn crc32(data: &[u8]) -> u32 {
    // Build the table once.
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, entry) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
            *entry = c;
        }
        t
    });
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc = table[((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip_edges() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX] {
            let mut e = Encoder::new();
            e.put_varint(v);
            let mut d = Decoder::new(e.finish());
            assert_eq!(d.get_varint("v").unwrap(), v);
            d.finish().unwrap();
        }
    }

    #[test]
    fn varint_is_compact() {
        let mut e = Encoder::new();
        e.put_varint(5);
        assert_eq!(e.len(), 1);
        let mut e = Encoder::new();
        e.put_varint(300);
        assert_eq!(e.len(), 2);
    }

    #[test]
    fn varint_overflow_rejected() {
        // Eleven continuation bytes encode more than 64 bits.
        let bad = Bytes::from_static(&[0xFF; 11]);
        let mut d = Decoder::new(bad);
        assert_eq!(d.get_varint("x"), Err(DecodeError::VarintOverflow));
    }

    #[test]
    fn varint_truncation_rejected() {
        let bad = Bytes::from_static(&[0x80]); // continuation with no next byte
        let mut d = Decoder::new(bad);
        assert_eq!(
            d.get_varint("trunc"),
            Err(DecodeError::UnexpectedEof { context: "trunc" })
        );
    }

    #[test]
    fn string_and_bytes_roundtrip() {
        let mut e = Encoder::new();
        e.put_str("héllo wörld");
        e.put_bytes(&[1, 2, 3]);
        e.put_u16(42);
        let mut d = Decoder::new(e.finish());
        assert_eq!(d.get_str("s").unwrap(), "héllo wörld");
        assert_eq!(d.get_bytes("b").unwrap().as_ref(), &[1, 2, 3]);
        assert_eq!(d.get_u16("w").unwrap(), 42);
        d.finish().unwrap();
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut e = Encoder::new();
        e.put_bytes(&[0xFF, 0xFE]);
        let mut d = Decoder::new(e.finish());
        assert_eq!(d.get_str("s"), Err(DecodeError::InvalidUtf8));
    }

    #[test]
    fn oversized_length_rejected() {
        let mut e = Encoder::new();
        e.put_varint(MAX_FIELD_LEN + 1);
        let mut d = Decoder::new(e.finish());
        assert!(matches!(
            d.get_bytes("big"),
            Err(DecodeError::LengthOutOfBounds { .. })
        ));
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut e = Encoder::new();
        e.put_varint(1);
        e.put_raw(&[9, 9]);
        let mut d = Decoder::new(e.finish());
        d.get_varint("v").unwrap();
        assert_eq!(d.finish(), Err(DecodeError::TrailingBytes { remaining: 2 }));
    }

    #[test]
    fn frame_roundtrip() {
        let mut e = Encoder::new();
        e.put_str("payload");
        let framed = e.finish_frame();
        let mut d = Decoder::from_frame(framed).unwrap();
        assert_eq!(d.get_str("p").unwrap(), "payload");
        d.finish().unwrap();
    }

    #[test]
    fn frame_detects_corruption() {
        let mut e = Encoder::new();
        e.put_str("payload");
        let framed = e.finish_frame();
        let mut bytes = framed.to_vec();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        match Decoder::from_frame(Bytes::from(bytes)) {
            Err(DecodeError::ChecksumMismatch { .. }) => {}
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn frame_detects_truncation() {
        let mut e = Encoder::new();
        e.put_bytes(&[0u8; 100]);
        let framed = e.finish_frame();
        let truncated = framed.slice(0..framed.len() - 10);
        assert!(matches!(
            Decoder::from_frame(truncated),
            Err(DecodeError::UnexpectedEof { .. })
        ));
        let tiny = framed.slice(0..4);
        assert!(matches!(
            Decoder::from_frame(tiny),
            Err(DecodeError::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn encoder_capacity_and_empty() {
        let e = Encoder::with_capacity(64);
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
    }
}
