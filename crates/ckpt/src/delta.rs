//! Delta checkpoints: ship only what changed.
//!
//! §4 of the paper worries about the cost of placing and checkpointing
//! images ("our implementation does not try to place or checkpoint several
//! jobs simultaneously") and floats periodic checkpointing as a strategy —
//! which multiplies transfer volume. A classic remedy (adopted by later
//! checkpointing systems) is the **delta checkpoint**: against the previous
//! image, only changed blocks travel.
//!
//! A [`Delta`] is computed per segment at fixed block granularity: blocks
//! equal to the base image are encoded as references, changed blocks as
//! literals. Text segments (immutable during execution) therefore cost a
//! few bytes; a long-running simulation that touches a fraction of its data
//! segment ships only that fraction.
//!
//! `apply(diff(base, new), base) == new` is enforced by property tests.

use bytes::Bytes;

use crate::codec::{Decoder, Encoder};
use crate::error::DecodeError;
use crate::image::{CheckpointImage, SegmentKind};

/// Block granularity of the differ (4 KiB, a period page size).
const BLOCK: usize = 4096;

/// Magic bytes of an encoded delta ("CKDL").
pub const DELTA_MAGIC: [u8; 4] = *b"CKDL";

/// One segment's delta: a block map plus literal data.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SegmentDelta {
    kind: SegmentKind,
    base: u64,
    /// New payload length in bytes.
    new_len: u64,
    /// Per-block instructions, one per block of the new payload:
    /// `true` = copy from base at the same offset, `false` = take the next
    /// literal run.
    copy_from_base: Vec<bool>,
    /// Concatenated literal blocks (in order).
    literals: Bytes,
}

/// A delta between two checkpoint images of the same job.
///
/// # Examples
///
/// ```
/// use condor_ckpt::delta::Delta;
/// use condor_ckpt::image::{CheckpointBuilder, SegmentKind};
///
/// let base = CheckpointBuilder::new(1, 1)
///     .segment(SegmentKind::Data, 0, vec![0u8; 40_960])
///     .build()
///     .unwrap();
/// let mut changed = vec![0u8; 40_960];
/// changed[5_000] = 7; // one page touched
/// let new = CheckpointBuilder::new(1, 2)
///     .segment(SegmentKind::Data, 0, changed)
///     .build()
///     .unwrap();
///
/// let delta = Delta::diff(&base, &new);
/// assert!(delta.encoded_size() < new.size_bytes() / 2);
/// assert_eq!(delta.apply(&base).unwrap(), new);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delta {
    job_id: u64,
    base_sequence: u32,
    new_sequence: u32,
    segments: Vec<SegmentDelta>,
    /// Registers and open files are tiny; always carried verbatim as the
    /// re-encoded remainder of the new image.
    registers_and_files: Bytes,
}

impl Delta {
    /// Computes the delta from `base` to `new`.
    ///
    /// # Panics
    ///
    /// Panics if the images belong to different jobs — a delta across jobs
    /// is always a logic error.
    pub fn diff(base: &CheckpointImage, new: &CheckpointImage) -> Delta {
        assert_eq!(
            base.job_id(),
            new.job_id(),
            "delta across different jobs ({} vs {})",
            base.job_id(),
            new.job_id()
        );
        let mut segments = Vec::with_capacity(new.segments().len());
        for seg in new.segments() {
            let base_payload = base
                .segment(seg.kind())
                .filter(|b| b.base() == seg.base())
                .map(|b| b.payload().as_ref())
                .unwrap_or(&[]);
            let payload = seg.payload().as_ref();
            let n_blocks = payload.len().div_ceil(BLOCK);
            let mut copy_from_base = Vec::with_capacity(n_blocks);
            let mut literals = Vec::new();
            for b in 0..n_blocks {
                let lo = b * BLOCK;
                let hi = (lo + BLOCK).min(payload.len());
                let same = base_payload.len() >= hi && base_payload[lo..hi] == payload[lo..hi];
                copy_from_base.push(same);
                if !same {
                    literals.extend_from_slice(&payload[lo..hi]);
                }
            }
            segments.push(SegmentDelta {
                kind: seg.kind(),
                base: seg.base(),
                new_len: payload.len() as u64,
                copy_from_base,
                literals: Bytes::from(literals),
            });
        }
        // Re-encode registers + open files by building a segment-free twin
        // image; cheap because those tables are tiny.
        let mut meta = Encoder::new();
        encode_meta(new, &mut meta);
        Delta {
            job_id: new.job_id(),
            base_sequence: base.sequence(),
            new_sequence: new.sequence(),
            segments,
            registers_and_files: meta.finish(),
        }
    }

    /// Reconstructs the new image from `base`.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] when the delta does not match the base (wrong job,
    /// wrong base sequence, base segments shorter than referenced, or a
    /// segment claiming more bytes than base and literals can supply).
    pub fn apply(&self, base: &CheckpointImage) -> Result<CheckpointImage, DecodeError> {
        if base.job_id() != self.job_id {
            return Err(DecodeError::InvalidDiscriminant {
                what: "delta job id",
                value: base.job_id(),
            });
        }
        if base.sequence() != self.base_sequence {
            return Err(DecodeError::InvalidDiscriminant {
                what: "delta base sequence",
                value: u64::from(base.sequence()),
            });
        }
        let mut builder = crate::image::CheckpointBuilder::new(self.job_id, self.new_sequence);
        for sd in &self.segments {
            let base_payload = base
                .segment(sd.kind)
                .filter(|b| b.base() == sd.base)
                .map(|b| b.payload().as_ref())
                .unwrap_or(&[]);
            // Every output byte is copied from the base or taken from the
            // literals, so a longer claim is malformed — and must be turned
            // away before it sizes an allocation.
            let max = (base_payload.len() + sd.literals.len()) as u64;
            if sd.new_len > max {
                return Err(DecodeError::LengthOutOfBounds { len: sd.new_len, max });
            }
            let mut payload = Vec::with_capacity(sd.new_len as usize);
            let mut lit_cursor = 0usize;
            for (b, &copy) in sd.copy_from_base.iter().enumerate() {
                let lo = b * BLOCK;
                let hi = ((b + 1) * BLOCK).min(sd.new_len as usize);
                if copy {
                    if base_payload.len() < hi {
                        return Err(DecodeError::UnexpectedEof {
                            context: "delta base segment",
                        });
                    }
                    payload.extend_from_slice(&base_payload[lo..hi]);
                } else {
                    let len = hi - lo;
                    if self_literals_short(&sd.literals, lit_cursor, len) {
                        return Err(DecodeError::UnexpectedEof {
                            context: "delta literals",
                        });
                    }
                    payload.extend_from_slice(&sd.literals[lit_cursor..lit_cursor + len]);
                    lit_cursor += len;
                }
            }
            builder = builder.segment(sd.kind, sd.base, payload);
        }
        // Registers and open files.
        let mut d = Decoder::new(self.registers_and_files.clone());
        let (pc, sp, gprs, files) = decode_meta(&mut d)?;
        builder = builder.registers(pc, sp, gprs);
        for f in files {
            builder = builder.open_file(f.fd, f.path, f.mode, f.offset);
        }
        Ok(builder.build().expect("applied delta is quiescent"))
    }

    /// The job both images belong to.
    pub fn job_id(&self) -> u64 {
        self.job_id
    }

    /// Bytes of literal (changed) data carried.
    pub fn literal_bytes(&self) -> u64 {
        self.segments.iter().map(|s| s.literals.len() as u64).sum()
    }

    /// Serialises the delta into a checksummed frame.
    pub fn encode(&self) -> Bytes {
        let mut e = Encoder::with_capacity(64 + self.literal_bytes() as usize);
        e.put_raw(&DELTA_MAGIC);
        e.put_varint(self.job_id);
        e.put_varint(u64::from(self.base_sequence));
        e.put_varint(u64::from(self.new_sequence));
        e.put_varint(self.segments.len() as u64);
        for s in &self.segments {
            e.put_varint(match s.kind {
                SegmentKind::Text => 0,
                SegmentKind::Data => 1,
                SegmentKind::Bss => 2,
                SegmentKind::Stack => 3,
            });
            e.put_varint(s.base);
            e.put_varint(s.new_len);
            // Bitmap, packed.
            e.put_varint(s.copy_from_base.len() as u64);
            let mut packed = vec![0u8; s.copy_from_base.len().div_ceil(8)];
            for (i, &c) in s.copy_from_base.iter().enumerate() {
                if c {
                    packed[i / 8] |= 1 << (i % 8);
                }
            }
            e.put_bytes(&packed);
            e.put_bytes(&s.literals);
        }
        e.put_bytes(&self.registers_and_files);
        e.finish_frame()
    }

    /// Size of the encoded delta (for transfer-cost comparisons).
    pub fn encoded_size(&self) -> u64 {
        self.encode().len() as u64
    }

    /// Decodes a delta frame.
    ///
    /// # Errors
    ///
    /// Any [`DecodeError`] on corruption or malformed structure.
    pub fn decode(frame: Bytes) -> Result<Delta, DecodeError> {
        let mut d = Decoder::from_frame(frame)?;
        let magic = d.get_raw(4, "delta magic")?;
        if magic.as_ref() != DELTA_MAGIC {
            let mut found = [0u8; 4];
            found.copy_from_slice(&magic);
            return Err(DecodeError::BadMagic { found });
        }
        let job_id = d.get_varint("job id")?;
        let base_sequence = get_sequence(&mut d, "base seq")?;
        let new_sequence = get_sequence(&mut d, "new seq")?;
        let n = d.get_varint("segment count")?;
        if n > 64 {
            return Err(DecodeError::LengthOutOfBounds { len: n, max: 64 });
        }
        let mut segments = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let kind = match d.get_varint("kind")? {
                0 => SegmentKind::Text,
                1 => SegmentKind::Data,
                2 => SegmentKind::Bss,
                3 => SegmentKind::Stack,
                v => {
                    return Err(DecodeError::InvalidDiscriminant {
                        what: "SegmentKind",
                        value: v,
                    })
                }
            };
            let base = d.get_varint("base addr")?;
            let new_len = d.get_varint("new len")?;
            let n_blocks = d.get_varint("block count")? as usize;
            if n_blocks != (new_len as usize).div_ceil(BLOCK) {
                return Err(DecodeError::LengthOutOfBounds {
                    len: n_blocks as u64,
                    max: (new_len as usize).div_ceil(BLOCK) as u64,
                });
            }
            let packed = d.get_bytes("block bitmap")?;
            if packed.len() != n_blocks.div_ceil(8) {
                return Err(DecodeError::UnexpectedEof { context: "block bitmap" });
            }
            let copy_from_base: Vec<bool> =
                (0..n_blocks).map(|i| packed[i / 8] & (1 << (i % 8)) != 0).collect();
            let literals = d.get_bytes("literals")?;
            segments.push(SegmentDelta {
                kind,
                base,
                new_len,
                copy_from_base,
                literals,
            });
        }
        let registers_and_files = d.get_bytes("meta")?;
        d.finish()?;
        Ok(Delta {
            job_id,
            base_sequence,
            new_sequence,
            segments,
            registers_and_files,
        })
    }
}

/// Reads a sequence number, rejecting one that does not fit its `u32`.
fn get_sequence(d: &mut Decoder, context: &'static str) -> Result<u32, DecodeError> {
    let v = d.get_varint(context)?;
    u32::try_from(v).map_err(|_| DecodeError::LengthOutOfBounds { len: v, max: u64::from(u32::MAX) })
}

fn self_literals_short(lit: &Bytes, cursor: usize, len: usize) -> bool {
    lit.len() < cursor + len
}

fn encode_meta(img: &CheckpointImage, e: &mut Encoder) {
    let regs = img.registers();
    e.put_varint(regs.pc);
    e.put_varint(regs.sp);
    e.put_varint(regs.gprs.len() as u64);
    for &g in &regs.gprs {
        e.put_varint(g);
    }
    e.put_varint(img.open_files().len() as u64);
    for f in img.open_files() {
        e.put_varint(u64::from(f.fd));
        e.put_str(&f.path);
        e.put_varint(match f.mode {
            crate::image::FileMode::Read => 0,
            crate::image::FileMode::Write => 1,
            crate::image::FileMode::ReadWrite => 2,
            crate::image::FileMode::Append => 3,
        });
        e.put_varint(f.offset);
    }
}

type Meta = (u64, u64, Vec<u64>, Vec<crate::image::OpenFile>);

fn decode_meta(d: &mut Decoder) -> Result<Meta, DecodeError> {
    let pc = d.get_varint("pc")?;
    let sp = d.get_varint("sp")?;
    let n = d.get_varint("gprs")?;
    if n > 4096 {
        return Err(DecodeError::LengthOutOfBounds { len: n, max: 4096 });
    }
    let mut gprs = Vec::with_capacity(n as usize);
    for _ in 0..n {
        gprs.push(d.get_varint("gpr")?);
    }
    let nf = d.get_varint("files")?;
    if nf > 65_536 {
        return Err(DecodeError::LengthOutOfBounds { len: nf, max: 65_536 });
    }
    let mut files = Vec::with_capacity(nf as usize);
    for _ in 0..nf {
        let fd = d.get_varint("fd")? as u32;
        let path = d.get_str("path")?;
        let mode = match d.get_varint("mode")? {
            0 => crate::image::FileMode::Read,
            1 => crate::image::FileMode::Write,
            2 => crate::image::FileMode::ReadWrite,
            3 => crate::image::FileMode::Append,
            v => {
                return Err(DecodeError::InvalidDiscriminant {
                    what: "FileMode",
                    value: v,
                })
            }
        };
        let offset = d.get_varint("offset")?;
        files.push(crate::image::OpenFile::new(fd, path, mode, offset));
    }
    if d.remaining() > 0 {
        return Err(DecodeError::TrailingBytes { remaining: d.remaining() });
    }
    Ok((pc, sp, gprs, files))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::{CheckpointBuilder, FileMode};

    fn image(seq: u32, data: Vec<u8>, stack: Vec<u8>) -> CheckpointImage {
        CheckpointBuilder::new(7, seq)
            .segment(SegmentKind::Text, 0, vec![0x90; 10_000])
            .segment(SegmentKind::Data, 0x10_000, data)
            .segment(SegmentKind::Stack, 0xF0_000, stack)
            .registers(seq as u64 * 100, 0xFF, vec![1, 2, 3])
            .open_file(3, "/u/out.dat", FileMode::Append, u64::from(seq) * 512)
            .build()
            .unwrap()
    }

    #[test]
    fn identical_images_produce_tiny_delta() {
        let base = image(1, vec![5u8; 100_000], vec![9u8; 20_000]);
        let new = image(2, vec![5u8; 100_000], vec![9u8; 20_000]);
        let delta = Delta::diff(&base, &new);
        assert_eq!(delta.literal_bytes(), 0);
        assert!(delta.encoded_size() < 500, "delta {} bytes", delta.encoded_size());
        assert_eq!(delta.apply(&base).unwrap(), new);
    }

    #[test]
    fn single_page_change_ships_one_block() {
        let base = image(1, vec![5u8; 100_000], vec![9u8; 20_000]);
        let mut data = vec![5u8; 100_000];
        data[50_123] = 42;
        let new = image(2, data, vec![9u8; 20_000]);
        let delta = Delta::diff(&base, &new);
        assert_eq!(delta.literal_bytes(), BLOCK as u64);
        assert_eq!(delta.apply(&base).unwrap(), new);
        // Versus ~130 kB full image.
        assert!(delta.encoded_size() < 6_000);
    }

    #[test]
    fn growth_and_shrink_roundtrip() {
        let base = image(1, vec![1u8; 10_000], vec![2u8; 5_000]);
        // Data grows, stack shrinks.
        let new = image(2, vec![1u8; 50_000], vec![2u8; 1_000]);
        let delta = Delta::diff(&base, &new);
        assert_eq!(delta.apply(&base).unwrap(), new);
        // Shrink-only:
        let smaller = image(3, vec![1u8; 4_000], vec![2u8; 100]);
        let d2 = Delta::diff(&new, &smaller);
        assert_eq!(d2.apply(&new).unwrap(), smaller);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let base = image(1, vec![3u8; 30_000], vec![4u8; 8_000]);
        let mut data = vec![3u8; 30_000];
        for i in (0..30_000).step_by(7_000) {
            data[i] ^= 0xFF;
        }
        let new = image(2, data, vec![4u8; 8_000]);
        let delta = Delta::diff(&base, &new);
        let decoded = Delta::decode(delta.encode()).unwrap();
        assert_eq!(decoded, delta);
        assert_eq!(decoded.apply(&base).unwrap(), new);
    }

    #[test]
    fn wrong_base_is_rejected() {
        let base1 = image(1, vec![1u8; 10_000], vec![0u8; 100]);
        let base2 = image(5, vec![2u8; 10_000], vec![0u8; 100]);
        let new = image(2, vec![1u8; 10_000], vec![0u8; 100]);
        let delta = Delta::diff(&base1, &new);
        assert!(delta.apply(&base2).is_err(), "wrong sequence must fail");
        let other_job = CheckpointBuilder::new(99, 1).build().unwrap();
        assert!(delta.apply(&other_job).is_err(), "wrong job must fail");
    }

    #[test]
    #[should_panic(expected = "delta across different jobs")]
    fn diff_across_jobs_panics() {
        let a = CheckpointBuilder::new(1, 1).build().unwrap();
        let b = CheckpointBuilder::new(2, 1).build().unwrap();
        let _ = Delta::diff(&a, &b);
    }

    #[test]
    fn corrupt_delta_frame_rejected() {
        let base = image(1, vec![1u8; 10_000], vec![0u8; 100]);
        let new = image(2, vec![2u8; 10_000], vec![0u8; 100]);
        let mut bytes = Delta::diff(&base, &new).encode().to_vec();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        assert!(Delta::decode(Bytes::from(bytes)).is_err());
    }

    /// A well-formed ≈64 KiB frame whose one segment claims 2 GiB: the
    /// block bitmap is the only thing `decode` can hold `new_len` against.
    fn oversized_claim() -> Bytes {
        let new_len = 2u64 << 30;
        let n_blocks = new_len as usize / BLOCK;
        let mut e = Encoder::new();
        e.put_raw(&DELTA_MAGIC);
        for v in [7, 1, 2, 1, 1, 0x10_000, new_len, n_blocks as u64] {
            e.put_varint(v);
        }
        e.put_bytes(&vec![0u8; n_blocks / 8]); // every block a literal
        e.put_bytes(&[]); // ...and no literal data
        let mut meta = Encoder::new();
        encode_meta(&CheckpointBuilder::new(7, 2).build().unwrap(), &mut meta);
        e.put_bytes(&meta.finish());
        e.finish_frame()
    }

    #[test]
    fn oversized_length_claim_is_rejected_before_allocating() {
        let frame = oversized_claim();
        assert!(frame.len() < 70_000);
        let delta = Delta::decode(frame).expect("structurally valid");
        let base = image(1, vec![1u8; 10_000], vec![0u8; 100]);
        assert_eq!(
            delta.apply(&base),
            Err(DecodeError::LengthOutOfBounds { len: 2 << 30, max: 10_000 })
        );
    }

    #[test]
    fn sequence_numbers_past_u32_are_rejected() {
        let mut e = Encoder::new();
        e.put_raw(&DELTA_MAGIC);
        e.put_varint(7);
        e.put_varint(u64::from(u32::MAX) + 2); // would truncate to 1
        assert_eq!(
            Delta::decode(e.finish_frame()),
            Err(DecodeError::LengthOutOfBounds { len: 1 << 32 | 1, max: u64::from(u32::MAX) })
        );
    }

    #[test]
    fn accessors() {
        let base = image(3, vec![0u8; 100], vec![0u8; 100]);
        let new = image(4, vec![1u8; 100], vec![0u8; 100]);
        let d = Delta::diff(&base, &new);
        assert_eq!(d.job_id(), 7);
        assert!(d.literal_bytes() > 0);
    }
}
