//! Property-based tests: checkpoint images survive any roundtrip, and the
//! codec rejects arbitrary corruption rather than mis-decoding.

use bytes::Bytes;
use condor_ckpt::codec::{crc32, Decoder, Encoder};
use condor_ckpt::image::{CheckpointBuilder, CheckpointImage, FileMode, SegmentKind};
use condor_ckpt::store::CheckpointStore;
use proptest::prelude::*;

fn arb_segment_kind() -> impl Strategy<Value = SegmentKind> {
    prop_oneof![
        Just(SegmentKind::Text),
        Just(SegmentKind::Data),
        Just(SegmentKind::Bss),
        Just(SegmentKind::Stack),
    ]
}

fn arb_file_mode() -> impl Strategy<Value = FileMode> {
    prop_oneof![
        Just(FileMode::Read),
        Just(FileMode::Write),
        Just(FileMode::ReadWrite),
        Just(FileMode::Append),
    ]
}

prop_compose! {
    fn arb_image()(
        job_id in any::<u64>(),
        sequence in any::<u32>(),
        segments in prop::collection::vec(
            (arb_segment_kind(), any::<u64>(), prop::collection::vec(any::<u8>(), 0..512)),
            0..6,
        ),
        pc in any::<u64>(),
        sp in any::<u64>(),
        gprs in prop::collection::vec(any::<u64>(), 0..32),
        files in prop::collection::vec(
            (any::<u32>(), "[a-zA-Z0-9/_.]{0,40}", arb_file_mode(), any::<u64>()),
            0..8,
        ),
    ) -> CheckpointImage {
        let mut b = CheckpointBuilder::new(job_id, sequence).registers(pc, sp, gprs);
        for (kind, base, payload) in segments {
            b = b.segment(kind, base, payload);
        }
        for (fd, path, mode, offset) in files {
            b = b.open_file(fd, path, mode, offset);
        }
        b.build().expect("no outstanding replies")
    }
}

proptest! {
    /// encode → decode is the identity for arbitrary images.
    #[test]
    fn image_roundtrip(img in arb_image()) {
        let frame = img.encode();
        let back = CheckpointImage::decode(frame).expect("decode");
        prop_assert_eq!(back, img);
    }

    /// Encoding is deterministic: equal images produce equal bytes.
    #[test]
    fn encoding_is_deterministic(img in arb_image()) {
        prop_assert_eq!(img.encode(), img.clone().encode());
    }

    /// Flipping any single bit of the frame is detected (never decodes to a
    /// *different* valid image).
    #[test]
    fn single_bitflip_never_silently_accepted(img in arb_image(), flip in any::<prop::sample::Index>()) {
        let frame = img.encode().to_vec();
        let bit = flip.index(frame.len() * 8);
        let mut corrupted = frame.clone();
        corrupted[bit / 8] ^= 1 << (bit % 8);
        if let Ok(decoded) = CheckpointImage::decode(Bytes::from(corrupted)) {
            // Only acceptable if the flip landed somewhere ignored and the
            // image is still byte-identical in meaning.
            prop_assert_eq!(decoded, img, "corruption produced a different image");
        } // rejected: good

    }

    /// Truncating the frame anywhere is always rejected.
    #[test]
    fn truncation_always_rejected(img in arb_image(), cut in any::<prop::sample::Index>()) {
        let frame = img.encode();
        let cut_at = cut.index(frame.len().max(1));
        if cut_at < frame.len() {
            let truncated = frame.slice(0..cut_at);
            prop_assert!(CheckpointImage::decode(truncated).is_err());
        }
    }

    /// Arbitrary garbage never decodes.
    #[test]
    fn garbage_never_decodes(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        // The odds of random bytes passing length, CRC, magic, and version
        // checks are negligible; assert rejection outright.
        prop_assert!(CheckpointImage::decode(Bytes::from(bytes)).is_err());
    }

    /// Varint roundtrip over the full u64 domain.
    #[test]
    fn varint_roundtrip(v in any::<u64>()) {
        let mut e = Encoder::new();
        e.put_varint(v);
        let mut d = Decoder::new(e.finish());
        prop_assert_eq!(d.get_varint("v").unwrap(), v);
        d.finish().unwrap();
    }

    /// Mixed field sequences roundtrip in order.
    #[test]
    fn field_sequence_roundtrip(
        strings in prop::collection::vec("[\\PC]{0,20}", 0..8),
        blobs in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..64), 0..8),
    ) {
        let mut e = Encoder::new();
        for s in &strings { e.put_str(s); }
        for b in &blobs { e.put_bytes(b); }
        let mut d = Decoder::new(e.finish());
        for s in &strings {
            prop_assert_eq!(&d.get_str("s").unwrap(), s);
        }
        for b in &blobs {
            let got = d.get_bytes("b").unwrap();
            prop_assert_eq!(got.as_ref(), b.as_slice());
        }
        d.finish().unwrap();
    }

    /// CRC differs for different payloads almost surely; identical payloads
    /// always match.
    #[test]
    fn crc_consistency(a in prop::collection::vec(any::<u8>(), 0..128)) {
        prop_assert_eq!(crc32(&a), crc32(&a.clone()));
    }

    /// Store capacity accounting: used() equals the sum of stored frame
    /// sizes after any sequence of puts and removes.
    #[test]
    fn store_accounting_is_exact(ops in prop::collection::vec((0u64..8, 0usize..300, any::<bool>()), 1..40)) {
        let mut store = CheckpointStore::new(1 << 22);
        let mut seqs = std::collections::HashMap::new();
        let mut expected: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        for (job, len, remove) in ops {
            if remove {
                let freed = store.remove(job);
                if let Some(f) = freed {
                    prop_assert_eq!(f, expected.remove(&job).unwrap());
                } else {
                    prop_assert!(!expected.contains_key(&job));
                }
            } else {
                let seq = seqs.entry(job).and_modify(|s| *s += 1).or_insert(1u32);
                let img = CheckpointBuilder::new(job, *seq)
                    .segment(SegmentKind::Data, 0, vec![1u8; len])
                    .build()
                    .unwrap();
                store.put(&img).unwrap();
                expected.insert(job, img.size_bytes());
            }
            let total: u64 = expected.values().sum();
            prop_assert_eq!(store.used(), total);
            prop_assert_eq!(store.len(), expected.len());
        }
    }
}

// ---------------------------------------------------------------------------
// Delta checkpoints

use condor_ckpt::delta::Delta;

prop_compose! {
    /// A pair of same-job images where the second mutates, grows, or
    /// shrinks the first's segments.
    fn arb_image_pair()(
        base_data in prop::collection::vec(any::<u8>(), 0..20_000),
        mutations in prop::collection::vec((any::<prop::sample::Index>(), any::<u8>()), 0..20),
        resize in -5_000i64..5_000,
        stack in prop::collection::vec(any::<u8>(), 0..4_096),
    ) -> (CheckpointImage, CheckpointImage) {
        let base = CheckpointBuilder::new(11, 1)
            .segment(SegmentKind::Text, 0, vec![0x90u8; 8_192])
            .segment(SegmentKind::Data, 0x10_000, base_data.clone())
            .segment(SegmentKind::Stack, 0xF0_000, stack.clone())
            .registers(1, 2, vec![3, 4])
            .open_file(3, "/u/x", FileMode::Append, 100)
            .build()
            .unwrap();
        let mut new_data = base_data;
        for (idx, byte) in mutations {
            if !new_data.is_empty() {
                let i = idx.index(new_data.len());
                new_data[i] = byte;
            }
        }
        let new_len = (new_data.len() as i64 + resize).max(0) as usize;
        new_data.resize(new_len, 0xEE);
        let new = CheckpointBuilder::new(11, 2)
            .segment(SegmentKind::Text, 0, vec![0x90u8; 8_192])
            .segment(SegmentKind::Data, 0x10_000, new_data)
            .segment(SegmentKind::Stack, 0xF0_000, stack)
            .registers(9, 8, vec![7])
            .open_file(3, "/u/x", FileMode::Append, 200)
            .build()
            .unwrap();
        (base, new)
    }
}

proptest! {
    /// apply(diff(base, new), base) == new, for arbitrary mutations,
    /// growth, and shrinkage.
    #[test]
    fn delta_roundtrip((base, new) in arb_image_pair()) {
        let delta = Delta::diff(&base, &new);
        let rebuilt = delta.apply(&base).expect("apply");
        prop_assert_eq!(rebuilt, new);
    }

    /// Deltas survive their own encode/decode.
    #[test]
    fn delta_encoding_roundtrip((base, new) in arb_image_pair()) {
        let delta = Delta::diff(&base, &new);
        let decoded = Delta::decode(delta.encode()).expect("decode");
        prop_assert_eq!(&decoded, &delta);
        prop_assert_eq!(decoded.apply(&base).expect("apply"), new);
    }

    /// A delta is never (much) larger than the full image it replaces, and
    /// identical images produce near-empty deltas.
    #[test]
    fn delta_size_is_bounded((base, new) in arb_image_pair()) {
        let delta = Delta::diff(&base, &new);
        prop_assert!(delta.encoded_size() <= new.size_bytes() + 1_024);
    }

    /// Flipping any single bit of a delta frame is detected, or lands
    /// somewhere ignored: what still decodes is the same delta and
    /// rebuilds the same image.
    #[test]
    fn delta_single_bitflip_never_silently_accepted(
        (base, new) in arb_image_pair(),
        flip in any::<prop::sample::Index>(),
    ) {
        let delta = Delta::diff(&base, &new);
        if let Ok(decoded) = Delta::decode(flip_bit(&delta.encode(), flip)) {
            prop_assert_eq!(&decoded, &delta, "corruption produced a different delta");
            prop_assert_eq!(decoded.apply(&base).expect("apply"), new);
        }
    }

    /// The same flip under a recomputed checksum gets past the frame, so
    /// the structure checks are all that is left: `decode` and `apply`
    /// answer with a value or a typed error, never a panic, and never
    /// build more than base and literals can supply.
    #[test]
    fn delta_bitflip_behind_the_checksum_never_panics(
        (base, new) in arb_image_pair(),
        flip in any::<prop::sample::Index>(),
    ) {
        let frame = Delta::diff(&base, &new).encode();
        let damaged = reframe(&flip_bit(&frame.slice(8..), flip));
        if let Ok(delta) = Delta::decode(damaged) {
            if let Ok(img) = delta.apply(&base) {
                let built: usize = img.segments().iter().map(|s| s.payload().len()).sum();
                let supply: usize = base.segments().iter().map(|s| s.payload().len()).sum();
                prop_assert!(built as u64 <= supply as u64 + delta.literal_bytes());
            }
        }
    }

    /// Truncating a delta anywhere is always rejected — as a frame, and as
    /// a payload cut short under a checksum that matches the cut.
    #[test]
    fn delta_truncation_always_rejected(
        (base, new) in arb_image_pair(),
        cut in any::<prop::sample::Index>(),
    ) {
        let frame = Delta::diff(&base, &new).encode();
        prop_assert!(Delta::decode(frame.slice(0..cut.index(frame.len()))).is_err());
        let payload = frame.slice(8..);
        prop_assert!(Delta::decode(reframe(&payload[..cut.index(payload.len())])).is_err());
    }

    /// Arbitrary garbage never decodes as a delta; behind the magic and a
    /// matching checksum it may at most decode to something `apply` turns
    /// away or rebuilds without panicking.
    #[test]
    fn delta_garbage_never_decodes(
        (base, _) in arb_image_pair(),
        bytes in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        prop_assert!(Delta::decode(Bytes::from(bytes.clone())).is_err());
        let mut payload = condor_ckpt::delta::DELTA_MAGIC.to_vec();
        payload.extend_from_slice(&bytes);
        if let Ok(delta) = Delta::decode(reframe(&payload)) {
            let _ = delta.apply(&base);
        }
    }
}

fn flip_bit(bytes: &[u8], flip: prop::sample::Index) -> Bytes {
    let mut damaged = bytes.to_vec();
    let bit = flip.index(damaged.len() * 8);
    damaged[bit / 8] ^= 1 << (bit % 8);
    Bytes::from(damaged)
}

/// Wraps a raw payload in a frame whose length and CRC match it.
fn reframe(payload: &[u8]) -> Bytes {
    let mut e = Encoder::new();
    e.put_raw(payload);
    e.finish_frame()
}
