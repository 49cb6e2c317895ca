//! Error-path coverage: truncation, corruption, and version skew all
//! surface as the right typed error — never a panic or an infinite loop.

use dol_isa::{InstBlock, InstKind, InstSource, Reg, RetiredInst, SparseMemory, BLOCK_INSTS};
use dol_trace::{
    decode_workload, encode_workload, ReplaySource, TraceError, TraceHeader, TraceReader, MAGIC,
    VERSION,
};

/// A small valid trace with a memory image and a few hundred
/// instructions (spans header, memory, instruction, and end frames).
fn sample_trace() -> Vec<u8> {
    let mut memory = SparseMemory::new();
    for i in 0..64u64 {
        memory.write_u64(0x1000 + i * 8, i.wrapping_mul(0x9E37_79B9));
    }
    let insts: Vec<RetiredInst> = (0..300u64)
        .map(|i| RetiredInst {
            pc: 0x4000 + i * 4,
            kind: if i % 3 == 0 {
                InstKind::Load {
                    addr: 0x1000 + (i % 64) * 8,
                    value: i,
                }
            } else {
                InstKind::Alu { latency: 1 }
            },
            dst: Some(Reg::R1),
            srcs: [Some(Reg::R2), None],
        })
        .collect();
    let header = TraceHeader {
        name: "sample".into(),
        seed: 1,
        insts: insts.len() as u64,
    };
    let mut bytes = Vec::new();
    encode_workload(&mut bytes, &header, &memory, &insts).expect("valid trace encodes");
    bytes
}

/// A trace of 40,000 scattered loads and ALU ops with an empty memory
/// image: several 64 KiB instruction chunks.
fn multi_chunk_trace() -> Vec<u8> {
    let insts: Vec<RetiredInst> = (0..40_000u64)
        .map(|i| RetiredInst {
            pc: 0x4000 + (i % 97) * 4,
            kind: if i % 2 == 0 {
                InstKind::Load {
                    addr: i.wrapping_mul(0x9E37_79B9_7F4A_7C15) & !7,
                    value: i,
                }
            } else {
                InstKind::Alu { latency: 1 }
            },
            dst: Some(Reg::R1),
            srcs: [Some(Reg::R2), None],
        })
        .collect();
    let header = TraceHeader {
        name: "multi".into(),
        seed: 1,
        insts: insts.len() as u64,
    };
    let mut bytes = Vec::new();
    encode_workload(&mut bytes, &header, &SparseMemory::new(), &insts).expect("trace encodes");
    bytes
}

/// Opens `bytes` as a replay source positioned at the instruction stream.
fn replay(bytes: &[u8]) -> ReplaySource<&[u8]> {
    let mut reader = TraceReader::new(bytes).expect("header survives the cut");
    reader.read_memory().expect("memory image survives the cut");
    ReplaySource::new(reader)
}

#[test]
fn truncated_replay_delivers_the_same_prefix_batched_or_not() {
    let bytes = multi_chunk_trace();
    let cuts = [bytes.len() / 2, bytes.len() * 3 / 4, bytes.len() - 1];
    for cut in cuts {
        let mut one_at_a_time = replay(&bytes[..cut]);
        let mut expect = Vec::new();
        while let Some(inst) = one_at_a_time.next_inst() {
            expect.push(inst);
        }
        assert!(
            matches!(one_at_a_time.error(), Some(TraceError::Truncated(_))),
            "cut at {cut}: next_inst error {:?}",
            one_at_a_time.error()
        );
        assert!(!expect.is_empty(), "cut at {cut}: nothing decoded first");
        if cut == cuts[0] {
            // Chunks do not end on block boundaries, so the block that
            // hits this cut carries a partial prefix: the case the
            // contract is about.
            assert_ne!(expect.len() % BLOCK_INSTS, 0, "prefix fills whole blocks");
        }

        let mut batched = replay(&bytes[..cut]);
        let mut block = InstBlock::new();
        let mut got = Vec::new();
        loop {
            batched.next_block(&mut block);
            if block.is_empty() {
                break;
            }
            got.extend_from_slice(block.as_slice());
        }
        assert_eq!(got, expect, "cut at {cut}: batched prefix differs");
        assert!(
            matches!(batched.error(), Some(TraceError::Truncated(_))),
            "cut at {cut}: next_block error {:?}",
            batched.error()
        );
        batched.next_block(&mut block);
        assert!(
            block.is_empty(),
            "cut at {cut}: stream resumed after an error"
        );
    }
}

#[test]
fn truncation_mid_chunk_is_reported_as_truncated() {
    let bytes = sample_trace();
    // Cut the file mid-way: inside a frame's payload, past the header.
    for cut in [bytes.len() / 3, bytes.len() / 2, bytes.len() - 1] {
        let err = decode_workload(&bytes[..cut]).expect_err("truncated file must not decode");
        assert!(
            matches!(err, TraceError::Truncated(_)),
            "cut at {cut}: expected Truncated, got {err:?}"
        );
    }
}

#[test]
fn truncation_at_a_frame_boundary_is_still_truncated() {
    let bytes = sample_trace();
    // Dropping only the end frame leaves every remaining frame intact;
    // the missing end frame must still be detected (9 bytes of frame
    // header + 8 bytes of count payload).
    let err = decode_workload(&bytes[..bytes.len() - 17]).expect_err("missing end frame");
    assert!(
        matches!(err, TraceError::Truncated(_)),
        "expected Truncated, got {err:?}"
    );
}

#[test]
fn a_flipped_payload_byte_is_a_checksum_mismatch() {
    let bytes = sample_trace();
    // Flip one byte deep inside a frame payload (well past the magic,
    // version, and any frame header).
    for at in [bytes.len() / 3, bytes.len() / 2, bytes.len() * 3 / 4] {
        let mut bad = bytes.clone();
        bad[at] ^= 0x40;
        let err = decode_workload(&bad[..]).expect_err("corrupted file must not decode");
        assert!(
            matches!(
                err,
                TraceError::ChecksumMismatch { .. } | TraceError::Corrupt(_)
            ),
            "flip at {at}: expected ChecksumMismatch/Corrupt, got {err:?}"
        );
    }
}

#[test]
fn checksum_mismatch_names_the_frame_and_both_crcs() {
    let bytes = sample_trace();
    // The header frame payload starts at magic(8) + version(4) +
    // tag(1) + len(4) + crc(4) = byte 21.
    let mut bad = bytes.clone();
    bad[21] ^= 0xFF;
    match decode_workload(&bad[..]) {
        Err(TraceError::ChecksumMismatch { frame, expect, got }) => {
            assert_eq!(frame, "header");
            assert_ne!(expect, got);
        }
        other => panic!("expected ChecksumMismatch on the header frame, got {other:?}"),
    }
}

#[test]
fn a_future_format_version_is_unsupported() {
    let mut bytes = sample_trace();
    let future = VERSION + 1;
    bytes[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&future.to_le_bytes());
    match decode_workload(&bytes[..]) {
        Err(TraceError::UnsupportedVersion(v)) => assert_eq!(v, future),
        other => panic!("expected UnsupportedVersion({future}), got {other:?}"),
    }
}

#[test]
fn a_wrong_magic_is_bad_magic() {
    let mut bytes = sample_trace();
    bytes[0] = b'X';
    assert!(matches!(
        decode_workload(&bytes[..]),
        Err(TraceError::BadMagic)
    ));
    // An empty stream is also not a trace file.
    assert!(matches!(
        decode_workload(&[][..]),
        Err(TraceError::BadMagic) | Err(TraceError::Truncated(_))
    ));
}

#[test]
fn errors_render_useful_messages() {
    let display = |e: TraceError| e.to_string();
    assert!(display(TraceError::BadMagic).contains("magic"));
    assert!(display(TraceError::UnsupportedVersion(9)).contains('9'));
    assert!(display(TraceError::Truncated("end frame")).contains("end frame"));
    assert!(display(TraceError::ChecksumMismatch {
        frame: "insts",
        expect: 1,
        got: 2
    })
    .contains("insts"));
}
