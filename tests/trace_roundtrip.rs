//! Property tests for the binary trace format: arbitrary retirement
//! streams must survive a write→read round trip bit-identically, captures
//! of the same stream must be byte-identical, and any single-byte
//! corruption of the body must either raise a typed error or change the
//! decoded stream — silent acceptance of damaged data is the one outcome
//! the format must never produce.

use std::io::Cursor;
use std::time::Duration;

use proptest::prelude::*;
use simcore::{InstGroup, Observer, RegId, RegSet, RetiredInst};
use trace::{TraceError, TraceMeta, TraceReader, TraceWriter};

fn meta() -> TraceMeta {
    TraceMeta {
        workload: "property".into(),
        compiler: "none".into(),
        isa: "RISC-V".into(),
        size: "test".into(),
        regions: vec![],
    }
}

/// One arbitrary retirement: any PC (deltas between consecutive records can
/// span the whole address space), any group, any register sets, and up to
/// two memory accesses (the record's capacity) in any read/write mix.
fn inst() -> impl Strategy<Value = RetiredInst> {
    (
        any::<u64>(),
        0usize..InstGroup::ALL.len(),
        any::<bool>(),
        any::<bool>(),
        proptest::collection::vec(0usize..65, 0..4),
        proptest::collection::vec(0usize..65, 0..4),
        proptest::collection::vec((any::<u64>(), 1u8..17, any::<bool>()), 0..3),
    )
        .prop_map(|(pc, group, is_branch, taken, srcs, dsts, accesses)| {
            let mut ri = RetiredInst::new(pc, InstGroup::ALL[group]);
            ri.is_branch = is_branch;
            ri.taken = is_branch && taken;
            ri.srcs = srcs.iter().map(|&i| RegId::from_index(i)).collect();
            ri.dsts = dsts.iter().map(|&i| RegId::from_index(i)).collect();
            for (addr, size, is_write) in accesses {
                if is_write {
                    ri.push_write(addr, size);
                } else {
                    ri.push_read(addr, size);
                }
            }
            ri
        })
}

/// Static shape `k` of [`many_shapes`]: the group and one source register
/// follow from `k`, so shapes below `InstGroup::ALL.len() * 65` are
/// pairwise distinct. Loads read and stores write `addr`.
fn shaped(k: usize, pc: u64, addr: u64) -> RetiredInst {
    let groups = InstGroup::ALL.len();
    let mut ri = RetiredInst::new(pc, InstGroup::ALL[k % groups]);
    ri.srcs = RegSet::of(&[RegId::from_index(k / groups % 65)]);
    match ri.group {
        InstGroup::Load => ri.push_read(addr, 8),
        InstGroup::Store => ri.push_write(addr, 4),
        _ => {}
    }
    ri
}

/// One block holding `shapes` distinct static shapes. Each shape retires
/// once in order, two to a PC, so every PC retires with two shapes; then
/// random shapes retire again while the PC steps on, stays put, jumps
/// forward or jumps backward.
fn many_shapes(shapes: std::ops::Range<usize>) -> impl Strategy<Value = Vec<RetiredInst>> {
    (
        shapes,
        proptest::collection::vec((any::<u16>(), 0u8..4, 1u64..64, any::<u64>()), 0..400),
    )
        .prop_map(|(n, tail)| {
            let base = 0x40_0000;
            let mut s: Vec<RetiredInst> = (0..n)
                .map(|k| shaped(k, base + 4 * (k as u64 / 2), 0x1000 + 8 * k as u64))
                .collect();
            let mut pc = base + 4 * (n as u64 / 2);
            for (k, step, jump, addr) in tail {
                pc = match step {
                    0 => pc.wrapping_add(4),
                    1 => pc,
                    2 => pc.wrapping_add(4 * jump),
                    _ => pc.wrapping_sub(4 * jump),
                };
                s.push(shaped(k as usize % n, pc, addr));
            }
            s
        })
}

/// Arbitrary records, or one block of more static shapes than a ctrl byte
/// names (past 63) or than a one-byte escape names (past 63 + 127).
fn stream() -> impl Strategy<Value = Vec<RetiredInst>> {
    prop_oneof![
        proptest::collection::vec(inst(), 1..400),
        many_shapes(64..191),
        many_shapes(191..400),
    ]
}

fn capture(stream: &[RetiredInst], state_hash: u64) -> Vec<u8> {
    let mut buf = Vec::new();
    let mut w = TraceWriter::new(&mut buf, &meta()).expect("Vec writes cannot fail");
    for ri in stream {
        w.on_retire(ri);
    }
    w.finish(state_hash, Duration::ZERO)
        .expect("Vec writes cannot fail");
    buf
}

fn header_len(bytes: &[u8]) -> usize {
    let meta_len = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
    12 + meta_len
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn write_read_round_trip_is_bit_identical(s in stream()) {
        let bytes = capture(&s, 0x5EED);
        let reader = TraceReader::new(Cursor::new(&bytes)).unwrap();
        let got: Vec<RetiredInst> =
            reader.map(|r| r.expect("clean capture must decode")).collect();
        prop_assert_eq!(got, s);
    }

    #[test]
    fn identical_streams_capture_byte_identically(s in stream()) {
        prop_assert_eq!(capture(&s, 7), capture(&s, 7));
    }

    #[test]
    fn single_byte_corruption_never_goes_unnoticed(
        s in stream(),
        flip_bit in 0u8..8,
        pos_seed in any::<u64>(),
    ) {
        let clean = capture(&s, 0xC0FFEE);
        // Damage one byte of the *body*: the meta-JSON header carries no
        // checksum (a flipped provenance byte just names a different cell),
        // so the detection guarantee starts at the first block.
        let body_start = header_len(&clean);
        let pos = body_start + (pos_seed as usize) % (clean.len() - body_start);
        let mut bad = clean.clone();
        bad[pos] ^= 1 << flip_bit;

        let outcome: Result<Vec<RetiredInst>, TraceError> =
            TraceReader::new(Cursor::new(&bad)).and_then(|r| r.collect());
        match outcome {
            Err(_) => {} // typed detection: checksum, structure, or trailer
            Ok(decoded) => prop_assert!(
                decoded != s,
                "flipping bit {} of byte {} was silently absorbed", flip_bit, pos
            ),
        }
    }
}

#[test]
fn corruption_of_every_single_block_byte_is_caught_or_visible() {
    // Exhaustive sweep over a small capture: every byte of the body,
    // lowest bit flipped.
    let s: Vec<RetiredInst> = (0..40)
        .map(|i| {
            let mut ri = RetiredInst::new(0x1000 + i * 4, InstGroup::ALL[(i % 18) as usize]);
            ri.srcs = RegSet::of(&[RegId::Int((i % 31) as u8 + 1)]);
            ri
        })
        .collect();
    let clean = capture(&s, 1);
    let body_start = header_len(&clean);
    for pos in body_start..clean.len() {
        let mut bad = clean.clone();
        bad[pos] ^= 1;
        let outcome: Result<Vec<RetiredInst>, TraceError> =
            TraceReader::new(Cursor::new(&bad)).and_then(|r| r.collect());
        if let Ok(decoded) = outcome {
            assert_ne!(decoded, s, "flip at byte {pos} was silently absorbed");
        }
    }
}
