//! Property tests for the binary checkpoint format ("ICKP"): arbitrary
//! machine snapshots must survive a serialize→parse round trip
//! bit-identically, truncation at any offset must raise a typed error,
//! and any single-bit corruption of the image must be detected or must
//! visibly change the decoded snapshot — silent acceptance of damaged
//! data is the one outcome the format must never produce. Unlike the
//! trace format (whose meta-JSON header is unchecksummed), every
//! checkpoint byte is either structural (magic, version, section
//! framing) or covered by a per-section FNV-1a checksum, so the
//! detection guarantee here starts at byte zero — except the header's
//! reserved u16 (bytes 6–7), which the parser ignores by design.

use proptest::prelude::*;
use simcore::{CampaignState, Checkpoint, CheckpointError, CpuState, TraceMark};

const PAGE_SIZE: usize = 4096;

/// An arbitrary but self-consistent snapshot, built through the same
/// `capture` path the emulator uses so the embedded state hash matches
/// the architectural fields (which `restore_state` cross-checks).
#[allow(clippy::type_complexity)]
fn checkpoint() -> impl Strategy<Value = Checkpoint> {
    (
        (
            any::<u64>(),                                  // pc
            any::<u64>(),                                  // instret
            any::<u8>(),                                   // nzcv
            proptest::option::of(any::<i64>()),            // exited
            any::<u64>(),                                  // brk
            proptest::collection::vec(any::<u8>(), 0..64), // output
        ),
        proptest::collection::vec(any::<u64>(), 32..33), // x
        proptest::collection::vec(any::<u64>(), 32..33), // f
        // Sparse memory: (page-spacing, fill byte) pairs; cumulative
        // spacing keeps page addresses strictly ascending.
        proptest::collection::vec((1u64..8, any::<u8>()), 0..4),
        proptest::collection::vec((any::<u64>(), 0u32..64), 0..3), // read faults
        proptest::option::of((
            any::<u64>(), // campaign seed
            any::<u64>(), // fired_count
            proptest::collection::vec(
                (proptest::collection::vec(0u8..26, 1..25), any::<bool>()),
                0..4,
            ),
        )),
        (any::<u64>(), any::<u64>(), any::<u64>()), // trace mark
    )
        .prop_map(|(core, x, f, pages, faults, campaign, trace)| {
            let (pc, instret, nzcv, exited, brk, output) = core;
            let mut st = CpuState::new();
            st.pc = pc;
            st.instret = instret;
            st.nzcv = nzcv;
            st.exited = exited;
            st.brk = brk;
            st.output = output;
            st.x.copy_from_slice(&x);
            st.f.copy_from_slice(&f);
            let mut page = 0u64;
            for (spacing, fill) in pages {
                page += spacing;
                let addr = page * PAGE_SIZE as u64;
                st.mem
                    .write_bytes(addr, &[fill; 16])
                    .expect("plain store cannot fault");
            }
            for (nth, bit) in faults {
                st.mem.arm_read_fault(nth, bit);
            }
            let mut ckpt = Checkpoint::capture(
                &st,
                None,
                TraceMark {
                    records: trace.0,
                    blocks: trace.1,
                    bytes: trace.2,
                },
            );
            // Campaign state is attached after capture: the plans here are
            // arbitrary strings exercising the length-prefixed encoding,
            // not parseable fault specs (rearm is covered elsewhere).
            ckpt.campaign = campaign.map(|(seed, fired_count, plans)| CampaignState {
                seed,
                fired_count,
                plans: plans
                    .into_iter()
                    .map(|(letters, fired)| {
                        let spec: String = letters.iter().map(|&l| (b'a' + l) as char).collect();
                        (spec, fired)
                    })
                    .collect(),
            });
            ckpt
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn serialize_parse_round_trip_is_identical(c in checkpoint()) {
        let bytes = c.to_bytes();
        let back = Checkpoint::from_bytes(&bytes).expect("clean image must parse");
        prop_assert_eq!(&back, &c);
        // Re-serialization is byte-identical: the format has exactly one
        // encoding per snapshot, which is what makes resumed runs
        // comparable byte-for-byte.
        prop_assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn truncation_anywhere_is_a_typed_error(c in checkpoint(), cut_seed in any::<u64>()) {
        let bytes = c.to_bytes();
        let cut = (cut_seed as usize) % bytes.len();
        match Checkpoint::from_bytes(&bytes[..cut]) {
            Err(
                CheckpointError::Truncated
                | CheckpointError::BadMagic
                | CheckpointError::MissingSection(_)
                | CheckpointError::SectionChecksum(_)
                | CheckpointError::BadData(_),
            ) => {}
            Err(other) => prop_assert!(false, "unexpected error for cut at {}: {:?}", cut, other),
            Ok(_) => prop_assert!(false, "truncation at byte {} of {} was silently accepted", cut, bytes.len()),
        }
    }

    #[test]
    fn single_bit_corruption_never_goes_unnoticed(
        c in checkpoint(),
        flip_bit in 0u8..8,
        pos_seed in any::<u64>(),
    ) {
        let clean = c.to_bytes();
        let mut pos = (pos_seed as usize) % clean.len();
        // Bytes 6–7 are the header's reserved u16: the parser ignores them
        // for forward compatibility, so they carry no detection guarantee.
        if pos == 6 || pos == 7 {
            pos = 8;
        }
        let mut bad = clean.clone();
        bad[pos] ^= 1 << flip_bit;
        match Checkpoint::from_bytes(&bad) {
            Err(_) => {} // typed detection: magic, version, framing, or checksum
            Ok(decoded) => prop_assert!(
                decoded != c,
                "flipping bit {} of byte {} was silently absorbed", flip_bit, pos
            ),
        }
    }

    #[test]
    fn register_tampering_fails_restore_with_hash_mismatch(
        c in checkpoint(),
        reg in 0usize..32,
        delta in 1u64..u64::MAX,
    ) {
        let mut tampered = Checkpoint::from_bytes(&c.to_bytes()).expect("clean image must parse");
        tampered.x[reg] = tampered.x[reg].wrapping_add(delta);
        match tampered.restore_state() {
            Err(CheckpointError::StateHashMismatch { expected, actual }) => {
                prop_assert_eq!(expected, c.state_hash);
                prop_assert!(actual != expected);
            }
            other => prop_assert!(
                false,
                "tampered register state must fail the hash cross-check, got {:?}",
                other.map(|_| "Ok(CpuState)")
            ),
        }
    }
}

#[test]
fn corruption_of_every_image_byte_is_caught_or_visible() {
    // Exhaustive sweep over a small snapshot: every byte, lowest bit
    // flipped. Every byte of a checkpoint is structural or checksummed,
    // so no flip may be silently absorbed into an equal decode.
    let mut st = CpuState::new();
    st.pc = 0x1440;
    st.instret = 98_304;
    st.x[5] = 0xDEAD_BEEF;
    st.f[3] = 2.5f64.to_bits();
    st.output = b"sweep".to_vec();
    st.mem.write_u64(0x1000, 0x1122_3344_5566_7788).unwrap();
    st.mem.arm_read_fault(10, 3);
    let clean = Checkpoint::capture(
        &st,
        None,
        TraceMark {
            records: 4096,
            blocks: 1,
            bytes: 70_000,
        },
    )
    .to_bytes();
    let reference = Checkpoint::from_bytes(&clean).unwrap();
    for pos in 0..clean.len() {
        if pos == 6 || pos == 7 {
            continue; // reserved header u16, deliberately ignored by the parser
        }
        let mut bad = clean.clone();
        bad[pos] ^= 1;
        if let Ok(decoded) = Checkpoint::from_bytes(&bad) {
            assert_ne!(
                decoded, reference,
                "flip at byte {pos} was silently absorbed"
            );
        }
    }
}

/// Checkpointing a block-running core mid-run: the decoded-block cache is
/// host-side state and is deliberately NOT serialized, so a restore into
/// a fresh executor starts cache-cold. The resumed run must rebuild the
/// cache by re-decoding and still finish byte-identical (full checkpoint
/// image, not just the state hash) to an uninterrupted run.
#[test]
fn block_engine_restore_rebuilds_cache_cold_and_finishes_byte_identical() {
    use isacmp::{
        compile, EmulationCore, IsaKind, Personality, RiscVExecutor, SizeClass, StopReason,
        Workload,
    };

    let compiled = compile(
        &Workload::Stream.build(SizeClass::Small),
        IsaKind::RiscV,
        &Personality::gcc122(),
    );
    let mark = TraceMark {
        records: 0,
        blocks: 0,
        bytes: 0,
    };

    // Reference: one uninterrupted run.
    let mut ref_st = CpuState::new();
    compiled.program.load(&mut ref_st).expect("program loads");
    EmulationCore::new(RiscVExecutor::new())
        .run(&mut ref_st, &mut [])
        .expect("reference run completes");
    let ref_image = Checkpoint::capture(&ref_st, None, mark).to_bytes();

    // Interrupted leg: pause at the first checkpoint boundary, snapshot,
    // and throw the warm executor (and its block cache) away.
    let mut st = CpuState::new();
    compiled.program.load(&mut st).expect("program loads");
    let stats = EmulationCore::new(RiscVExecutor::new())
        .with_checkpoint_every(400_000)
        .run(&mut st, &mut [])
        .expect("run reaches the checkpoint boundary");
    assert_eq!(
        stats.stop,
        StopReason::CheckpointDue,
        "snapshot must interrupt mid-run"
    );
    assert!(st.exited.is_none(), "the guest must not have finished yet");
    let snapshot = Checkpoint::capture(&st, None, mark).to_bytes();

    // Restore into a brand-new state and executor: the block cache is
    // rebuilt from the restored memory image alone.
    let mut resumed = Checkpoint::from_bytes(&snapshot)
        .expect("snapshot parses")
        .restore_state()
        .expect("snapshot restores");
    EmulationCore::new(RiscVExecutor::new())
        .run(&mut resumed, &mut [])
        .expect("resumed run completes");

    assert_eq!(
        Checkpoint::capture(&resumed, None, mark).to_bytes(),
        ref_image,
        "cold-cache resume must finish byte-identical to the uninterrupted run"
    );
}
