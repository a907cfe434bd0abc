//! Property tests over the analysis passes, driven by randomly generated
//! retirement streams (no emulation involved — these check the analyses'
//! mathematical invariants in isolation). The brute-force DAG oracle
//! (`common::oracle`) is the reference critical path.

use proptest::prelude::*;
use simcore::{InstGroup, Observer, RegId, RegSet, RetiredInst};

use analysis::{DualCriticalPath, PathLength, WindowedCp};
use uarch::{InOrderCore, OoOCore, PipelineConfig, Tx2Latency, UnitLatency};

mod common;
use common::oracle::Dag;

/// Strategy: a plausible random retirement record.
fn retired_inst() -> impl Strategy<Value = RetiredInst> {
    let group = prop_oneof![
        Just(InstGroup::IntAlu),
        Just(InstGroup::IntMul),
        Just(InstGroup::Load),
        Just(InstGroup::Store),
        Just(InstGroup::FpAdd),
        Just(InstGroup::FpFma),
        Just(InstGroup::Branch),
    ];
    (
        group,
        proptest::collection::vec(0u8..32, 0..3),
        proptest::collection::vec(0u8..32, 0..2),
        proptest::option::of(0u64..64),
        proptest::option::of(0u64..64),
    )
        .prop_map(|(group, srcs, dsts, read, write)| {
            let mut ri = RetiredInst::new(0, group);
            ri.srcs = srcs.iter().map(|&r| RegId::Int(r)).collect();
            ri.dsts = dsts.iter().map(|&r| RegId::Int(r)).collect();
            if group == InstGroup::Load {
                if let Some(a) = read {
                    ri.push_read(0x1000 + a * 8, 8);
                }
            }
            if group == InstGroup::Store {
                if let Some(a) = write {
                    ri.push_write(0x1000 + a * 8, 8);
                }
            }
            ri.is_branch = group == InstGroup::Branch;
            ri
        })
}

fn stream() -> impl Strategy<Value = Vec<RetiredInst>> {
    proptest::collection::vec(retired_inst(), 1..400)
}

proptest! {
    #[test]
    fn cp_bounded_by_path_length(insts in stream()) {
        let mut cp = DualCriticalPath::new(Tx2Latency);
        for ri in &insts {
            cp.on_retire(ri);
        }
        let r = cp.unit();
        prop_assert_eq!(r.path_length, insts.len() as u64);
        prop_assert_eq!(r.critical_path, Dag::new(&insts).unit_cp());
        prop_assert!(r.critical_path >= 1);
        prop_assert!(r.critical_path <= r.path_length);
    }

    #[test]
    fn scaled_cp_at_least_unit_cp(insts in stream()) {
        let mut cp = DualCriticalPath::new(Tx2Latency);
        for ri in &insts {
            cp.on_retire(ri);
        }
        prop_assert_eq!(cp.scaled().critical_path, Dag::new(&insts).scaled_cp());
        prop_assert!(cp.scaled().critical_path >= cp.unit().critical_path);
    }

    #[test]
    fn cp_monotone_under_extension(insts in stream()) {
        // Adding instructions can never shorten the critical path.
        let mut cp = DualCriticalPath::new(Tx2Latency);
        let mut prev = 0;
        for ri in &insts {
            cp.on_retire(ri);
            let now = cp.unit().critical_path;
            prop_assert!(now >= prev);
            prev = now;
        }
    }

    #[test]
    fn windowed_cp_bounded_by_window(insts in stream()) {
        let mut w = WindowedCp::new(&[4, 16, 64]);
        for ri in &insts {
            w.on_retire(ri);
        }
        for s in w.stats() {
            if s.windows > 0 {
                prop_assert!(s.cp_max as usize <= s.size);
                prop_assert!(s.cp_min >= 1);
                prop_assert!(s.mean_ilp() >= 1.0 - 1e-9);
                prop_assert!(s.mean_ilp() <= s.size as f64 + 1e-9);
            }
        }
    }

    #[test]
    fn path_length_ignores_order(insts in stream()) {
        // Total path length is permutation-invariant.
        let mut a = PathLength::new(&[]);
        let mut b = PathLength::new(&[]);
        for ri in &insts {
            a.on_retire(ri);
        }
        for ri in insts.iter().rev() {
            b.on_retire(ri);
        }
        prop_assert_eq!(a.total(), b.total());
    }

    #[test]
    fn pipelines_bounded_by_cp_and_width(insts in stream()) {
        // Any real pipeline takes at least CP cycles (with unit latency)
        // and at least len/width cycles; the in-order core is never faster
        // than the same-width OoO core with ample units.
        let cfg = PipelineConfig { width: 2, rob: 64, fp_units: 4, int_units: 4, mem_units: 4 };
        let mut ino = InOrderCore::new(UnitLatency, cfg.clone());
        let mut ooo = OoOCore::new(UnitLatency, cfg);
        for ri in &insts {
            ino.on_retire(ri);
            ooo.on_retire(ri);
        }
        let lower = Dag::new(&insts).unit_cp();
        prop_assert!(ooo.stats().cycles >= lower, "OoO below dependence bound");
        prop_assert!(ino.stats().cycles >= lower, "in-order below dependence bound");
        prop_assert!(
            ino.stats().cycles + 1 >= ooo.stats().cycles,
            "in-order ({}) beat OoO ({})",
            ino.stats().cycles,
            ooo.stats().cycles
        );
    }
}

#[test]
fn regset_iteration_order_is_slot_order() {
    let s = RegSet::of(&[RegId::Fp(2), RegId::Int(7), RegId::Flags]);
    let v: Vec<RegId> = s.iter().collect();
    assert_eq!(v, vec![RegId::Int(7), RegId::Fp(2), RegId::Flags]);
}
