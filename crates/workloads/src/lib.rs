#![warn(missing_docs)]
//! The paper's five HPC mini-app workloads, expressed in the `kernelgen`
//! loop-kernel IR.
//!
//! | Paper workload | Module | Notes on the reproduction |
//! |---|---|---|
//! | STREAM (McCalpin) | [`stream`] | copy/scale/add/triad kernels, verbatim structure |
//! | CloverLeaf serial | [`clover`] | ideal-gas EOS, flux, PdV and upwind advection kernels on a haloed 2-D grid |
//! | miniBUDE | [`bude`] | poses x atom-pairs docking energy kernel with precomputed pose transforms |
//! | LBM d2q9-bgk | [`lbm`] | accelerate/propagate/collide-rebound on a halo-padded (non-periodic) grid |
//! | Minisweep | [`sweep`] | KBA wavefront sweep over (angle, z, y, x) with upwind dependencies |
//!
//! Each builder returns a [`kernelgen::KernelProgram`] whose kernels carry
//! the region names used in the paper's Figure 1 breakdown. Three size
//! classes are provided: [`SizeClass::Test`] (unit tests, < 1 ms),
//! [`SizeClass::Small`] (default for analyses/benches, seconds) and
//! [`SizeClass::Paper`] (the paper's parameters — hours on the emulation
//! core, provided for completeness).
//!
//! Substitutions from the paper's setup (see DESIGN.md section 2): arrays are
//! initialised by the loader rather than by guest startup code, LBM uses
//! bounce-back walls instead of periodic wrap (the IR is affine), and
//! miniBUDE's per-pose trigonometric transforms are precomputed on the host
//! — the same role the input deck plays in the real mini-app.

pub mod bude;
pub mod clover;
pub mod lbm;
pub mod stream;
pub mod sweep;

use kernelgen::KernelProgram;

/// Problem-size class for a workload build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SizeClass {
    /// Tiny: unit tests and doc examples.
    Test,
    /// Default: large enough for meaningful path-length/CP statistics while
    /// the whole experiment matrix runs in seconds.
    Small,
    /// The paper's parameters (STREAM N=10M etc.). Slow on the emulation
    /// core; provided for full-fidelity runs.
    Paper,
}

impl SizeClass {
    /// Short lower-case label, used in trace filenames and provenance
    /// headers.
    pub fn name(&self) -> &'static str {
        match self {
            SizeClass::Test => "test",
            SizeClass::Small => "small",
            SizeClass::Paper => "paper",
        }
    }
}

/// The five benchmarks of the paper's section 2.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// STREAM memory-bandwidth kernels.
    Stream,
    /// CloverLeaf serial (compressible Euler, 2-D Cartesian grid).
    CloverLeaf,
    /// miniBUDE molecular-docking energy evaluation.
    MiniBude,
    /// Lattice Boltzmann d2q9-bgk.
    Lbm,
    /// Minisweep radiation-transport wavefront sweep.
    Minisweep,
}

impl Workload {
    /// All workloads, in the paper's presentation order.
    pub const ALL: [Workload; 5] = [
        Workload::Stream,
        Workload::CloverLeaf,
        Workload::MiniBude,
        Workload::Lbm,
        Workload::Minisweep,
    ];

    /// Display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::Stream => "STREAM",
            Workload::CloverLeaf => "CloverLeaf",
            Workload::MiniBude => "miniBUDE",
            Workload::Lbm => "LBM",
            Workload::Minisweep => "minisweep",
        }
    }

    /// Build the IR program for this workload at the given size.
    pub fn build(&self, size: SizeClass) -> KernelProgram {
        match self {
            Workload::Stream => stream::build(size),
            Workload::CloverLeaf => clover::build(size),
            Workload::MiniBude => bude::build(size),
            Workload::Lbm => lbm::build(size),
            Workload::Minisweep => sweep::build(size),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_workloads_validate_at_test_size() {
        for w in Workload::ALL {
            let p = w.build(SizeClass::Test);
            p.validate();
            assert!(!p.kernels.is_empty(), "{} has kernels", w.name());
            assert!(
                !p.checksum_arrays.is_empty(),
                "{} has checksum arrays",
                w.name()
            );
        }
    }

    #[test]
    fn small_size_validates() {
        for w in Workload::ALL {
            w.build(SizeClass::Small).validate();
        }
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(Workload::Stream.name(), "STREAM");
        assert_eq!(Workload::MiniBude.name(), "miniBUDE");
    }
}
