//! miniBUDE: molecular-docking energy evaluation (Bristol University
//! Docking Engine mini-app).
//!
//! The hot kernel evaluates, for every pose of the ligand, the interaction
//! energy of every (protein atom, ligand atom) pair: a distance (square
//! root), a steric/electrostatic term gated on cutoffs (conditional
//! selects) and an accumulation per pose. The paper runs the `bm1` deck
//! with 64 poses for one iteration.
//!
//! Substitution (DESIGN.md §2): the real mini-app rotates the ligand with
//! per-pose trigonometric transforms read from the input deck; we
//! precompute per-pose displacements and per-pair geometry on the host with
//! a seeded RNG — the deck's role — so the guest kernel performs the same
//! mix of FP operations (sub/mul/fma/sqrt/div/select/accumulate).
//!
//! Loop order is (pose, pair) with pairs innermost, matching the real
//! mini-app: each pose's energy accumulates over its own pair chain, and
//! the chains of successive poses are independent — which is exactly why
//! the paper measures ILP in the hundreds for miniBUDE (one pose's chain
//! per `npairs` instructions of work, with `nposes` chains overlappable).

use crate::SizeClass;
use kernelgen::*;

/// Deterministic SplitMix64 generator standing in for the input deck's
/// randomness; checksums are verified interpreter-vs-emulator, so any
/// reproducible stream works.
struct DeckRng {
    state: u64,
}

impl DeckRng {
    fn new(seed: u64) -> Self {
        DeckRng { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform f64 in `[lo, hi)`.
    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + unit * (hi - lo)
    }
}

/// miniBUDE parameters.
#[derive(Debug, Clone, Copy)]
pub struct BudeParams {
    /// Number of ligand poses (the paper uses 64).
    pub nposes: u64,
    /// Number of (protein, ligand) atom pairs evaluated per pose.
    pub npairs: u64,
}

impl BudeParams {
    /// Parameters per size class (Paper ~= bm1: 938 protein x 26 ligand
    /// atoms = 24,388 pairs, 64 poses).
    pub fn for_size(size: SizeClass) -> Self {
        match size {
            SizeClass::Test => BudeParams {
                nposes: 4,
                npairs: 32,
            },
            SizeClass::Small => BudeParams {
                nposes: 16,
                npairs: 512,
            },
            SizeClass::Paper => BudeParams {
                nposes: 64,
                npairs: 24_388,
            },
        }
    }
}

/// Build miniBUDE at the given size class.
pub fn build(size: SizeClass) -> KernelProgram {
    build_with(BudeParams::for_size(size))
}

/// Build miniBUDE with explicit parameters.
pub fn build_with(params: BudeParams) -> KernelProgram {
    let BudeParams { nposes, npairs } = params;
    let mut rng = DeckRng::new(0xB0DE);
    let mut p = KernelProgram::new("miniBUDE");

    // Per-pair geometry (protein atom minus untransformed ligand atom) and
    // force-field parameters, precomputed on the host like the input deck.
    let coord = |rng: &mut DeckRng, n: u64, span: f64| -> Vec<f64> {
        (0..n).map(|_| rng.range(-span, span)).collect()
    };
    let dx = p.array(
        "pair_dx",
        npairs,
        ArrayInit::Values(coord(&mut rng, npairs, 8.0)),
    );
    let dy = p.array(
        "pair_dy",
        npairs,
        ArrayInit::Values(coord(&mut rng, npairs, 8.0)),
    );
    let dz = p.array(
        "pair_dz",
        npairs,
        ArrayInit::Values(coord(&mut rng, npairs, 8.0)),
    );
    let charge: Vec<f64> = (0..npairs).map(|_| rng.range(-1.0, 1.0)).collect();
    let charge = p.array("pair_charge", npairs, ArrayInit::Values(charge));
    let radius: Vec<f64> = (0..npairs).map(|_| rng.range(1.0, 3.0)).collect();
    let radius = p.array("pair_radius", npairs, ArrayInit::Values(radius));

    // Per-pose rigid-body displacement (stand-in for the pose rotation).
    let tx = p.array(
        "pose_tx",
        nposes,
        ArrayInit::Values(coord(&mut rng, nposes, 2.0)),
    );
    let ty = p.array(
        "pose_ty",
        nposes,
        ArrayInit::Values(coord(&mut rng, nposes, 2.0)),
    );
    let tz = p.array(
        "pose_tz",
        nposes,
        ArrayInit::Values(coord(&mut rng, nposes, 2.0)),
    );

    let energies = p.array("energies", nposes, ArrayInit::Zero);

    // Access helpers: pose-indexed (outer dim), pair-indexed (inner dim).
    let by_pair = |arr| Access {
        arr,
        strides: vec![0, 1],
        offset: 0,
    };
    let by_pose = |arr| Access {
        arr,
        strides: vec![1, 0],
        offset: 0,
    };

    let t_dx = TempId(0);
    let t_dy = TempId(1);
    let t_dz = TempId(2);
    let t_dist = TempId(3);
    let t_distbb = TempId(4);

    // distbb = |pair_d + pose_t| - radius
    let dist2 = Expr::mul_add(
        Expr::Temp(t_dz),
        Expr::Temp(t_dz),
        Expr::mul_add(
            Expr::Temp(t_dy),
            Expr::Temp(t_dy),
            Expr::mul(Expr::Temp(t_dx), Expr::Temp(t_dx)),
        ),
    );

    // Electrostatic term: charge * (1 - distbb/cutoff) when inside cutoff.
    let cutoff = 8.0;
    let elec = Expr::Select {
        cmp: CmpOp::Lt,
        a: Box::new(Expr::Temp(t_distbb)),
        b: Box::new(Expr::Const(cutoff)),
        t: Box::new(Expr::mul(
            Expr::Load(by_pair(charge)),
            Expr::mul_add(
                Expr::Temp(t_distbb),
                Expr::Const(-1.0 / cutoff),
                Expr::Const(1.0),
            ),
        )),
        e: Box::new(Expr::Const(0.0)),
    };
    // Steric clash penalty: (2 - distbb)^2 when the surfaces overlap.
    let steric = Expr::Select {
        cmp: CmpOp::Lt,
        a: Box::new(Expr::Temp(t_distbb)),
        b: Box::new(Expr::Const(2.0)),
        t: Box::new(Expr::mul(
            Expr::sub(Expr::Const(2.0), Expr::Temp(t_distbb)),
            Expr::sub(Expr::Const(2.0), Expr::Temp(t_distbb)),
        )),
        e: Box::new(Expr::Const(0.0)),
    };

    let body = vec![
        Stmt::Def {
            temp: t_dx,
            expr: Expr::add(Expr::Load(by_pair(dx)), Expr::Load(by_pose(tx))),
        },
        Stmt::Def {
            temp: t_dy,
            expr: Expr::add(Expr::Load(by_pair(dy)), Expr::Load(by_pose(ty))),
        },
        Stmt::Def {
            temp: t_dz,
            expr: Expr::add(Expr::Load(by_pair(dz)), Expr::Load(by_pose(tz))),
        },
        Stmt::Def {
            temp: t_dist,
            expr: Expr::sqrt(dist2),
        },
        Stmt::Def {
            temp: t_distbb,
            expr: Expr::sub(Expr::Temp(t_dist), Expr::Load(by_pair(radius))),
        },
        Stmt::Store {
            access: by_pose(energies),
            value: Expr::add(Expr::Load(by_pose(energies)), Expr::add(elec, steric)),
        },
    ];

    p.kernel(Kernel {
        name: "fasten_main".into(),
        dims: vec![nposes, npairs],
        accs: vec![],
        body,
    });
    p.checksum_arrays = vec![energies];
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energies_are_finite_and_pose_dependent() {
        let p = build_with(BudeParams {
            nposes: 4,
            npairs: 64,
        });
        let r = kernelgen::interpret(&p, &Personality::gcc122());
        let e = &r.arrays["energies"];
        assert_eq!(e.len(), 4);
        for v in e {
            assert!(v.is_finite());
        }
        // Different poses must score differently.
        assert!(e.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn deterministic_build() {
        let a = kernelgen::interpret(&build(SizeClass::Test), &Personality::gcc122()).checksum;
        let b = kernelgen::interpret(&build(SizeClass::Test), &Personality::gcc122()).checksum;
        assert_eq!(a.to_bits(), b.to_bits(), "seeded RNG must be reproducible");
    }
}
