//! Lattice Boltzmann d2q9-bgk, after the University of Bristol HPC course
//! code the paper uses.
//!
//! Structure-of-arrays layout: one array per speed (0 = rest, 1..4 = E N W S,
//! 5..8 = NE NW SW SE), on a halo-padded `(nx+2) x (ny+2)` grid. Each
//! timestep runs the classic kernel sequence:
//!
//! * `accelerate` — add the driving-flow weights along the second row from
//!   the top, guarded so populations stay positive;
//! * `propagate` — pull streaming: `tmp_s(x,y) = cells_s(x-ex, y-ey)`
//!   (split into three 3-speed kernels to bound register pressure, all
//!   reported under the `propagate` region);
//! * `collision` — BGK relaxation toward the local equilibrium, with
//!   bounce-back rebound on obstacle cells (moments kernel + one relax
//!   kernel per speed, all reported under the `collision` region).
//!
//! Substitution note (DESIGN.md §2): the reference code uses periodic wrap,
//! which is not affine; we use a halo ring of obstacle cells (bounce-back
//! walls) instead. The per-cell arithmetic — the object of the paper's
//! instruction-level comparison — is identical.

use crate::SizeClass;
use kernelgen::*;

/// LBM parameters.
#[derive(Debug, Clone, Copy)]
pub struct LbmParams {
    /// Interior cells in x.
    pub nx: u64,
    /// Interior cells in y.
    pub ny: u64,
    /// Timesteps.
    pub iters: u64,
}

impl LbmParams {
    /// Parameters per size class (Paper = 128x128, 100 iterations).
    pub fn for_size(size: SizeClass) -> Self {
        match size {
            SizeClass::Test => LbmParams {
                nx: 8,
                ny: 8,
                iters: 2,
            },
            SizeClass::Small => LbmParams {
                nx: 24,
                ny: 24,
                iters: 8,
            },
            SizeClass::Paper => LbmParams {
                nx: 128,
                ny: 128,
                iters: 100,
            },
        }
    }
}

/// d2q9 lattice vectors, indexed by speed.
const EX: [i64; 9] = [0, 1, 0, -1, 0, 1, -1, -1, 1];
/// d2q9 lattice vectors, indexed by speed.
const EY: [i64; 9] = [0, 0, 1, 0, -1, 1, 1, -1, -1];
/// Opposite speed (for bounce-back).
const OPP: [usize; 9] = [0, 3, 4, 1, 2, 7, 8, 5, 6];
/// Lattice weights.
const W: [f64; 9] = [
    4.0 / 9.0,
    1.0 / 9.0,
    1.0 / 9.0,
    1.0 / 9.0,
    1.0 / 9.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
];

/// Build LBM at the given size class.
pub fn build(size: SizeClass) -> KernelProgram {
    build_with(LbmParams::for_size(size))
}

/// Build LBM with explicit parameters.
pub fn build_with(params: LbmParams) -> KernelProgram {
    let LbmParams { nx, ny, iters } = params;
    let w = nx + 2; // padded width
    let h = ny + 2; // padded height
    let len = w * h;
    let density0 = 0.1;
    let accel = 0.005;
    let omega = 1.4;

    let mut p = KernelProgram::new("LBM");

    // Initial state: equilibrium at rest everywhere (including halo).
    let mut cells = Vec::with_capacity(9);
    for (s, ws) in W.iter().enumerate() {
        cells.push(p.array(&format!("cells{s}"), len, ArrayInit::Fill(ws * density0)));
    }
    let mut tmp = Vec::with_capacity(9);
    for s in 0..9 {
        tmp.push(p.array(&format!("tmp{s}"), len, ArrayInit::Zero));
    }
    // Obstacle mask: 1.0 on the halo ring (bounce-back walls), 0.0 inside.
    let mut obst_vals = vec![0.0f64; len as usize];
    for y in 0..h {
        for x in 0..w {
            if x == 0 || y == 0 || x == w - 1 || y == h - 1 {
                obst_vals[(y * w + x) as usize] = 1.0;
            }
        }
    }
    let obst = p.array("obstacles", len, ArrayInit::Values(obst_vals));

    let center = (w + 1) as i64; // offset of interior origin (x=1, y=1)
    let interior = |arr: ArrayId, dx: i64, dy: i64| Access {
        arr,
        strides: vec![w as i64, 1],
        offset: center + dy * w as i64 + dx,
    };
    let row2 = |arr: ArrayId| Access {
        arr,
        strides: vec![1],
        offset: ((ny - 1) * w + 1) as i64, // second row from the top, interior
    };

    // --- accelerate_flow -------------------------------------------------
    // Add w1/w2-weighted momentum along +x on the second row from the top,
    // guarded so the donor populations stay positive.
    let w1a = density0 * accel / 9.0;
    let w2a = density0 * accel / 36.0;
    let guard = |donor: Expr, amount: f64, value: Expr, fallback: Expr| Expr::Select {
        cmp: CmpOp::Lt,
        a: Box::new(Expr::Const(amount)),
        b: Box::new(donor),
        t: Box::new(value),
        e: Box::new(fallback),
    };
    let mut acc_body = Vec::new();
    // notobst = 1 - obstacles (halo ring never accelerates).
    let notobst = TempId(0);
    acc_body.push(Stmt::Def {
        temp: notobst,
        expr: Expr::sub(Expr::Const(1.0), Expr::Load(row2(obst))),
    });
    for (gain, lose, amount) in [(1usize, 3usize, w1a), (5, 7, w2a), (8, 6, w2a)] {
        // gain += amount, lose -= amount when lose > amount (and not wall).
        let delta = Expr::mul(Expr::Temp(notobst), Expr::Const(amount));
        acc_body.push(Stmt::Store {
            access: row2(cells[gain]),
            value: guard(
                Expr::Load(row2(cells[lose])),
                amount,
                Expr::add(Expr::Load(row2(cells[gain])), delta.clone()),
                Expr::Load(row2(cells[gain])),
            ),
        });
        acc_body.push(Stmt::Store {
            access: row2(cells[lose]),
            value: guard(
                Expr::Load(row2(cells[lose])),
                amount,
                Expr::sub(Expr::Load(row2(cells[lose])), delta),
                Expr::Load(row2(cells[lose])),
            ),
        });
    }
    p.kernel(Kernel {
        name: "accelerate".into(),
        dims: vec![nx],
        accs: vec![],
        body: acc_body,
    });

    // --- propagate (pull streaming), split into 3-speed groups ------------
    for group in [[0usize, 1, 2], [3, 4, 5], [6, 7, 8]] {
        let body = group
            .iter()
            .map(|&s| Stmt::Store {
                access: interior(tmp[s], 0, 0),
                value: Expr::Load(interior(cells[s], -EX[s], -EY[s])),
            })
            .collect();
        p.kernel(Kernel {
            name: "propagate".into(),
            dims: vec![ny, nx],
            accs: vec![],
            body,
        });
    }

    // --- collision: moments then per-speed BGK relax + rebound ------------
    let density = p.array("density", len, ArrayInit::Zero);
    let ux = p.array("u_x", len, ArrayInit::Zero);
    let uy = p.array("u_y", len, ArrayInit::Zero);
    {
        let t_d = TempId(0);
        let sum = |speeds: &[usize]| -> Expr {
            speeds
                .iter()
                .map(|&s| Expr::Load(interior(tmp[s], 0, 0)))
                .reduce(Expr::add)
                .unwrap()
        };
        let body = vec![
            Stmt::Def {
                temp: t_d,
                expr: sum(&[0, 1, 2, 3, 4, 5, 6, 7, 8]),
            },
            Stmt::Store {
                access: interior(density, 0, 0),
                value: Expr::Temp(t_d),
            },
            Stmt::Store {
                access: interior(ux, 0, 0),
                value: Expr::div(Expr::sub(sum(&[1, 5, 8]), sum(&[3, 6, 7])), Expr::Temp(t_d)),
            },
            Stmt::Store {
                access: interior(uy, 0, 0),
                value: Expr::div(Expr::sub(sum(&[2, 5, 6]), sum(&[4, 7, 8])), Expr::Temp(t_d)),
            },
        ];
        p.kernel(Kernel {
            name: "collision".into(),
            dims: vec![ny, nx],
            accs: vec![],
            body,
        });
    }
    for s in 0..9usize {
        // u . e_s
        let ue = match (EX[s], EY[s]) {
            (0, 0) => Expr::Const(0.0),
            (ex, 0) => Expr::mul(Expr::Const(ex as f64), Expr::Load(interior(ux, 0, 0))),
            (0, ey) => Expr::mul(Expr::Const(ey as f64), Expr::Load(interior(uy, 0, 0))),
            (ex, ey) => Expr::add(
                Expr::mul(Expr::Const(ex as f64), Expr::Load(interior(ux, 0, 0))),
                Expr::mul(Expr::Const(ey as f64), Expr::Load(interior(uy, 0, 0))),
            ),
        };
        let usq = Expr::add(
            Expr::mul(
                Expr::Load(interior(ux, 0, 0)),
                Expr::Load(interior(ux, 0, 0)),
            ),
            Expr::mul(
                Expr::Load(interior(uy, 0, 0)),
                Expr::Load(interior(uy, 0, 0)),
            ),
        );
        let t_ue = TempId(0);
        // equilibrium: w_s * rho * (1 + 3 ue + 4.5 ue^2 - 1.5 usq)
        let d_equ = Expr::mul(
            Expr::mul(Expr::Const(W[s]), Expr::Load(interior(density, 0, 0))),
            Expr::add(
                Expr::mul_add(
                    Expr::Const(4.5),
                    Expr::mul(Expr::Temp(t_ue), Expr::Temp(t_ue)),
                    Expr::mul_add(Expr::Const(3.0), Expr::Temp(t_ue), Expr::Const(1.0)),
                ),
                Expr::mul(Expr::Const(-1.5), usq),
            ),
        );
        let relaxed = Expr::mul_add(
            Expr::Const(omega),
            Expr::sub(d_equ, Expr::Load(interior(tmp[s], 0, 0))),
            Expr::Load(interior(tmp[s], 0, 0)),
        );
        // rebound on obstacles: take the opposite incoming population.
        let body = vec![
            Stmt::Def {
                temp: t_ue,
                expr: ue,
            },
            Stmt::Store {
                access: interior(cells[s], 0, 0),
                value: Expr::Select {
                    cmp: CmpOp::Lt,
                    a: Box::new(Expr::Load(interior(obst, 0, 0))),
                    b: Box::new(Expr::Const(0.5)),
                    t: Box::new(relaxed),
                    e: Box::new(Expr::Load(interior(tmp[OPP[s]], 0, 0))),
                },
            },
        ];
        p.kernel(Kernel {
            name: "collision".into(),
            dims: vec![ny, nx],
            accs: vec![],
            body,
        });
    }

    // --- av_velocity: the benchmark's per-step observable -----------------
    // tot_u += sqrt(u_x^2 + u_y^2) over fluid cells; the running value is
    // stored each step (the role av_vels[tt] plays in the reference code).
    let av = p.array("av_vels", 1, ArrayInit::Zero);
    {
        let speed = Expr::sqrt(Expr::add(
            Expr::mul(
                Expr::Load(interior(ux, 0, 0)),
                Expr::Load(interior(ux, 0, 0)),
            ),
            Expr::mul(
                Expr::Load(interior(uy, 0, 0)),
                Expr::Load(interior(uy, 0, 0)),
            ),
        ));
        let fluid_speed = Expr::mul(
            speed,
            Expr::sub(Expr::Const(1.0), Expr::Load(interior(obst, 0, 0))),
        );
        p.kernel(Kernel {
            name: "av_velocity".into(),
            dims: vec![ny, nx],
            accs: vec![AccDecl {
                init: 0.0,
                store_to: Some((av, 0)),
            }],
            body: vec![Stmt::Accum {
                acc: AccId(0),
                op: BinOp::Add,
                value: fluid_speed,
            }],
        });
    }

    p.repeat = iters;
    p.checksum_arrays = cells;
    p.checksum_arrays.push(av);
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conserves_roughly_and_stays_finite() {
        let p = build_with(LbmParams {
            nx: 8,
            ny: 8,
            iters: 4,
        });
        let r = kernelgen::interpret(&p, &Personality::gcc122());
        assert!(r.checksum.is_finite());
        // Interior mass should stay near the initial interior+halo total.
        assert!(r.checksum > 0.0);
        for s in 0..9 {
            for v in &r.arrays[&format!("cells{s}")] {
                assert!(v.is_finite(), "speed {s} went non-finite");
            }
        }
    }

    #[test]
    fn acceleration_creates_flow() {
        let p = build_with(LbmParams {
            nx: 8,
            ny: 8,
            iters: 4,
        });
        let r = kernelgen::interpret(&p, &Personality::gcc122());
        // Eastward populations should now exceed westward ones overall.
        let east: f64 = r.arrays["cells1"].iter().sum();
        let west: f64 = r.arrays["cells3"].iter().sum();
        assert!(east > west, "flow should drift east: {east} vs {west}");
    }

    #[test]
    fn region_names() {
        let p = build(SizeClass::Test);
        let mut names: Vec<&str> = p.kernels.iter().map(|k| k.name.as_str()).collect();
        names.dedup();
        assert_eq!(
            names,
            vec!["accelerate", "propagate", "collision", "av_velocity"]
        );
    }
}
