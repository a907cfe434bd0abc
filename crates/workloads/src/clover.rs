//! CloverLeaf (serial): compressible Euler equations on a 2-D staggered
//! Cartesian grid, reduced to its four hottest kernels.
//!
//! CloverLeaf is a chain of grid sweeps; following the mini-app's hydro
//! cycle we reproduce the kernels that dominate its profile:
//!
//! * `ideal_gas` — equation of state: `p = (g-1) rho e`, `ss = sqrt(g p / rho)`;
//! * `flux_calc` — face volume fluxes from node velocities;
//! * `viscosity` — artificial viscosity from compressive velocity
//!   gradients (a `max(0, ...)`-gated quadratic term);
//! * `pdv` — energy/density update from the velocity divergence;
//! * `advec_cell` — first-order donor-cell (upwind) advection, whose
//!   flux-sign conditionals lower to `fcsel` on AArch64 and a compare +
//!   branch diamond on RISC-V;
//! * `calc_dt` — the CFL timestep reduction (`min` accumulator over
//!   `dx / (soundspeed + |u|)`).
//!
//! Fields live on an `(nx+2) x (ny+2)` halo-padded grid with reflective
//! (frozen-halo) boundaries. The paper runs the default deck; we scale the
//! grid so the default path length lands in the same range as Table 1
//! (~13M instructions at `Paper` size).

use crate::SizeClass;
use kernelgen::*;

/// CloverLeaf parameters.
#[derive(Debug, Clone, Copy)]
pub struct CloverParams {
    /// Interior cells in x.
    pub nx: u64,
    /// Interior cells in y.
    pub ny: u64,
    /// Hydro steps.
    pub steps: u64,
}

impl CloverParams {
    /// Parameters per size class.
    pub fn for_size(size: SizeClass) -> Self {
        match size {
            SizeClass::Test => CloverParams {
                nx: 8,
                ny: 8,
                steps: 2,
            },
            SizeClass::Small => CloverParams {
                nx: 32,
                ny: 32,
                steps: 4,
            },
            SizeClass::Paper => CloverParams {
                nx: 96,
                ny: 96,
                steps: 10,
            },
        }
    }
}

/// Build CloverLeaf at the given size class.
pub fn build(size: SizeClass) -> KernelProgram {
    build_with(CloverParams::for_size(size))
}

/// Build CloverLeaf with explicit parameters.
pub fn build_with(params: CloverParams) -> KernelProgram {
    let CloverParams { nx, ny, steps } = params;
    let w = nx + 2;
    let h = ny + 2;
    let len = w * h;
    let gamma = 1.4;
    let dt = 0.04;

    let mut p = KernelProgram::new("CloverLeaf");

    // State fields (initial shock-tube-like left/right split).
    let mut density_vals = vec![1.0f64; len as usize];
    let mut energy_vals = vec![2.5f64; len as usize];
    for y in 0..h {
        for x in 0..w {
            if x >= w / 2 {
                density_vals[(y * w + x) as usize] = 0.125;
                energy_vals[(y * w + x) as usize] = 2.0;
            }
        }
    }
    let density = p.array("density", len, ArrayInit::Values(density_vals));
    let energy = p.array("energy", len, ArrayInit::Values(energy_vals));
    let pressure = p.array("pressure", len, ArrayInit::Zero);
    let soundspeed = p.array("soundspeed", len, ArrayInit::Zero);
    // Node velocities, seeded with a smooth field.
    let vel_init: Vec<f64> = (0..len)
        .map(|i| {
            let x = (i % w) as f64 / w as f64;
            let y = (i / w) as f64 / h as f64;
            0.1 * (x - 0.5) * (y - 0.3)
        })
        .collect();
    let xvel = p.array("xvel", len, ArrayInit::Values(vel_init.clone()));
    let yvel = p.array("yvel", len, ArrayInit::Values(vel_init));
    let vol_flux_x = p.array("vol_flux_x", len, ArrayInit::Zero);
    let vol_flux_y = p.array("vol_flux_y", len, ArrayInit::Zero);

    let center = (w + 1) as i64;
    let at = |arr: ArrayId, dx: i64, dy: i64| Access {
        arr,
        strides: vec![w as i64, 1],
        offset: center + dy * w as i64 + dx,
    };

    // --- ideal_gas ---------------------------------------------------------
    let t_p = TempId(0);
    p.kernel(Kernel {
        name: "ideal_gas".into(),
        dims: vec![ny, nx],
        accs: vec![],
        body: vec![
            Stmt::Def {
                temp: t_p,
                expr: Expr::mul(
                    Expr::Const(gamma - 1.0),
                    Expr::mul(Expr::Load(at(density, 0, 0)), Expr::Load(at(energy, 0, 0))),
                ),
            },
            Stmt::Store {
                access: at(pressure, 0, 0),
                value: Expr::Temp(t_p),
            },
            Stmt::Store {
                access: at(soundspeed, 0, 0),
                value: Expr::sqrt(Expr::div(
                    Expr::mul(Expr::Const(gamma), Expr::Temp(t_p)),
                    Expr::Load(at(density, 0, 0)),
                )),
            },
        ],
    });

    // --- flux_calc -----------------------------------------------------------
    p.kernel(Kernel {
        name: "flux_calc".into(),
        dims: vec![ny, nx],
        accs: vec![],
        body: vec![
            Stmt::Store {
                access: at(vol_flux_x, 0, 0),
                value: Expr::mul(
                    Expr::Const(0.5 * dt),
                    Expr::add(Expr::Load(at(xvel, 0, 0)), Expr::Load(at(xvel, 0, 1))),
                ),
            },
            Stmt::Store {
                access: at(vol_flux_y, 0, 0),
                value: Expr::mul(
                    Expr::Const(0.5 * dt),
                    Expr::add(Expr::Load(at(yvel, 0, 0)), Expr::Load(at(yvel, 1, 0))),
                ),
            },
        ],
    });

    // --- viscosity -----------------------------------------------------------
    // q = rho * (2 du)^2 gated on compression (du < 0), the shape of
    // CloverLeaf's artificial-viscosity kernel.
    let viscosity = p.array("viscosity", len, ArrayInit::Zero);
    {
        let t_du = TempId(0);
        p.kernel(Kernel {
            name: "viscosity".into(),
            dims: vec![ny, nx],
            accs: vec![],
            body: vec![
                Stmt::Def {
                    temp: t_du,
                    expr: Expr::sub(Expr::Load(at(xvel, 1, 0)), Expr::Load(at(xvel, 0, 0))),
                },
                Stmt::Store {
                    access: at(viscosity, 0, 0),
                    value: Expr::Select {
                        cmp: CmpOp::Lt,
                        a: Box::new(Expr::Temp(t_du)),
                        b: Box::new(Expr::Const(0.0)),
                        t: Box::new(Expr::mul(
                            Expr::Load(at(density, 0, 0)),
                            Expr::mul(
                                Expr::mul(Expr::Const(4.0), Expr::Temp(t_du)),
                                Expr::Temp(t_du),
                            ),
                        )),
                        e: Box::new(Expr::Const(0.0)),
                    },
                },
            ],
        });
    }

    // --- PdV -------------------------------------------------------------------
    // total_flux = dvx + dvy; energy -= p/rho * total_flux; density *= (1 - tf)
    let t_tf = TempId(0);
    p.kernel(Kernel {
        name: "pdv".into(),
        dims: vec![ny, nx],
        accs: vec![],
        body: vec![
            Stmt::Def {
                temp: t_tf,
                expr: Expr::add(
                    Expr::sub(
                        Expr::Load(at(vol_flux_x, 1, 0)),
                        Expr::Load(at(vol_flux_x, 0, 0)),
                    ),
                    Expr::sub(
                        Expr::Load(at(vol_flux_y, 0, 1)),
                        Expr::Load(at(vol_flux_y, 0, 0)),
                    ),
                ),
            },
            Stmt::Store {
                access: at(energy, 0, 0),
                value: Expr::sub(
                    Expr::Load(at(energy, 0, 0)),
                    Expr::mul(
                        Expr::div(
                            Expr::Load(at(pressure, 0, 0)),
                            Expr::Load(at(density, 0, 0)),
                        ),
                        Expr::Temp(t_tf),
                    ),
                ),
            },
            Stmt::Store {
                access: at(density, 0, 0),
                value: Expr::mul(
                    Expr::Load(at(density, 0, 0)),
                    Expr::sub(Expr::Const(1.0), Expr::Temp(t_tf)),
                ),
            },
        ],
    });

    // --- advec_cell (donor-cell upwind in x) --------------------------------
    // upwind density depends on the sign of the face flux.
    let donor = Expr::Select {
        cmp: CmpOp::Lt,
        a: Box::new(Expr::Const(0.0)),
        b: Box::new(Expr::Load(at(vol_flux_x, 0, 0))),
        t: Box::new(Expr::Load(at(density, -1, 0))),
        e: Box::new(Expr::Load(at(density, 0, 0))),
    };
    let donor_right = Expr::Select {
        cmp: CmpOp::Lt,
        a: Box::new(Expr::Const(0.0)),
        b: Box::new(Expr::Load(at(vol_flux_x, 1, 0))),
        t: Box::new(Expr::Load(at(density, 0, 0))),
        e: Box::new(Expr::Load(at(density, 1, 0))),
    };
    p.kernel(Kernel {
        name: "advec_cell".into(),
        dims: vec![ny, nx],
        accs: vec![],
        body: vec![Stmt::Store {
            access: at(density, 0, 0),
            value: Expr::add(
                Expr::Load(at(density, 0, 0)),
                Expr::sub(
                    Expr::mul(Expr::Load(at(vol_flux_x, 0, 0)), donor),
                    Expr::mul(Expr::Load(at(vol_flux_x, 1, 0)), donor_right),
                ),
            ),
        }],
    });

    // --- calc_dt: CFL timestep via a min-reduction ------------------------
    let dt_out = p.array("dt", 1, ArrayInit::Zero);
    {
        let cell_dx = 1.0 / nx as f64;
        p.kernel(Kernel {
            name: "calc_dt".into(),
            dims: vec![ny, nx],
            accs: vec![AccDecl {
                init: 1e10,
                store_to: Some((dt_out, 0)),
            }],
            body: vec![Stmt::Accum {
                acc: AccId(0),
                op: BinOp::Min,
                value: Expr::div(
                    Expr::Const(cell_dx),
                    Expr::add(
                        Expr::Load(at(soundspeed, 0, 0)),
                        Expr::abs(Expr::Load(at(xvel, 0, 0))),
                    ),
                ),
            }],
        });
    }

    p.repeat = steps;
    p.checksum_arrays = vec![density, energy, pressure, viscosity, dt_out];
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_stay_finite_and_positive() {
        let p = build_with(CloverParams {
            nx: 8,
            ny: 8,
            steps: 3,
        });
        let r = kernelgen::interpret(&p, &Personality::gcc122());
        assert!(r.checksum.is_finite());
        for v in &r.arrays["density"] {
            assert!(v.is_finite() && *v > 0.0, "density must stay positive: {v}");
        }
        for v in &r.arrays["soundspeed"] {
            assert!(v.is_finite() && *v >= 0.0);
        }
    }

    #[test]
    fn shock_interface_moves_mass() {
        let p = build_with(CloverParams {
            nx: 8,
            ny: 8,
            steps: 3,
        });
        let r = kernelgen::interpret(&p, &Personality::gcc122());
        let d = &r.arrays["density"];
        // The initial left/right split (1.0 / 0.125) must evolve.
        let w = 10usize;
        let mid_left = d[5 * w + 4];
        assert_ne!(mid_left, 1.0, "left state should have evolved");
    }

    #[test]
    fn kernel_names() {
        let p = build(SizeClass::Test);
        let names: Vec<&str> = p.kernels.iter().map(|k| k.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "ideal_gas",
                "flux_calc",
                "viscosity",
                "pdv",
                "advec_cell",
                "calc_dt"
            ]
        );
    }
}
