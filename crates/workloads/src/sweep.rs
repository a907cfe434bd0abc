//! Minisweep: the KBA wavefront sweep at the heart of Denovo Sn radiation
//! transport.
//!
//! For each angle, the sweep solves cells in lexicographic order; each
//! cell's angular flux depends on the upwind faces in x, y and z:
//!
//! ```text
//! v[a][z,y,x] = (source[z,y,x]
//!                + mu_a  * v[a][z,y,x-1]
//!                + eta_a * v[a][z,y-1,x]
//!                + xi_a  * v[a][z-1,y,x]) * recip_a
//! ```
//!
//! Structure mirrors the mini-app: angles are processed in vector groups of
//! four (one sweep kernel per group, four angles unrolled in the body —
//! minisweep's `NU`-style angle blocking), the whole sweep repeats once per
//! octant (8 times), and a final `outflow` kernel extracts the exiting-face
//! flux that the checksum (the mini-app's normsum) reduces. Flux arrays are
//! halo-padded by one plane per spatial dimension (vacuum boundary).
//!
//! Angle chains are mutually independent, so the measured ILP is the
//! highest of the five workloads — thousands at paper scale — exactly the
//! paper's Table 1 behaviour. The paper runs `-ncell_x 8 -ncell_y 16
//! -ncell_z 32 -ne 1 -na 32`; the energy dimension (ne=1) is folded into
//! the angle loop.

use crate::SizeClass;
use kernelgen::*;

/// Angles per vector group (minisweep's NU blocking).
const GROUP: u64 = 4;

/// Minisweep parameters.
#[derive(Debug, Clone, Copy)]
pub struct SweepParams {
    /// Angles (x energy groups); must be a multiple of 4.
    pub na: u64,
    /// Cells in z.
    pub nz: u64,
    /// Cells in y.
    pub ny: u64,
    /// Cells in x.
    pub nx: u64,
    /// Octant sweeps (the mini-app sweeps all 8 octants per iteration).
    pub octants: u64,
}

impl SweepParams {
    /// Parameters per size class (Paper = na 32, 32x16x8 cells, 8 octants).
    pub fn for_size(size: SizeClass) -> Self {
        match size {
            SizeClass::Test => SweepParams {
                na: 4,
                nz: 4,
                ny: 4,
                nx: 4,
                octants: 2,
            },
            SizeClass::Small => SweepParams {
                na: 16,
                nz: 16,
                ny: 8,
                nx: 8,
                octants: 8,
            },
            SizeClass::Paper => SweepParams {
                na: 32,
                nz: 32,
                ny: 16,
                nx: 8,
                octants: 8,
            },
        }
    }
}

/// Build minisweep at the given size class.
pub fn build(size: SizeClass) -> KernelProgram {
    build_with(SweepParams::for_size(size))
}

/// Build minisweep with explicit parameters.
pub fn build_with(params: SweepParams) -> KernelProgram {
    let SweepParams {
        na,
        nz,
        ny,
        nx,
        octants,
    } = params;
    assert_eq!(na % GROUP, 0, "na must be a multiple of {GROUP}");
    let groups = na / GROUP;
    // Padded spatial extents (one upwind halo plane per dimension).
    let (px, py, pz) = (nx + 1, ny + 1, nz + 1);
    let plane = py * px;
    let volume = pz * plane;

    let mut p = KernelProgram::new("minisweep");
    // One flux array per angle (group g, unrolled lane u => angle g*4+u).
    let mut v: Vec<ArrayId> = Vec::new();
    for a in 0..na {
        v.push(p.array(&format!("vflux{a}"), volume, ArrayInit::Zero));
    }
    // Isotropic source over the (padded) spatial grid.
    let source = p.array(
        "source",
        volume,
        ArrayInit::Linear {
            start: 1.0,
            step: 0.001,
        },
    );
    // Exiting-face flux per angle (the checksum / normsum target).
    let out = p.array("outflow", na * ny * nx, ArrayInit::Zero);

    let center = (plane + px + 1) as i64;
    let vat = |arr: ArrayId, dz: i64, dy: i64, dx: i64| Access {
        arr,
        strides: vec![plane as i64, px as i64, 1],
        offset: center + dz * plane as i64 + dy * px as i64 + dx,
    };

    // One sweep kernel per angle group, four angles unrolled per cell.
    for g in 0..groups {
        let mut body = Vec::new();
        for u in 0..GROUP {
            let a = (g * GROUP + u) as usize;
            // Per-angle direction cosines (quadrature stand-in).
            let mu = 0.30 + 0.03 * a as f64;
            let eta = 0.22 + 0.02 * a as f64;
            let xi = 0.12 + 0.01 * a as f64;
            let recip = 1.0 / (1.0 + mu + eta + xi);
            body.push(Stmt::Store {
                access: vat(v[a], 0, 0, 0),
                value: Expr::mul(
                    Expr::mul_add(
                        Expr::Const(xi),
                        Expr::Load(vat(v[a], -1, 0, 0)),
                        Expr::mul_add(
                            Expr::Const(eta),
                            Expr::Load(vat(v[a], 0, -1, 0)),
                            Expr::mul_add(
                                Expr::Const(mu),
                                Expr::Load(vat(v[a], 0, 0, -1)),
                                Expr::Load(vat(source, 0, 0, 0)),
                            ),
                        ),
                    ),
                    Expr::Const(recip),
                ),
            });
        }
        p.kernel(Kernel {
            name: "sweep".into(),
            dims: vec![nz, ny, nx],
            accs: vec![],
            body,
        });
    }

    // Outflow extraction: copy the last z-plane of every angle into the
    // normsum target (runs once per octant; idempotent for identical
    // octants, exactly like re-running a sweep direction).
    for g in 0..groups {
        let mut body = Vec::new();
        for u in 0..GROUP {
            let a = (g * GROUP + u) as usize;
            body.push(Stmt::Store {
                access: Access {
                    arr: out,
                    strides: vec![nx as i64, 1],
                    offset: (a as u64 * ny * nx) as i64,
                },
                value: Expr::Load(Access {
                    arr: v[a],
                    strides: vec![px as i64, 1],
                    offset: ((pz - 1) * plane + px + 1) as i64,
                }),
            });
        }
        p.kernel(Kernel {
            name: "outflow".into(),
            dims: vec![ny, nx],
            accs: vec![],
            body,
        });
    }

    p.repeat = octants;
    p.checksum_arrays = vec![out];
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wavefront_dependency_holds() {
        let prm = SweepParams {
            na: 4,
            nz: 3,
            ny: 3,
            nx: 3,
            octants: 1,
        };
        let p = build_with(prm);
        let r = kernelgen::interpret(&p, &Personality::gcc122());
        let v = &r.arrays["vflux0"];
        let (px, py) = (4u64, 4u64);
        let plane = (px * py) as usize;
        let at = |z: u64, y: u64, x: u64| v[(z as usize) * plane + (y * px + x) as usize];
        // Deeper cells accumulate more upwind flux than the first cell.
        assert!(at(3, 3, 3) > at(1, 1, 1));
        assert!(at(1, 1, 1) > 0.0);
        // Halo stays vacuum.
        assert_eq!(at(0, 2, 2), 0.0);
    }

    #[test]
    fn outflow_reflects_final_plane() {
        let prm = SweepParams {
            na: 4,
            nz: 3,
            ny: 3,
            nx: 3,
            octants: 2,
        };
        let p = build_with(prm);
        let r = kernelgen::interpret(&p, &Personality::gcc122());
        let out = &r.arrays["outflow"];
        assert_eq!(out.len(), 4 * 9);
        for v in out {
            assert!(v.is_finite() && *v > 0.0, "outflow must be positive: {v}");
        }
        // Angle coefficients differ, so per-angle outflows differ.
        assert_ne!(out[0], out[9]);
    }

    #[test]
    fn kernel_structure() {
        let p = build(SizeClass::Test);
        let sweeps = p.kernels.iter().filter(|k| k.name == "sweep").count();
        let outflows = p.kernels.iter().filter(|k| k.name == "outflow").count();
        assert_eq!(sweeps, 1, "test size: na=4 => one group");
        assert_eq!(outflows, 1);
    }
}
