//! STREAM (McCalpin): sustained-memory-bandwidth kernels.
//!
//! Four kernels applied to `f64` arrays `a`, `b`, `c`:
//!
//! * `copy`:  `c[i] = a[i]`
//! * `scale`: `b[i] = s * c[i]`
//! * `add`:   `c[i] = a[i] + b[i]`
//! * `triad`: `a[i] = b[i] + s * c[i]`
//!
//! The paper runs the reference code: arrays of 10,000,000 elements,
//! NTIMES=10 timing iterations, `s = 3.0`. Initial values follow the
//! reference (`a=1, b=2, c=0`).

use crate::SizeClass;
use kernelgen::*;

/// STREAM parameters.
#[derive(Debug, Clone, Copy)]
pub struct StreamParams {
    /// Array length in elements.
    pub n: u64,
    /// Timing iterations (NTIMES).
    pub ntimes: u64,
}

impl StreamParams {
    /// Parameters for a size class (Paper = the paper's N=10M, NTIMES=10).
    pub fn for_size(size: SizeClass) -> Self {
        match size {
            SizeClass::Test => StreamParams { n: 64, ntimes: 2 },
            SizeClass::Small => StreamParams {
                n: 20_000,
                ntimes: 3,
            },
            SizeClass::Paper => StreamParams {
                n: 10_000_000,
                ntimes: 10,
            },
        }
    }
}

/// Build STREAM at the given size class.
pub fn build(size: SizeClass) -> KernelProgram {
    build_with(StreamParams::for_size(size))
}

/// Build STREAM with explicit parameters.
pub fn build_with(params: StreamParams) -> KernelProgram {
    let StreamParams { n, ntimes } = params;
    let mut p = KernelProgram::new("STREAM");
    let a = p.array("a", n, ArrayInit::Fill(1.0));
    let b = p.array("b", n, ArrayInit::Fill(2.0));
    let c = p.array("c", n, ArrayInit::Fill(0.0));
    let unit = |arr| Access {
        arr,
        strides: vec![1],
        offset: 0,
    };
    let scalar = 3.0;

    p.kernel(Kernel {
        name: "copy".into(),
        dims: vec![n],
        accs: vec![],
        body: vec![Stmt::Store {
            access: unit(c),
            value: Expr::Load(unit(a)),
        }],
    });
    p.kernel(Kernel {
        name: "scale".into(),
        dims: vec![n],
        accs: vec![],
        body: vec![Stmt::Store {
            access: unit(b),
            value: Expr::mul(Expr::Const(scalar), Expr::Load(unit(c))),
        }],
    });
    p.kernel(Kernel {
        name: "add".into(),
        dims: vec![n],
        accs: vec![],
        body: vec![Stmt::Store {
            access: unit(c),
            value: Expr::add(Expr::Load(unit(a)), Expr::Load(unit(b))),
        }],
    });
    p.kernel(Kernel {
        name: "triad".into(),
        dims: vec![n],
        accs: vec![],
        body: vec![Stmt::Store {
            access: unit(a),
            value: Expr::mul_add(
                Expr::Const(scalar),
                Expr::Load(unit(c)),
                Expr::Load(unit(b)),
            ),
        }],
    });
    p.repeat = ntimes;
    p.checksum_arrays = vec![a, b, c];
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_reference_values() {
        // The STREAM verification recurrence after k iterations.
        let p = build_with(StreamParams { n: 16, ntimes: 3 });
        let r = kernelgen::interpret(&p, &Personality::gcc122());
        let (mut a, mut b, mut c) = (1.0f64, 2.0f64, 0.0f64);
        for _ in 0..3 {
            c = a;
            b = 3.0 * c;
            c = a + b;
            a = b + 3.0 * c;
        }
        assert_eq!(r.arrays["a"][7], a);
        assert_eq!(r.arrays["b"][0], b);
        assert_eq!(r.arrays["c"][15], c);
    }

    #[test]
    fn four_kernels_with_paper_names() {
        let p = build(SizeClass::Test);
        let names: Vec<&str> = p.kernels.iter().map(|k| k.name.as_str()).collect();
        assert_eq!(names, vec!["copy", "scale", "add", "triad"]);
    }
}
