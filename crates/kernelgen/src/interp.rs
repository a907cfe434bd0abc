//! Reference interpreter for the kernel IR.
//!
//! Executes a [`KernelProgram`] directly on the host with the same `f64`
//! semantics the back-ends emit (including FMA contraction when the
//! personality fuses), so compiled guest checksums must match bit-for-bit.

use std::collections::HashMap;

use crate::ir::*;
use crate::personality::Personality;

/// Result of interpreting a program.
pub struct InterpResult {
    /// Final contents of every array, by name.
    pub arrays: HashMap<String, Vec<f64>>,
    /// Checksum (sum over `checksum_arrays`, in declaration order).
    pub checksum: f64,
}

/// IEEE minimumNumber matching both back-ends' `fmin`/`fminnm` lowering
/// for NaN-free inputs, including the architectural -0 < +0 ordering that
/// RISC-V `fmin` and AArch64 `fminnm` share.
fn fmin(a: f64, b: f64) -> f64 {
    if a == 0.0 && b == 0.0 {
        if a.is_sign_negative() {
            a
        } else {
            b
        }
    } else if a < b {
        a
    } else {
        b
    }
}

fn fmax(a: f64, b: f64) -> f64 {
    if a == 0.0 && b == 0.0 {
        if a.is_sign_positive() {
            a
        } else {
            b
        }
    } else if a > b {
        a
    } else {
        b
    }
}

struct Ctx {
    arrays: Vec<Vec<f64>>,
    fuse_fma: bool,
}

impl Ctx {
    fn eval(&self, e: &Expr, ivs: &[u64], temps: &[f64], accs: &[f64]) -> f64 {
        match e {
            Expr::Const(v) => *v,
            Expr::Temp(t) => temps[t.0],
            Expr::Acc(a) => accs[a.0],
            Expr::Load(acc) => self.arrays[acc.arr.0][element(acc, ivs)],
            Expr::Un(op, a) => {
                let a = self.eval(a, ivs, temps, accs);
                match op {
                    UnOp::Neg => -a,
                    UnOp::Abs => a.abs(),
                    UnOp::Sqrt => a.sqrt(),
                }
            }
            Expr::Bin(op, a, b) => {
                let a = self.eval(a, ivs, temps, accs);
                let b = self.eval(b, ivs, temps, accs);
                match op {
                    BinOp::Add => a + b,
                    BinOp::Sub => a - b,
                    BinOp::Mul => a * b,
                    BinOp::Div => a / b,
                    BinOp::Min => fmin(a, b),
                    BinOp::Max => fmax(a, b),
                }
            }
            Expr::MulAdd(a, b, c) => {
                let a = self.eval(a, ivs, temps, accs);
                let b = self.eval(b, ivs, temps, accs);
                let c = self.eval(c, ivs, temps, accs);
                if self.fuse_fma {
                    a.mul_add(b, c)
                } else {
                    a * b + c
                }
            }
            Expr::Select { cmp, a, b, t, e } => {
                let av = self.eval(a, ivs, temps, accs);
                let bv = self.eval(b, ivs, temps, accs);
                let cond = match cmp {
                    CmpOp::Lt => av < bv,
                    CmpOp::Le => av <= bv,
                    CmpOp::Eq => av == bv,
                };
                if cond {
                    self.eval(t, ivs, temps, accs)
                } else {
                    self.eval(e, ivs, temps, accs)
                }
            }
        }
    }
}

fn element(acc: &Access, ivs: &[u64]) -> usize {
    let mut idx = acc.offset;
    for (d, &s) in acc.strides.iter().enumerate() {
        idx += s * ivs[d] as i64;
    }
    idx as usize
}

/// Everything of a personality that [`interpret`] reads: whether `a*b + c`
/// contracts into one rounding. The other knobs only shape the machine
/// code, so personalities with equal keys get the same [`InterpResult`]
/// for the same program, and a cache of reference checksums may key on
/// this.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReferenceKey {
    fuse_fma: bool,
}

impl ReferenceKey {
    /// The key of `personality`.
    pub fn of(personality: &Personality) -> Self {
        ReferenceKey {
            fuse_fma: personality.fuse_fma,
        }
    }
}

/// Interpret `prog` under `personality`'s arithmetic model.
pub fn interpret(prog: &KernelProgram, personality: &Personality) -> InterpResult {
    prog.validate();
    let ReferenceKey { fuse_fma } = ReferenceKey::of(personality);
    let mut ctx = Ctx {
        arrays: prog.arrays.iter().map(init_values).collect(),
        fuse_fma,
    };

    for _rep in 0..prog.repeat {
        for k in &prog.kernels {
            let ndim = k.dims.len();
            let mut accs: Vec<f64> = k.accs.iter().map(|a| a.init).collect();
            let max_temp = k
                .body
                .iter()
                .filter_map(|s| match s {
                    Stmt::Def { temp, .. } => Some(temp.0 + 1),
                    _ => None,
                })
                .max()
                .unwrap_or(0);
            let mut temps = vec![0.0f64; max_temp];
            let mut ivs = vec![0u64; ndim];
            'nest: loop {
                for s in &k.body {
                    match s {
                        Stmt::Def { temp, expr } => {
                            temps[temp.0] = ctx.eval(expr, &ivs, &temps, &accs);
                        }
                        Stmt::Store { access, value } => {
                            let v = ctx.eval(value, &ivs, &temps, &accs);
                            let idx = element(access, &ivs);
                            ctx.arrays[access.arr.0][idx] = v;
                        }
                        Stmt::Accum { acc, op, value } => {
                            let v = ctx.eval(value, &ivs, &temps, &accs);
                            accs[acc.0] = match op {
                                BinOp::Add => accs[acc.0] + v,
                                BinOp::Min => fmin(accs[acc.0], v),
                                BinOp::Max => fmax(accs[acc.0], v),
                                _ => unreachable!(),
                            };
                        }
                    }
                }
                // Advance the odometer (innermost fastest).
                let mut d = ndim;
                loop {
                    if d == 0 {
                        break 'nest;
                    }
                    d -= 1;
                    ivs[d] += 1;
                    if ivs[d] < k.dims[d] {
                        break;
                    }
                    ivs[d] = 0;
                }
            }
            for (i, decl) in k.accs.iter().enumerate() {
                if let Some((arr, elem)) = decl.store_to {
                    ctx.arrays[arr.0][elem as usize] = accs[i];
                }
            }
        }
    }

    // Per-array partial sums folded in declaration order — exactly the
    // shape of the generated guest checksum code, so results match bit-for-
    // bit despite FP non-associativity.
    let mut checksum = 0.0f64;
    for a in &prog.checksum_arrays {
        let mut partial = 0.0f64;
        for v in &ctx.arrays[a.0] {
            partial += v;
        }
        checksum += partial;
    }
    let arrays = prog
        .arrays
        .iter()
        .zip(ctx.arrays.iter())
        .map(|(d, v)| (d.name.clone(), v.clone()))
        .collect();
    InterpResult { arrays, checksum }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triad_1d() {
        let mut p = KernelProgram::new("triad");
        let a = p.array("a", 8, ArrayInit::Zero);
        let b = p.array(
            "b",
            8,
            ArrayInit::Linear {
                start: 0.0,
                step: 1.0,
            },
        );
        let c = p.array("c", 8, ArrayInit::Fill(2.0));
        let unit = |arr| Access {
            arr,
            strides: vec![1],
            offset: 0,
        };
        p.kernel(Kernel {
            name: "triad".into(),
            dims: vec![8],
            accs: vec![],
            body: vec![Stmt::Store {
                access: unit(a),
                value: Expr::mul_add(Expr::Const(3.0), Expr::Load(unit(c)), Expr::Load(unit(b))),
            }],
        });
        p.checksum_arrays.push(a);
        let r = interpret(&p, &Personality::gcc122());
        // a[i] = 3*2 + i -> sum = 8*6 + 28 = 76
        assert_eq!(r.checksum, 76.0);
        assert_eq!(r.arrays["a"][3], 9.0);
    }

    #[test]
    fn two_dim_accumulation() {
        let mut p = KernelProgram::new("sum2d");
        let m = p.array(
            "m",
            12,
            ArrayInit::Linear {
                start: 1.0,
                step: 1.0,
            },
        );
        let out = p.array("out", 1, ArrayInit::Zero);
        p.kernel(Kernel {
            name: "sum".into(),
            dims: vec![3, 4], // 3 rows of 4
            accs: vec![AccDecl {
                init: 0.0,
                store_to: Some((out, 0)),
            }],
            body: vec![Stmt::Accum {
                acc: AccId(0),
                op: BinOp::Add,
                value: Expr::Load(Access {
                    arr: m,
                    strides: vec![4, 1],
                    offset: 0,
                }),
            }],
        });
        p.checksum_arrays.push(out);
        let r = interpret(&p, &Personality::gcc122());
        assert_eq!(r.checksum, (1..=12).sum::<i32>() as f64);
    }

    #[test]
    fn select_and_minmax() {
        let mut p = KernelProgram::new("sel");
        let a = p.array("a", 4, ArrayInit::Values(vec![1.0, -5.0, 3.0, -2.0]));
        let b = p.array("b", 4, ArrayInit::Zero);
        let unit = |arr| Access {
            arr,
            strides: vec![1],
            offset: 0,
        };
        p.kernel(Kernel {
            name: "clamp".into(),
            dims: vec![4],
            accs: vec![],
            body: vec![Stmt::Store {
                access: unit(b),
                value: Expr::Select {
                    cmp: CmpOp::Lt,
                    a: Box::new(Expr::Load(unit(a))),
                    b: Box::new(Expr::Const(0.0)),
                    t: Box::new(Expr::Const(0.0)),
                    e: Box::new(Expr::Load(unit(a))),
                },
            }],
        });
        p.checksum_arrays.push(b);
        let r = interpret(&p, &Personality::gcc122());
        assert_eq!(r.arrays["b"], vec![1.0, 0.0, 3.0, 0.0]);
        assert_eq!(r.checksum, 4.0);
    }

    #[test]
    fn repeat_runs_kernels_multiple_times() {
        let mut p = KernelProgram::new("rep");
        let a = p.array("a", 1, ArrayInit::Zero);
        let unit = |arr| Access {
            arr,
            strides: vec![1],
            offset: 0,
        };
        p.kernel(Kernel {
            name: "inc".into(),
            dims: vec![1],
            accs: vec![],
            body: vec![Stmt::Store {
                access: unit(a),
                value: Expr::add(Expr::Load(unit(a)), Expr::Const(1.0)),
            }],
        });
        p.repeat = 5;
        p.checksum_arrays.push(a);
        let r = interpret(&p, &Personality::gcc92());
        assert_eq!(r.checksum, 5.0);
    }

    #[test]
    fn fma_fusion_affects_bits() {
        // Pick operands where fused and unfused differ: with a = 1 + 2^-30,
        // a*a = 1 + 2^-29 + 2^-60. The 2^-60 term is below ulp(1) so the
        // separate multiply rounds it away; the fused form keeps it.
        let a = 1.0 + (2.0f64).powi(-30);
        let mut p = KernelProgram::new("fma");
        let out = p.array("out", 1, ArrayInit::Zero);
        p.kernel(Kernel {
            name: "k".into(),
            dims: vec![1],
            accs: vec![],
            body: vec![Stmt::Store {
                access: Access {
                    arr: out,
                    strides: vec![0],
                    offset: 0,
                },
                value: Expr::mul_add(Expr::Const(a), Expr::Const(a), Expr::Const(-1.0)),
            }],
        });
        p.checksum_arrays.push(out);
        let fused = interpret(&p, &Personality::gcc122()).checksum;
        let mut unfused_p = Personality::gcc122();
        unfused_p.fuse_fma = false;
        let unfused = interpret(&p, &unfused_p).checksum;
        assert_eq!(fused, a.mul_add(a, -1.0));
        assert_eq!(unfused, a * a - 1.0);
        assert_ne!(fused.to_bits(), unfused.to_bits());
    }

    #[test]
    fn reference_key_ignores_codegen_knobs_only() {
        let key = ReferenceKey::of(&Personality::gcc122());
        assert_eq!(ReferenceKey::of(&Personality::gcc92()), key);
        let mut ablated = Personality::gcc122();
        ablated.arm_post_index = true;
        ablated.arm_register_offset = false;
        ablated.riscv_fused_compare_branch = false;
        assert_eq!(ReferenceKey::of(&ablated), key);
        let mut unfused = Personality::gcc122();
        unfused.fuse_fma = false;
        assert_ne!(ReferenceKey::of(&unfused), key);
    }
}
