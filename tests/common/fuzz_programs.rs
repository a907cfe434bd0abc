//! Random kernel-IR programs for whole-stack fuzzing (`fuzz_codegen`) and
//! for checking the analyses on emulated streams (`cp_oracle`).
//!
//! Generated programs avoid NaN-producing operations (division and raw
//! square roots), and every statement's value is clamped so repeated
//! feedback through arrays cannot overflow to infinity.

use kernelgen::{
    Access, ArrayId, ArrayInit, BinOp, CmpOp, Expr, Kernel, KernelProgram, Stmt, TempId, UnOp,
};
use proptest::prelude::*;

const NUM_ARRAYS: usize = 3;
const ARRAY_LEN: u64 = 24;

/// A recipe for one expression node; depth-limited at construction.
#[derive(Debug, Clone)]
pub enum ExprSpec {
    Const(i32),
    Temp(u8),
    Load {
        arr: u8,
        offset: u8,
    },
    Un(u8, Box<ExprSpec>),
    Bin(u8, Box<ExprSpec>, Box<ExprSpec>),
    MulAdd(Box<ExprSpec>, Box<ExprSpec>, Box<ExprSpec>),
    Select(
        u8,
        Box<ExprSpec>,
        Box<ExprSpec>,
        Box<ExprSpec>,
        Box<ExprSpec>,
    ),
}

pub fn expr_spec() -> impl Strategy<Value = ExprSpec> {
    let leaf = prop_oneof![
        (-4i32..5).prop_map(ExprSpec::Const),
        (0u8..3).prop_map(ExprSpec::Temp),
        (0u8..NUM_ARRAYS as u8, 0u8..3).prop_map(|(arr, offset)| ExprSpec::Load { arr, offset }),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            (0u8..2, inner.clone()).prop_map(|(op, a)| ExprSpec::Un(op, Box::new(a))),
            (0u8..5, inner.clone(), inner.clone()).prop_map(|(op, a, b)| ExprSpec::Bin(
                op,
                Box::new(a),
                Box::new(b)
            )),
            (inner.clone(), inner.clone(), inner.clone())
                .prop_map(|(a, b, c)| { ExprSpec::MulAdd(Box::new(a), Box::new(b), Box::new(c)) }),
            (0u8..3, inner.clone(), inner.clone(), inner.clone(), inner).prop_map(
                |(cmp, a, b, t, e)| ExprSpec::Select(
                    cmp,
                    Box::new(a),
                    Box::new(b),
                    Box::new(t),
                    Box::new(e)
                )
            ),
        ]
    })
}

#[derive(Debug, Clone)]
pub enum StmtSpec {
    Def(ExprSpec),
    Store {
        arr: u8,
        offset: u8,
        value: ExprSpec,
    },
    Accum {
        op: u8,
        value: ExprSpec,
    },
}

pub fn stmt_spec() -> impl Strategy<Value = StmtSpec> {
    prop_oneof![
        expr_spec().prop_map(StmtSpec::Def),
        (0u8..NUM_ARRAYS as u8, 0u8..3, expr_spec())
            .prop_map(|(arr, offset, value)| StmtSpec::Store { arr, offset, value }),
        (0u8..2, expr_spec()).prop_map(|(op, value)| StmtSpec::Accum { op, value }),
    ]
}

#[derive(Debug, Clone)]
pub struct ProgramSpec {
    pub dims: Vec<u64>,
    pub stmts: Vec<StmtSpec>,
    pub repeat: u64,
    pub use_acc: bool,
}

pub fn program_spec() -> impl Strategy<Value = ProgramSpec> {
    (
        prop_oneof![
            (2u64..6).prop_map(|n| vec![n]),
            (2u64..4, 2u64..5).prop_map(|(a, b)| vec![a, b]),
            (2u64..3, 2u64..3, 2u64..4).prop_map(|(a, b, c)| vec![a, b, c]),
        ],
        proptest::collection::vec(stmt_spec(), 1..5),
        1u64..3,
        any::<bool>(),
    )
        .prop_map(|(dims, stmts, repeat, use_acc)| ProgramSpec {
            dims,
            stmts,
            repeat,
            use_acc,
        })
}

/// Realise a spec as a valid IR program (defines temps before use, keeps
/// accesses in bounds, avoids NaN-producing operations).
pub fn realise(spec: &ProgramSpec) -> KernelProgram {
    let mut p = KernelProgram::new("fuzz");
    let arrays: Vec<ArrayId> = (0..NUM_ARRAYS)
        .map(|i| {
            p.array(
                &format!("a{i}"),
                ARRAY_LEN,
                ArrayInit::Linear {
                    start: 0.25 + i as f64,
                    step: 0.5,
                },
            )
        })
        .collect();
    let out = p.array("out", 1, ArrayInit::Zero);

    let ndim = spec.dims.len();
    // Unit stride on the innermost dim only: max index = offset + dim-1;
    // keep offsets+trips within ARRAY_LEN.
    let strides: Vec<i64> = (0..ndim)
        .map(|d| if d == ndim - 1 { 1 } else { 2 })
        .collect();
    let span: i64 = spec
        .dims
        .iter()
        .zip(strides.iter())
        .map(|(&t, &s)| (t as i64 - 1) * s)
        .sum();
    let max_off = (ARRAY_LEN as i64 - 1 - span).max(0) as u8;

    let access = |arr: u8, offset: u8| Access {
        arr: arrays[arr as usize % NUM_ARRAYS],
        strides: strides.clone(),
        offset: (offset % (max_off + 1)) as i64,
    };

    fn build(e: &ExprSpec, defined: u8, access: &dyn Fn(u8, u8) -> Access) -> Expr {
        match e {
            ExprSpec::Const(v) => Expr::Const(*v as f64 * 0.5),
            ExprSpec::Temp(t) => {
                if defined == 0 {
                    Expr::Const(1.0)
                } else {
                    Expr::Temp(TempId((*t % defined) as usize))
                }
            }
            ExprSpec::Load { arr, offset } => Expr::Load(access(*arr, *offset)),
            ExprSpec::Un(op, a) => {
                let a = build(a, defined, access);
                match op % 2 {
                    0 => Expr::neg(a),
                    _ => Expr::abs(a),
                }
            }
            ExprSpec::Bin(op, a, b) => {
                let a = build(a, defined, access);
                let b = build(b, defined, access);
                match op % 5 {
                    0 => Expr::add(a, b),
                    1 => Expr::sub(a, b),
                    2 => Expr::mul(a, b),
                    3 => Expr::min(a, b),
                    _ => Expr::max(a, b),
                }
            }
            ExprSpec::MulAdd(a, b, c) => Expr::mul_add(
                build(a, defined, access),
                build(b, defined, access),
                build(c, defined, access),
            ),
            ExprSpec::Select(cmp, a, b, t, e2) => Expr::Select {
                cmp: match cmp % 3 {
                    0 => CmpOp::Lt,
                    1 => CmpOp::Le,
                    _ => CmpOp::Eq,
                },
                a: Box::new(build(a, defined, access)),
                b: Box::new(build(b, defined, access)),
                t: Box::new(build(t, defined, access)),
                e: Box::new(build(e2, defined, access)),
            },
        }
    }

    // Clamp to a magnitude where even a 27-leaf product of clamped values
    // (or of accumulators, which sum a few dozen clamped terms) stays far
    // below f64::MAX: no infinities, hence no NaNs.
    let clamp = |v: Expr| Expr::min(Expr::max(v, Expr::Const(-1e6)), Expr::Const(1e6));

    let mut body = Vec::new();
    let mut defined: u8 = 0;
    for s in &spec.stmts {
        match s {
            StmtSpec::Def(e) => {
                if defined < 3 {
                    body.push(Stmt::Def {
                        temp: TempId(defined as usize),
                        expr: clamp(build(e, defined, &access)),
                    });
                    defined += 1;
                }
            }
            StmtSpec::Store { arr, offset, value } => {
                body.push(Stmt::Store {
                    access: access(*arr, *offset),
                    value: clamp(build(value, defined, &access)),
                });
            }
            StmtSpec::Accum { op, value } => {
                if spec.use_acc {
                    body.push(Stmt::Accum {
                        acc: kernelgen::AccId(0),
                        op: if op % 2 == 0 { BinOp::Add } else { BinOp::Max },
                        value: clamp(build(value, defined, &access)),
                    });
                }
            }
        }
    }
    if body.is_empty() {
        body.push(Stmt::Store {
            access: access(0, 0),
            value: Expr::Const(1.0),
        });
    }
    let accs = if spec.use_acc {
        vec![kernelgen::AccDecl {
            init: 0.0,
            store_to: Some((out, 0)),
        }]
    } else {
        vec![]
    };
    p.kernel(Kernel {
        name: "fuzzed".into(),
        dims: spec.dims.clone(),
        accs,
        body,
    });
    p.repeat = spec.repeat;
    p.checksum_arrays = vec![arrays[0], arrays[1], arrays[2], out];
    // Sanity: the realised program must validate.
    p.validate();
    // Avoid the Sqrt NaN path entirely (arch NaN propagation differs);
    // keep UnOp::Sqrt out of the generated set (see module docs).
    let _ = UnOp::Sqrt;
    p
}
