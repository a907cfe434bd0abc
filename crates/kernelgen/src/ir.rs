//! The loop-kernel intermediate representation.
//!
//! A [`KernelProgram`] is a sequence of [`Kernel`]s, each a perfectly nested
//! counted loop over `f64` arrays. Array accesses are affine in the loop
//! induction variables: `element = offset + sum_d stride[d] * iv[d]`. The
//! innermost dimension is the unit the back-ends optimise (addressing modes,
//! loop-exit idioms); outer dimensions are lowered with the classic
//! cursor-adjustment trick so each array needs exactly one pointer register
//! regardless of nesting depth.
//!
//! The IR deliberately has no integer data or data-dependent control flow —
//! conditional values are expressed with [`Expr::Select`], which lowers to
//! `fcmp`+`fcsel` on AArch64 and a compare + branch diamond on RISC-V (the
//! two ISAs' natural idioms). This covers all five paper workloads.

/// Handle to a declared array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArrayId(pub usize);

/// Handle to a per-iteration `f64` temporary (single assignment per
/// iteration via [`Stmt::Def`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TempId(pub usize);

/// Handle to a loop-carried accumulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AccId(pub usize);

/// How an array's initial contents are produced.
#[derive(Debug, Clone)]
pub enum ArrayInit {
    /// All zeros (placed in `.bss`-like zero storage).
    Zero,
    /// Explicit values (placed in `.data`).
    Values(Vec<f64>),
    /// `start + i * step` for element `i`.
    Linear {
        /// Value of element 0.
        start: f64,
        /// Per-element increment.
        step: f64,
    },
    /// Constant value in every element.
    Fill(f64),
}

/// An array declaration.
#[derive(Debug, Clone)]
pub struct ArrayDecl {
    /// Name (unique within the program).
    pub name: String,
    /// Length in `f64` elements.
    pub len: u64,
    /// Initial contents.
    pub init: ArrayInit,
}

/// Binary operations on `f64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// IEEE minimumNumber.
    Min,
    /// IEEE maximumNumber.
    Max,
}

/// Unary operations on `f64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// Negation.
    Neg,
    /// Absolute value.
    Abs,
    /// Square root.
    Sqrt,
}

/// Comparison predicates for [`Expr::Select`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Equal.
    Eq,
}

/// An affine array access: `element = offset + sum_d strides[d] * iv[d]`.
///
/// `strides` is indexed outermost-first and must have exactly as many
/// entries as the enclosing kernel has dimensions.
#[derive(Debug, Clone, PartialEq)]
pub struct Access {
    /// Array accessed.
    pub arr: ArrayId,
    /// Per-dimension element strides (outermost first).
    pub strides: Vec<i64>,
    /// Constant element offset.
    pub offset: i64,
}

/// A pure `f64` expression evaluated once per innermost iteration.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Literal constant.
    Const(f64),
    /// Previously defined temporary.
    Temp(TempId),
    /// Current value of an accumulator.
    Acc(AccId),
    /// Array load.
    Load(Access),
    /// Unary operation.
    Un(UnOp, Box<Expr>),
    /// Binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Fused multiply-add `a*b + c` (fused when the personality allows,
    /// otherwise a separate multiply and add — bit-identical to the
    /// interpreter either way).
    MulAdd(Box<Expr>, Box<Expr>, Box<Expr>),
    /// `if cmp(a, b) { t } else { e }`.
    Select {
        /// Predicate.
        cmp: CmpOp,
        /// Left comparison operand.
        a: Box<Expr>,
        /// Right comparison operand.
        b: Box<Expr>,
        /// Value when the predicate holds.
        t: Box<Expr>,
        /// Value otherwise.
        e: Box<Expr>,
    },
}

// Constructor names deliberately match the IR operation names, not the
// std::ops traits (these build syntax trees, they don't compute).
#[allow(clippy::should_implement_trait)]
impl Expr {
    /// `a + b`.
    pub fn add(a: Expr, b: Expr) -> Expr {
        Expr::Bin(BinOp::Add, Box::new(a), Box::new(b))
    }
    /// `a - b`.
    pub fn sub(a: Expr, b: Expr) -> Expr {
        Expr::Bin(BinOp::Sub, Box::new(a), Box::new(b))
    }
    /// `a * b`.
    pub fn mul(a: Expr, b: Expr) -> Expr {
        Expr::Bin(BinOp::Mul, Box::new(a), Box::new(b))
    }
    /// `a / b`.
    pub fn div(a: Expr, b: Expr) -> Expr {
        Expr::Bin(BinOp::Div, Box::new(a), Box::new(b))
    }
    /// `min(a, b)`.
    pub fn min(a: Expr, b: Expr) -> Expr {
        Expr::Bin(BinOp::Min, Box::new(a), Box::new(b))
    }
    /// `max(a, b)`.
    pub fn max(a: Expr, b: Expr) -> Expr {
        Expr::Bin(BinOp::Max, Box::new(a), Box::new(b))
    }
    /// `sqrt(a)`.
    pub fn sqrt(a: Expr) -> Expr {
        Expr::Un(UnOp::Sqrt, Box::new(a))
    }
    /// `-a`.
    pub fn neg(a: Expr) -> Expr {
        Expr::Un(UnOp::Neg, Box::new(a))
    }
    /// `|a|`.
    pub fn abs(a: Expr) -> Expr {
        Expr::Un(UnOp::Abs, Box::new(a))
    }
    /// `a*b + c`.
    pub fn mul_add(a: Expr, b: Expr, c: Expr) -> Expr {
        Expr::MulAdd(Box::new(a), Box::new(b), Box::new(c))
    }
}

/// One statement in a kernel body (executed in order each iteration).
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// Define temporary `temp` (each temp defined exactly once per body).
    Def {
        /// The temporary being defined.
        temp: TempId,
        /// Its value.
        expr: Expr,
    },
    /// Store `value` to an array element.
    Store {
        /// Destination access.
        access: Access,
        /// Value stored.
        value: Expr,
    },
    /// Loop-carried update: `acc = acc op value`.
    Accum {
        /// Accumulator updated.
        acc: AccId,
        /// Combining operation (Add, Min or Max).
        op: BinOp,
        /// Value combined in.
        value: Expr,
    },
}

/// Declaration of a loop-carried accumulator.
#[derive(Debug, Clone)]
pub struct AccDecl {
    /// Initial value at kernel entry.
    pub init: f64,
    /// Where to store the final value when the kernel completes:
    /// `(array, element)`.
    pub store_to: Option<(ArrayId, u64)>,
}

/// A perfectly nested counted loop with a flat body.
#[derive(Debug, Clone)]
pub struct Kernel {
    /// Region name (the per-kernel breakdown of Figure 1 uses this).
    pub name: String,
    /// Trip counts, outermost first. Must be non-empty; every trip > 0.
    pub dims: Vec<u64>,
    /// Accumulators live across the whole nest.
    pub accs: Vec<AccDecl>,
    /// Innermost-loop body.
    pub body: Vec<Stmt>,
}

/// A complete workload: arrays + kernels (+ optional outer repetition).
#[derive(Debug, Clone)]
pub struct KernelProgram {
    /// Workload name.
    pub name: String,
    /// Array declarations.
    pub arrays: Vec<ArrayDecl>,
    /// Kernels, run in order.
    pub kernels: Vec<Kernel>,
    /// Number of times the whole kernel sequence runs (timing iterations).
    pub repeat: u64,
    /// Arrays summed into the final checksum.
    pub checksum_arrays: Vec<ArrayId>,
}

impl KernelProgram {
    /// New empty program.
    pub fn new(name: &str) -> Self {
        KernelProgram {
            name: name.to_string(),
            arrays: Vec::new(),
            kernels: Vec::new(),
            repeat: 1,
            checksum_arrays: Vec::new(),
        }
    }

    /// Declare an array.
    pub fn array(&mut self, name: &str, len: u64, init: ArrayInit) -> ArrayId {
        self.arrays.push(ArrayDecl {
            name: name.to_string(),
            len,
            init,
        });
        ArrayId(self.arrays.len() - 1)
    }

    /// Append a kernel.
    pub fn kernel(&mut self, k: Kernel) {
        self.kernels.push(k);
    }

    /// Validate structural invariants; panics with a description on error.
    /// Back-ends call this before lowering.
    pub fn validate(&self) {
        assert!(self.repeat > 0, "repeat must be positive");
        for k in &self.kernels {
            assert!(!k.dims.is_empty(), "kernel {} has no dims", k.name);
            assert!(
                k.dims.iter().all(|&d| d > 0),
                "kernel {} has a zero trip",
                k.name
            );
            let ndim = k.dims.len();
            let mut defined: Vec<bool> = Vec::new();
            let check_expr = |e: &Expr, defined: &Vec<bool>| {
                let mut stack = vec![e];
                while let Some(e) = stack.pop() {
                    match e {
                        Expr::Const(_) => {}
                        Expr::Temp(t) => assert!(
                            t.0 < defined.len() && defined[t.0],
                            "kernel {}: temp {} used before def",
                            k.name,
                            t.0
                        ),
                        Expr::Acc(a) => {
                            assert!(a.0 < k.accs.len(), "kernel {}: bad acc id", k.name)
                        }
                        Expr::Load(acc) => {
                            assert!(acc.arr.0 < self.arrays.len());
                            assert_eq!(
                                acc.strides.len(),
                                ndim,
                                "kernel {}: access stride arity mismatch",
                                k.name
                            );
                            self.check_bounds(k, acc);
                        }
                        Expr::Un(_, a) => stack.push(a),
                        Expr::Bin(_, a, b) => {
                            stack.push(a);
                            stack.push(b);
                        }
                        Expr::MulAdd(a, b, c) => {
                            stack.push(a);
                            stack.push(b);
                            stack.push(c);
                        }
                        Expr::Select { cmp: _, a, b, t, e } => {
                            stack.push(a);
                            stack.push(b);
                            stack.push(t);
                            stack.push(e);
                        }
                    }
                }
            };
            for s in &k.body {
                match s {
                    Stmt::Def { temp, expr } => {
                        check_expr(expr, &defined);
                        if temp.0 >= defined.len() {
                            defined.resize(temp.0 + 1, false);
                        }
                        assert!(!defined[temp.0], "kernel {}: temp redefined", k.name);
                        defined[temp.0] = true;
                    }
                    Stmt::Store { access, value } => {
                        check_expr(value, &defined);
                        assert_eq!(access.strides.len(), ndim);
                        self.check_bounds(k, access);
                    }
                    Stmt::Accum { acc, op, value } => {
                        assert!(acc.0 < k.accs.len());
                        assert!(
                            matches!(op, BinOp::Add | BinOp::Min | BinOp::Max),
                            "kernel {}: accumulator op must be Add/Min/Max",
                            k.name
                        );
                        check_expr(value, &defined);
                    }
                }
            }
        }
        for a in &self.checksum_arrays {
            assert!(a.0 < self.arrays.len());
        }
    }

    fn check_bounds(&self, k: &Kernel, acc: &Access) {
        let mut min = acc.offset;
        let mut max = acc.offset;
        for (d, &s) in acc.strides.iter().enumerate() {
            let span = s * (k.dims[d] as i64 - 1);
            if span >= 0 {
                max += span;
            } else {
                min += span;
            }
        }
        let len = self.arrays[acc.arr.0].len as i64;
        assert!(
            min >= 0 && max < len,
            "kernel {}: access to array {} spans [{min}, {max}] out of 0..{len}",
            k.name,
            self.arrays[acc.arr.0].name
        );
    }
}

/// Append the guest-side checksum computation to a program: one
/// reduction kernel per checksum array (partials stored to `__partials`),
/// then a final fold into the single-element `__checksum` array.
///
/// Returns the augmented program and the id of the `__checksum` array.
/// Back-ends compile the augmented form; the per-array-partials shape
/// matches [`crate::interp::interpret`]'s checksum fold bit-for-bit.
pub fn augment_with_checksum(prog: &KernelProgram) -> (KernelProgram, ArrayId) {
    let mut p = prog.clone();
    let n = p.checksum_arrays.len().max(1) as u64;
    let partials = p.array("__partials", n, ArrayInit::Zero);
    let result = p.array("__checksum", 1, ArrayInit::Zero);
    for (i, arr) in prog.checksum_arrays.clone().iter().enumerate() {
        let len = p.arrays[arr.0].len;
        p.kernel(Kernel {
            name: "__checksum".into(),
            dims: vec![len],
            accs: vec![AccDecl {
                init: 0.0,
                store_to: Some((partials, i as u64)),
            }],
            body: vec![Stmt::Accum {
                acc: AccId(0),
                op: BinOp::Add,
                value: Expr::Load(Access {
                    arr: *arr,
                    strides: vec![1],
                    offset: 0,
                }),
            }],
        });
    }
    p.kernel(Kernel {
        name: "__checksum".into(),
        dims: vec![n],
        accs: vec![AccDecl {
            init: 0.0,
            store_to: Some((result, 0)),
        }],
        body: vec![Stmt::Accum {
            acc: AccId(0),
            op: BinOp::Add,
            value: Expr::Load(Access {
                arr: partials,
                strides: vec![1],
                offset: 0,
            }),
        }],
    });
    // The checksum kernels run once, after the repeated main sequence.
    // (Back-ends place the repeat loop around the original kernels only.)
    (p, result)
}

/// Materialise an [`ArrayInit`] into concrete values.
pub fn init_values(decl: &ArrayDecl) -> Vec<f64> {
    match &decl.init {
        ArrayInit::Zero => vec![0.0; decl.len as usize],
        ArrayInit::Fill(v) => vec![*v; decl.len as usize],
        ArrayInit::Values(v) => {
            assert_eq!(v.len() as u64, decl.len, "array {} init length", decl.name);
            v.clone()
        }
        ArrayInit::Linear { start, step } => {
            (0..decl.len).map(|i| start + i as f64 * step).collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_access(arr: ArrayId) -> Access {
        Access {
            arr,
            strides: vec![1],
            offset: 0,
        }
    }

    #[test]
    fn builder_and_validate() {
        let mut p = KernelProgram::new("t");
        let a = p.array(
            "a",
            16,
            ArrayInit::Linear {
                start: 0.0,
                step: 1.0,
            },
        );
        let b = p.array("b", 16, ArrayInit::Zero);
        p.kernel(Kernel {
            name: "copy".into(),
            dims: vec![16],
            accs: vec![],
            body: vec![Stmt::Store {
                access: unit_access(b),
                value: Expr::Load(unit_access(a)),
            }],
        });
        p.checksum_arrays.push(b);
        p.validate();
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn oob_access_caught() {
        let mut p = KernelProgram::new("t");
        let a = p.array("a", 8, ArrayInit::Zero);
        p.kernel(Kernel {
            name: "bad".into(),
            dims: vec![16],
            accs: vec![],
            body: vec![Stmt::Store {
                access: unit_access(a),
                value: Expr::Const(0.0),
            }],
        });
        p.validate();
    }

    #[test]
    #[should_panic(expected = "used before def")]
    fn temp_use_before_def_caught() {
        let mut p = KernelProgram::new("t");
        let a = p.array("a", 8, ArrayInit::Zero);
        p.kernel(Kernel {
            name: "bad".into(),
            dims: vec![8],
            accs: vec![],
            body: vec![Stmt::Store {
                access: unit_access(a),
                value: Expr::Temp(TempId(0)),
            }],
        });
        p.validate();
    }

    #[test]
    fn stencil_bounds() {
        let mut p = KernelProgram::new("t");
        let a = p.array("a", 18, ArrayInit::Zero);
        let b = p.array("b", 18, ArrayInit::Zero);
        // 16-wide loop reading a[i], a[i+1], a[i+2]: touches 0..17 -> fits 18.
        p.kernel(Kernel {
            name: "stencil".into(),
            dims: vec![16],
            accs: vec![],
            body: vec![Stmt::Store {
                access: Access {
                    arr: b,
                    strides: vec![1],
                    offset: 1,
                },
                value: Expr::add(
                    Expr::Load(Access {
                        arr: a,
                        strides: vec![1],
                        offset: 0,
                    }),
                    Expr::Load(Access {
                        arr: a,
                        strides: vec![1],
                        offset: 2,
                    }),
                ),
            }],
        });
        p.validate();
    }

    #[test]
    fn init_value_forms() {
        let lin = ArrayDecl {
            name: "l".into(),
            len: 4,
            init: ArrayInit::Linear {
                start: 1.0,
                step: 0.5,
            },
        };
        assert_eq!(init_values(&lin), vec![1.0, 1.5, 2.0, 2.5]);
        let fill = ArrayDecl {
            name: "f".into(),
            len: 3,
            init: ArrayInit::Fill(7.0),
        };
        assert_eq!(init_values(&fill), vec![7.0; 3]);
    }
}
