//! The retirement record handed to analysis observers.

use crate::regid::RegSet;

/// Coarse instruction classification used by latency models.
///
/// These mirror the instruction groups SimEng's yaml core descriptions
/// attach execution latencies to; `uarch::Tx2LatencyModel` assigns the
/// ThunderX2-derived cycle counts the paper's scaled-critical-path
/// experiment uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum InstGroup {
    /// Integer add/sub/move/compare and address generation.
    IntAlu,
    /// Integer multiply (including multiply-add).
    IntMul,
    /// Integer divide / remainder.
    IntDiv,
    /// Shifts and rotates.
    Shift,
    /// Bitwise logical operations and bit manipulation.
    Logical,
    /// Conditional and unconditional branches, calls, returns.
    Branch,
    /// Memory loads.
    Load,
    /// Memory stores.
    Store,
    /// FP add/sub/compare-free arithmetic of additive latency class.
    FpAdd,
    /// FP multiply.
    FpMul,
    /// Fused multiply-add family.
    FpFma,
    /// FP divide.
    FpDiv,
    /// FP square root.
    FpSqrt,
    /// FP compares.
    FpCmp,
    /// FP <-> integer conversions and rounding.
    FpCvt,
    /// Register moves between FP and integer files or within the FP file.
    FpMove,
    /// Atomic read-modify-write operations.
    Atomic,
    /// Traps, fences, hints, system instructions.
    System,
}

impl InstGroup {
    /// All groups, useful for exhaustive latency tables and property tests.
    pub const ALL: [InstGroup; 18] = [
        InstGroup::IntAlu,
        InstGroup::IntMul,
        InstGroup::IntDiv,
        InstGroup::Shift,
        InstGroup::Logical,
        InstGroup::Branch,
        InstGroup::Load,
        InstGroup::Store,
        InstGroup::FpAdd,
        InstGroup::FpMul,
        InstGroup::FpFma,
        InstGroup::FpDiv,
        InstGroup::FpSqrt,
        InstGroup::FpCmp,
        InstGroup::FpCvt,
        InstGroup::FpMove,
        InstGroup::Atomic,
        InstGroup::System,
    ];

    /// Stable single-byte wire code (the group's position in
    /// [`InstGroup::ALL`]) used by the binary trace format.
    #[inline]
    pub fn code(self) -> u8 {
        match self {
            InstGroup::IntAlu => 0,
            InstGroup::IntMul => 1,
            InstGroup::IntDiv => 2,
            InstGroup::Shift => 3,
            InstGroup::Logical => 4,
            InstGroup::Branch => 5,
            InstGroup::Load => 6,
            InstGroup::Store => 7,
            InstGroup::FpAdd => 8,
            InstGroup::FpMul => 9,
            InstGroup::FpFma => 10,
            InstGroup::FpDiv => 11,
            InstGroup::FpSqrt => 12,
            InstGroup::FpCmp => 13,
            InstGroup::FpCvt => 14,
            InstGroup::FpMove => 15,
            InstGroup::Atomic => 16,
            InstGroup::System => 17,
        }
    }

    /// Inverse of [`InstGroup::code`]; `None` for bytes outside the table
    /// (a corrupt or future-versioned trace).
    #[inline]
    pub fn from_code(code: u8) -> Option<InstGroup> {
        InstGroup::ALL.get(code as usize).copied()
    }

    /// Whether the group executes in a floating-point pipe.
    pub fn is_fp(self) -> bool {
        matches!(
            self,
            InstGroup::FpAdd
                | InstGroup::FpMul
                | InstGroup::FpFma
                | InstGroup::FpDiv
                | InstGroup::FpSqrt
                | InstGroup::FpCmp
                | InstGroup::FpCvt
                | InstGroup::FpMove
        )
    }
}

/// One contiguous memory access performed by an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// Guest byte address of the first byte accessed.
    pub addr: u64,
    /// Access width in bytes (1, 2, 4, 8, or 16 for pair accesses).
    pub size: u8,
}

impl MemAccess {
    /// The 8-byte words (`addr >> 3`) the access touches: the memory
    /// granularity of every dependency analysis. An unaligned access spans
    /// up to three words; a zero-width one counts as one byte.
    #[inline]
    pub fn words(self) -> std::ops::Range<u64> {
        (self.addr >> 3)..((self.addr + self.size.max(1) as u64 - 1) >> 3) + 1
    }
}

/// A fixed-capacity list of memory accesses (no instruction in either ISA
/// subset performs more than two).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemList {
    items: [Option<MemAccess>; 2],
}

impl MemList {
    /// The empty list.
    pub const fn empty() -> Self {
        MemList { items: [None, None] }
    }

    /// List with a single access.
    pub fn one(addr: u64, size: u8) -> Self {
        MemList {
            items: [Some(MemAccess { addr, size }), None],
        }
    }

    /// Append an access; panics if already full (capacity 2).
    pub fn push(&mut self, addr: u64, size: u8) {
        let a = MemAccess { addr, size };
        if self.items[0].is_none() {
            self.items[0] = Some(a);
        } else if self.items[1].is_none() {
            self.items[1] = Some(a);
        } else {
            panic!("MemList capacity exceeded");
        }
    }

    /// Iterate over the accesses.
    pub fn iter(&self) -> impl Iterator<Item = MemAccess> + '_ {
        self.items.iter().flatten().copied()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.items[0].is_none()
    }

    /// Number of accesses (0..=2).
    pub fn len(&self) -> usize {
        self.items.iter().flatten().count()
    }
}

/// Everything an analysis pass needs to know about one retired instruction.
///
/// The ISA back-ends construct this during execution; zero registers
/// (RISC-V `x0`, AArch64 `xzr`/`wzr`) are *omitted* from `srcs`/`dsts`, so
/// dependency analyses see critical-path breaks through them for free —
/// matching the paper's handling ("the zero register for each ISA always
/// reads zero").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetiredInst {
    /// PC the instruction was fetched from.
    pub pc: u64,
    /// Latency/issue classification.
    pub group: InstGroup,
    /// Architectural registers read (zero registers omitted).
    pub srcs: RegSet,
    /// Architectural registers written (zero registers omitted).
    pub dsts: RegSet,
    /// Memory locations read.
    pub mem_reads: MemList,
    /// Memory locations written.
    pub mem_writes: MemList,
    /// Whether this is a control-flow instruction.
    pub is_branch: bool,
    /// For branches: whether the branch was taken.
    pub taken: bool,
}

impl RetiredInst {
    /// A blank record for `pc`; back-ends fill in the rest.
    pub fn new(pc: u64, group: InstGroup) -> Self {
        RetiredInst {
            pc,
            group,
            srcs: RegSet::empty(),
            dsts: RegSet::empty(),
            mem_reads: MemList::empty(),
            mem_writes: MemList::empty(),
            is_branch: false,
            taken: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memlist_push_and_iter() {
        let mut l = MemList::empty();
        assert!(l.is_empty());
        l.push(0x100, 8);
        l.push(0x108, 8);
        assert_eq!(l.len(), 2);
        let v: Vec<MemAccess> = l.iter().collect();
        assert_eq!(v[0], MemAccess { addr: 0x100, size: 8 });
        assert_eq!(v[1], MemAccess { addr: 0x108, size: 8 });
    }

    #[test]
    fn access_words_cover_every_byte() {
        let words = |addr, size| MemAccess { addr, size }.words().collect::<Vec<_>>();
        assert_eq!(words(0x100, 8), vec![0x20]);
        assert_eq!(words(0x104, 4), vec![0x20]);
        assert_eq!(words(0x107, 2), vec![0x20, 0x21]);
        assert_eq!(words(0x10f, 16), vec![0x21, 0x22, 0x23]);
        assert_eq!(words(0x108, 0), vec![0x21]);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn memlist_overflow_panics() {
        let mut l = MemList::empty();
        l.push(0, 1);
        l.push(1, 1);
        l.push(2, 1);
    }

    #[test]
    fn groups_all_distinct() {
        let mut set = std::collections::BTreeSet::new();
        for g in InstGroup::ALL {
            assert!(set.insert(g));
        }
        assert_eq!(set.len(), InstGroup::ALL.len());
    }

    #[test]
    fn group_codes_round_trip() {
        for (i, g) in InstGroup::ALL.iter().enumerate() {
            assert_eq!(g.code() as usize, i, "code must match ALL position for {g:?}");
            assert_eq!(InstGroup::from_code(g.code()), Some(*g));
        }
        assert_eq!(InstGroup::from_code(InstGroup::ALL.len() as u8), None);
        assert_eq!(InstGroup::from_code(255), None);
    }

    #[test]
    fn fp_classification() {
        assert!(InstGroup::FpFma.is_fp());
        assert!(!InstGroup::IntMul.is_fp());
        assert!(!InstGroup::Load.is_fp());
    }
}
