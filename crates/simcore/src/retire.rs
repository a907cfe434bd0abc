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

/// Everything an analysis pass needs to know about one retired instruction.
///
/// The ISA back-ends construct this during execution; zero registers
/// (RISC-V `x0`, AArch64 `xzr`/`wzr`) are *omitted* from `srcs`/`dsts`, so
/// dependency analyses see critical-path breaks through them for free —
/// matching the paper's handling ("the zero register for each ISA always
/// reads zero").
///
/// The record is 64 bytes. Memory accesses live inline in two slots that
/// reads and writes share, reads first: no instruction in either ISA
/// subset, and no fused pair, performs more than two accesses in total
/// (an AMO is one read and one write, `ldp`/`stp` one 16-byte access). A
/// third access panics. Unused slots stay zeroed, so the derived
/// `PartialEq` compares only what was recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RetiredInst {
    /// Architectural registers read (zero registers omitted).
    pub srcs: RegSet,
    /// Architectural registers written (zero registers omitted).
    pub dsts: RegSet,
    /// PC the instruction was fetched from.
    pub pc: u64,
    /// Access addresses: `n_reads` reads, then `n_writes` writes.
    addrs: [u64; 2],
    /// Access widths in bytes, slot for slot with `addrs`.
    sizes: [u8; 2],
    n_reads: u8,
    n_writes: u8,
    /// Latency/issue classification.
    pub group: InstGroup,
    /// Whether this is a control-flow instruction.
    pub is_branch: bool,
    /// For branches: whether the branch was taken.
    pub taken: bool,
}

/// Memory accesses a [`RetiredInst`] can hold, reads and writes together.
pub const MAX_MEM_ACCESSES: usize = 2;

impl RetiredInst {
    /// A blank record for `pc`; back-ends fill in the rest.
    pub fn new(pc: u64, group: InstGroup) -> Self {
        RetiredInst {
            srcs: RegSet::empty(),
            dsts: RegSet::empty(),
            pc,
            addrs: [0; 2],
            sizes: [0; 2],
            n_reads: 0,
            n_writes: 0,
            group,
            is_branch: false,
            taken: false,
        }
    }

    #[inline]
    fn slots(&self, range: std::ops::Range<usize>) -> impl ExactSizeIterator<Item = MemAccess> {
        let (addrs, sizes) = (self.addrs, self.sizes);
        range.map(move |i| MemAccess {
            addr: addrs[i],
            size: sizes[i],
        })
    }

    /// Memory locations read, in the order they were recorded.
    #[inline]
    pub fn mem_reads(&self) -> impl ExactSizeIterator<Item = MemAccess> {
        self.slots(0..self.n_reads as usize)
    }

    /// Memory locations written, in the order they were recorded.
    #[inline]
    pub fn mem_writes(&self) -> impl ExactSizeIterator<Item = MemAccess> {
        let r = self.n_reads as usize;
        self.slots(r..r + self.n_writes as usize)
    }

    /// Every memory access: the reads, then the writes.
    #[inline]
    pub fn mem_accesses(&self) -> impl ExactSizeIterator<Item = MemAccess> {
        self.slots(0..(self.n_reads + self.n_writes) as usize)
    }

    /// The static part of the accesses: the widths slot for slot (zero
    /// past the last access), the read count and the write count, as
    /// [`RetiredInst::set_accesses`] takes them.
    #[inline]
    pub fn access_shape(&self) -> ([u8; 2], u8, u8) {
        (self.sizes, self.n_reads, self.n_writes)
    }

    /// Record a memory read; panics past [`MAX_MEM_ACCESSES`] accesses.
    #[inline]
    pub fn push_read(&mut self, addr: u64, size: u8) {
        let r = self.n_reads as usize;
        self.check_capacity();
        // Reads come first: a write already recorded moves up a slot.
        if self.n_writes == 1 {
            self.addrs[1] = self.addrs[0];
            self.sizes[1] = self.sizes[0];
        }
        self.addrs[r] = addr;
        self.sizes[r] = size;
        self.n_reads += 1;
    }

    /// Record a memory write; panics past [`MAX_MEM_ACCESSES`] accesses.
    #[inline]
    pub fn push_write(&mut self, addr: u64, size: u8) {
        let n = (self.n_reads + self.n_writes) as usize;
        self.check_capacity();
        self.addrs[n] = addr;
        self.sizes[n] = size;
        self.n_writes += 1;
    }

    #[inline]
    fn check_capacity(&self) {
        if (self.n_reads + self.n_writes) as usize >= MAX_MEM_ACCESSES {
            panic!("RetiredInst memory access capacity exceeded");
        }
    }

    /// Replace every memory access at once: `n_reads` reads in the first
    /// slots, then `n_writes` writes. Slots past the last access must be
    /// zero. This is the trace decoder's path: it builds the accesses in
    /// locals and stores them once, instead of pushing one at a time.
    #[inline]
    pub fn set_accesses(&mut self, addrs: [u64; 2], sizes: [u8; 2], n_reads: u8, n_writes: u8) {
        let n = n_reads as usize + n_writes as usize;
        assert!(
            n <= MAX_MEM_ACCESSES,
            "RetiredInst memory access capacity exceeded"
        );
        // Checked in debug builds only: as an `assert!` it slowed trace
        // decode by about 30%.
        debug_assert!(
            (n..MAX_MEM_ACCESSES).all(|i| addrs[i] == 0 && sizes[i] == 0),
            "unused access slots must be zero"
        );
        self.addrs = addrs;
        self.sizes = sizes;
        self.n_reads = n_reads;
        self.n_writes = n_writes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acc(addr: u64, size: u8) -> MemAccess {
        MemAccess { addr, size }
    }

    #[test]
    fn record_is_64_bytes() {
        assert_eq!(std::mem::size_of::<RetiredInst>(), 64);
    }

    #[test]
    fn writes_keep_insertion_order() {
        let mut ri = RetiredInst::new(0, InstGroup::Store);
        ri.push_write(0x108, 8);
        ri.push_write(0x100, 8);
        assert_eq!(ri.mem_reads().len(), 0);
        let v: Vec<MemAccess> = ri.mem_writes().collect();
        assert_eq!(v, vec![acc(0x108, 8), acc(0x100, 8)]);
        assert_eq!(ri.mem_accesses().collect::<Vec<_>>(), v);
    }

    #[test]
    fn reads_keep_insertion_order() {
        let mut ri = RetiredInst::new(0, InstGroup::Load);
        ri.push_read(0x108, 4);
        ri.push_read(0x100, 8);
        let v: Vec<MemAccess> = ri.mem_reads().collect();
        assert_eq!(v, vec![acc(0x108, 4), acc(0x100, 8)]);
        assert_eq!(ri.mem_writes().len(), 0);
    }

    #[test]
    fn write_then_read_equals_read_then_write() {
        let mut wr = RetiredInst::new(0x40, InstGroup::Atomic);
        wr.push_write(0x200, 4);
        wr.push_read(0x100, 8);
        let mut rw = RetiredInst::new(0x40, InstGroup::Atomic);
        rw.push_read(0x100, 8);
        rw.push_write(0x200, 4);
        assert_eq!(wr, rw);
        assert_eq!(wr.mem_reads().collect::<Vec<_>>(), vec![acc(0x100, 8)]);
        assert_eq!(wr.mem_writes().collect::<Vec<_>>(), vec![acc(0x200, 4)]);
        let mut built = RetiredInst::new(0x40, InstGroup::Atomic);
        built.set_accesses([0x100, 0x200], [8, 4], 1, 1);
        assert_eq!(built, rw);
    }

    #[test]
    fn unused_slots_stay_zeroed() {
        // One access leaves the second slot zero, so the record equals one
        // built with an explicit zero slot; a read never equals a write.
        let mut read = RetiredInst::new(0, InstGroup::Load);
        read.push_read(0x100, 8);
        let mut built = RetiredInst::new(0, InstGroup::Load);
        built.set_accesses([0x100, 0], [8, 0], 1, 0);
        assert_eq!(read, built);
        let mut write = RetiredInst::new(0, InstGroup::Load);
        write.push_write(0x100, 8);
        assert_ne!(read, write);
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
    #[should_panic(expected = "capacity exceeded")]
    fn a_third_read_panics() {
        let mut ri = RetiredInst::new(0, InstGroup::Load);
        ri.push_read(0, 1);
        ri.push_read(1, 1);
        ri.push_read(2, 1);
    }

    #[test]
    #[should_panic(expected = "capacity exceeded")]
    fn a_third_access_of_any_kind_panics() {
        let mut ri = RetiredInst::new(0, InstGroup::Atomic);
        ri.push_read(0, 1);
        ri.push_write(1, 1);
        ri.push_write(2, 1);
    }

    #[test]
    #[should_panic(expected = "capacity exceeded")]
    fn setting_three_accesses_panics() {
        let mut ri = RetiredInst::new(0, InstGroup::Atomic);
        ri.set_accesses([0, 1], [1, 1], 2, 1);
    }

    #[test]
    #[should_panic(expected = "capacity exceeded")]
    fn setting_counts_that_wrap_a_byte_panics() {
        let mut ri = RetiredInst::new(0, InstGroup::Atomic);
        ri.set_accesses([0, 0], [0, 0], 255, 2);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "must be zero")]
    fn setting_a_nonzero_unused_slot_panics() {
        let mut ri = RetiredInst::new(0, InstGroup::Load);
        ri.set_accesses([0x100, 0x108], [8, 8], 1, 0);
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
            assert_eq!(
                g.code() as usize,
                i,
                "code must match ALL position for {g:?}"
            );
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
