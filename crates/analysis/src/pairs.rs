//! The macro-op fusion pair tables: which adjacent retirements a fusing
//! front end retires as one macro-op, per ISA.
//!
//! Celio et al. ("The Renewed Case for RISC") argue RISC-V closes the
//! dynamic-instruction-count gap against denser ISAs via macro-op fusion.
//! The rules here are structural: a [`RetiredInst`] carries groups,
//! register sets and memory accesses but no opcodes (the on-disk trace
//! format carries exactly the same fields), so each rule matches the
//! dataflow shape of an idiom rather than its mnemonics. Both fusion
//! measurements read these tables: the fused form of the per-cell bundle
//! ([`crate::CellAnalyses::fused`]) and the merged-stream pass in the
//! `fusion` crate, which re-exports them.

use simcore::{IsaKind, MemAccess, RegId, RetiredInst};

/// A fusible adjacent pair, per ISA.
///
/// RISC-V kinds follow Celio et al.'s fusion tables; AArch64 kinds are the
/// pairs real Arm cores fuse (`cmp`+`b.cond`) or that a pair-forming front
/// end could combine (`ldp`/`stp` candidates the compiler left as two
/// instructions, `adrp`+`add` address formation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairKind {
    /// RISC-V `slli rd, rs, k` + `add rd', rs1, rd` — indexed address.
    RvShiftAdd,
    /// RISC-V `slli rd, rs, k` + load through `rd` — indexed load.
    RvShiftLoad,
    /// RISC-V `lui`/`auipc` + `addi` — 32-bit constant / address formation.
    RvLuiAddi,
    /// RISC-V `lui`/`auipc` + load through the formed address.
    RvLuiLoad,
    /// RISC-V compare-into-register + branch on that register.
    RvCmpBranch,
    /// AArch64 flag-setting op + conditional branch (`cmp` + `b.cond`).
    A64CmpBranch,
    /// AArch64 `adr`/`adrp`/`movz` + dependent `add` — address formation.
    A64AdrAdd,
    /// AArch64 adjacent same-size loads off one base — an `ldp` candidate.
    A64LoadPair,
    /// AArch64 adjacent same-size stores off one base — an `stp` candidate.
    A64StorePair,
}

impl PairKind {
    /// Every pair kind, RISC-V first, in table order.
    pub const ALL: [PairKind; 9] = [
        PairKind::RvShiftAdd,
        PairKind::RvShiftLoad,
        PairKind::RvLuiAddi,
        PairKind::RvLuiLoad,
        PairKind::RvCmpBranch,
        PairKind::A64CmpBranch,
        PairKind::A64AdrAdd,
        PairKind::A64LoadPair,
        PairKind::A64StorePair,
    ];

    /// Stable short name, used in tables, CSVs and JSON.
    pub fn name(self) -> &'static str {
        match self {
            PairKind::RvShiftAdd => "slli+add",
            PairKind::RvShiftLoad => "slli+ld",
            PairKind::RvLuiAddi => "lui+addi",
            PairKind::RvLuiLoad => "lui+ld",
            PairKind::RvCmpBranch => "cmp+branch",
            PairKind::A64CmpBranch => "cmp+b.cond",
            PairKind::A64AdrAdd => "adr+add",
            PairKind::A64LoadPair => "ldp-candidate",
            PairKind::A64StorePair => "stp-candidate",
        }
    }

    /// Position in [`PairKind::ALL`] (the enum is declared in table order).
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// The ISA whose fusion table this pair belongs to.
    pub fn isa(self) -> IsaKind {
        match self {
            PairKind::RvShiftAdd
            | PairKind::RvShiftLoad
            | PairKind::RvLuiAddi
            | PairKind::RvLuiLoad
            | PairKind::RvCmpBranch => IsaKind::RiscV,
            _ => IsaKind::AArch64,
        }
    }

    /// The register producer `p` writes purely for its partner: internal
    /// to the macro-op, so the merged record reads it from neither half.
    /// Load and store pairs have none.
    pub fn link(self, p: &RetiredInst) -> Option<RegId> {
        match self {
            PairKind::A64CmpBranch => Some(RegId::Flags),
            PairKind::A64LoadPair | PairKind::A64StorePair => None,
            _ => single_dst(p),
        }
    }
}

/// The producer's single destination register, if it has exactly one.
/// Every dead-intermediate rule hangs off this: the fused pair's linking
/// register must be unambiguous.
#[inline]
pub(crate) fn single_dst(ri: &RetiredInst) -> Option<RegId> {
    if ri.dsts.len() == 1 {
        ri.dsts.iter().next()
    } else {
        None
    }
}

/// True when the instruction touches no memory (pure register op).
#[inline]
fn no_mem(ri: &RetiredInst) -> bool {
    ri.mem_accesses().len() == 0
}

/// A `lui`/`auipc`/`adr`/`adrp`/`movz`-shaped producer: an IntAlu with no
/// register or memory sources — its result depends on nothing in flight,
/// so a consuming `addi`/`add`/load can fuse without stalling.
#[inline]
fn is_srcless_alu(ri: &RetiredInst) -> bool {
    ri.group == simcore::InstGroup::IntAlu && ri.srcs.is_empty() && no_mem(ri) && !ri.is_branch
}

/// Dead-intermediate shape: the consumer reads the producer's single
/// destination `d` *and* overwrites it, so the intermediate value never
/// escapes the pair and the fused macro-op needs no extra dest port.
#[inline]
fn consumes_and_kills(consumer: &RetiredInst, d: RegId) -> bool {
    consumer.srcs.contains(d) && consumer.dsts.contains(d)
}

/// Whether any rule in `isa`'s pair table could accept `ri` as the older
/// (producer) half of a pair. This is exactly the disjunction of the
/// producer-side conditions in [`recognise`] — an instruction failing it
/// cannot fuse regardless of what retires next, so a fusing analysis
/// resolves it at once instead of holding it back. Randomized equivalence
/// tests against a naive reference pairing pin that this shortcut never
/// changes a result.
#[inline]
pub fn can_produce(isa: IsaKind, ri: &RetiredInst) -> bool {
    use simcore::InstGroup::{IntAlu, Load, Shift, Store};
    if ri.is_branch {
        return false;
    }
    match isa {
        IsaKind::RiscV => {
            // Every RISC-V rule needs a register-only Shift/IntAlu with a
            // single non-flags destination.
            (ri.group == Shift || ri.group == IntAlu)
                && no_mem(ri)
                && matches!(single_dst(ri), Some(d) if d != RegId::Flags)
        }
        IsaKind::AArch64 => {
            ri.dsts.contains(RegId::Flags)
                || (ri.group == Load && mem_one(ri.mem_reads()).is_some())
                || (ri.group == Store && mem_one(ri.mem_writes()).is_some())
                || (is_srcless_alu(ri) && single_dst(ri).is_some())
        }
    }
}

/// Try to fuse `p` (older) with `c` (newer) under `isa`'s pair table.
/// Returns the recognised kind; rules are tried in table order and the
/// first match wins.
pub fn recognise(isa: IsaKind, p: &RetiredInst, c: &RetiredInst) -> Option<PairKind> {
    use simcore::InstGroup::{Branch, IntAlu, Load, Shift, Store};
    // A branch never produces: a branch closes the fusion window, so a
    // pair never spans a basic-block boundary.
    if p.is_branch {
        return None;
    }
    match isa {
        IsaKind::RiscV => {
            let d = single_dst(p)?;
            // RISC-V has no condition flags; a Flags-linked pair can only
            // appear in a malformed stream and must never fuse here.
            if d == RegId::Flags {
                return None;
            }
            if p.group == Shift && no_mem(p) && !c.is_branch && consumes_and_kills(c, d) {
                if c.group == IntAlu && no_mem(c) {
                    return Some(PairKind::RvShiftAdd);
                }
                if c.group == Load {
                    return Some(PairKind::RvShiftLoad);
                }
            }
            if is_srcless_alu(p) && !c.is_branch && consumes_and_kills(c, d) {
                if c.group == IntAlu && no_mem(c) {
                    return Some(PairKind::RvLuiAddi);
                }
                if c.group == Load {
                    return Some(PairKind::RvLuiLoad);
                }
            }
            // Compare-into-register + branch on exactly that register
            // (beqz/bnez shape — the pair Celio et al. fuse into one
            // compare-and-branch macro-op).
            if p.group == IntAlu
                && no_mem(p)
                && c.group == Branch
                && c.is_branch
                && c.srcs.len() == 1
                && c.srcs.contains(d)
            {
                return Some(PairKind::RvCmpBranch);
            }
            None
        }
        IsaKind::AArch64 => {
            // Flag-setting op + conditional branch reading the flags.
            if p.dsts.contains(RegId::Flags)
                && c.group == Branch
                && c.is_branch
                && c.srcs.contains(RegId::Flags)
            {
                return Some(PairKind::A64CmpBranch);
            }
            // Adjacent same-size accesses at contiguous addresses off the
            // same base registers: what `ldp`/`stp` would have encoded.
            // Checked before the single-destination rules — a store has no
            // destination register at all.
            if p.group == Load && c.group == Load {
                if let (Some(a), Some(b)) = (mem_one(p.mem_reads()), mem_one(c.mem_reads())) {
                    if a.size == b.size
                        && b.addr == a.addr + a.size as u64
                        && p.srcs == c.srcs
                        && p.dsts
                            .iter()
                            .all(|r| !c.srcs.contains(r) && !c.dsts.contains(r))
                    {
                        return Some(PairKind::A64LoadPair);
                    }
                }
            }
            if p.group == Store && c.group == Store {
                if let (Some(a), Some(b)) = (mem_one(p.mem_writes()), mem_one(c.mem_writes())) {
                    if a.size == b.size && b.addr == a.addr + a.size as u64 {
                        return Some(PairKind::A64StorePair);
                    }
                }
            }
            let d = single_dst(p)?;
            if is_srcless_alu(p)
                && c.group == IntAlu
                && no_mem(c)
                && !c.is_branch
                && consumes_and_kills(c, d)
            {
                return Some(PairKind::A64AdrAdd);
            }
            None
        }
    }
}

/// The only access of `accesses`, if there is exactly one.
#[inline]
fn mem_one(mut accesses: impl ExactSizeIterator<Item = MemAccess>) -> Option<MemAccess> {
    if accesses.len() == 1 {
        accesses.next()
    } else {
        None
    }
}
