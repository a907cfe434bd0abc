//! Loadable guest program images.
//!
//! The `kernelgen` assembler back-ends produce [`Program`]s: a set of
//! sections (text + data), an entry point, and a list of named code
//! [`Region`]s used by the per-kernel path-length breakdown of the paper's
//! Figure 1. This replaces SimEng's ELF loader — our "binaries" never leave
//! the process, so a raw section list is sufficient and keeps the loader
//! trivially correct.

use crate::error::SimError;
use crate::state::CpuState;

/// Which instruction set a program image targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IsaKind {
    /// RISC-V RV64G (RV64IMAFD).
    RiscV,
    /// AArch64 (Armv8-a scalar subset, `+nosimd`).
    AArch64,
}

impl std::fmt::Display for IsaKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IsaKind::RiscV => write!(f, "RISC-V"),
            IsaKind::AArch64 => write!(f, "AArch64"),
        }
    }
}

/// A contiguous chunk of the program image.
#[derive(Debug, Clone)]
pub struct Section {
    /// Load address.
    pub addr: u64,
    /// Raw bytes (text or data).
    pub bytes: Vec<u8>,
    /// Human-readable name (".text", ".data", ...).
    pub name: String,
}

/// A named PC range used to attribute retired instructions to source
/// kernels (half-open: `start <= pc < end`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Region {
    /// Kernel name as reported in Figure 1 (e.g. "copy", "triad").
    pub name: String,
    /// First PC of the region.
    pub start: u64,
    /// One past the last PC of the region.
    pub end: u64,
}

impl Region {
    /// Whether `pc` lies inside the region.
    #[inline]
    pub fn contains(&self, pc: u64) -> bool {
        pc >= self.start && pc < self.end
    }
}

/// A statically linked guest program image.
#[derive(Debug, Clone)]
pub struct Program {
    /// Target instruction set.
    pub isa: IsaKind,
    /// Entry-point PC.
    pub entry: u64,
    /// Initial stack pointer.
    pub initial_sp: u64,
    /// Sections to map before execution.
    pub sections: Vec<Section>,
    /// Named kernel regions for per-kernel attribution.
    pub regions: Vec<Region>,
}

impl Program {
    /// Default stack top used when a program does not specify one.
    pub const DEFAULT_STACK_TOP: u64 = 0x7FFF_F000;

    /// Create an empty program targeting `isa`.
    pub fn new(isa: IsaKind) -> Self {
        Program {
            isa,
            entry: 0,
            initial_sp: Self::DEFAULT_STACK_TOP,
            sections: Vec::new(),
            regions: Vec::new(),
        }
    }

    /// Map all sections into `state`'s memory, set the entry PC and stack
    /// pointer (`x2` on RISC-V, `x31`-as-SP on AArch64 — the loader sets
    /// both; each ISA only reads its own).
    pub fn load(&self, state: &mut CpuState) -> Result<(), SimError> {
        for s in &self.sections {
            state.mem.write_bytes(s.addr, &s.bytes)?;
        }
        state.pc = self.entry;
        state.x[2] = self.initial_sp; // RISC-V sp
        state.x[31] = self.initial_sp; // AArch64 SP
                                       // Pre-touch the top stack page so the first frame's loads are mapped.
        state.mem.write_u64(self.initial_sp - 8, 0)?;
        Ok(())
    }

    /// Total size in bytes of all sections.
    pub fn image_size(&self) -> usize {
        self.sections.iter().map(|s| s.bytes.len()).sum()
    }

    /// Find the region containing `pc`, if any.
    pub fn region_of(&self, pc: u64) -> Option<&Region> {
        self.regions.iter().find(|r| r.contains(pc))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_maps_sections_and_entry() {
        let mut p = Program::new(IsaKind::RiscV);
        p.entry = 0x1_0000;
        p.sections.push(Section {
            addr: 0x1_0000,
            bytes: vec![0x13, 0, 0, 0], // nop (addi x0,x0,0)
            name: ".text".into(),
        });
        let mut st = CpuState::new();
        p.load(&mut st).unwrap();
        assert_eq!(st.pc, 0x1_0000);
        assert_eq!(st.mem.read_u32(0x1_0000).unwrap(), 0x13);
        assert_eq!(st.x[2], Program::DEFAULT_STACK_TOP);
    }

    #[test]
    fn region_lookup() {
        let mut p = Program::new(IsaKind::AArch64);
        p.regions.push(Region {
            name: "copy".into(),
            start: 0x100,
            end: 0x140,
        });
        p.regions.push(Region {
            name: "scale".into(),
            start: 0x140,
            end: 0x180,
        });
        assert_eq!(p.region_of(0x100).unwrap().name, "copy");
        assert_eq!(p.region_of(0x13C).unwrap().name, "copy");
        assert_eq!(p.region_of(0x140).unwrap().name, "scale");
        assert!(p.region_of(0x80).is_none());
    }
}
