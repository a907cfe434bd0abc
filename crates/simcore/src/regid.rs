//! Unified register-identifier space.
//!
//! Dependency analyses (critical path, windowed critical path) need a single
//! flat namespace covering both ISAs' architectural state: 32 integer
//! registers, 32 floating-point registers, and the AArch64 NZCV condition
//! flags (modelled as one extra slot, exactly as SimEng models condition
//! state as a register file entry). RISC-V has no flags register and simply
//! never references the slot.

/// Total number of slots in the unified register space.
///
/// Slots `0..32` are integer registers, `32..64` floating-point registers,
/// slot `64` is the condition-flags pseudo-register.
pub const NUM_REG_SLOTS: usize = 65;

/// A single architectural register in the unified namespace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RegId {
    /// Integer register `Xn` / `xn` (0..=31).
    Int(u8),
    /// Floating-point register `Dn` / `fn` (0..=31).
    Fp(u8),
    /// The NZCV condition flags (AArch64 only).
    Flags,
}

impl RegId {
    /// Flat index into `[_; NUM_REG_SLOTS]` tables.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            RegId::Int(n) => {
                debug_assert!(n < 32);
                n as usize
            }
            RegId::Fp(n) => {
                debug_assert!(n < 32);
                32 + n as usize
            }
            RegId::Flags => 64,
        }
    }

    /// Inverse of [`RegId::index`].
    #[inline]
    pub fn from_index(i: usize) -> RegId {
        match i {
            0..=31 => RegId::Int(i as u8),
            32..=63 => RegId::Fp((i - 32) as u8),
            64 => RegId::Flags,
            _ => panic!("register slot index {i} out of range"),
        }
    }
}

impl std::fmt::Display for RegId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegId::Int(n) => write!(f, "x{n}"),
            RegId::Fp(n) => write!(f, "f{n}"),
            RegId::Flags => write!(f, "nzcv"),
        }
    }
}

/// A set of registers, stored as a 128-bit bitmask over [`RegId::index`].
///
/// Building the source/destination sets of a retired instruction must not
/// allocate (the emulator retires tens of millions of instructions per
/// analysis run), so this is a plain `u128`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct RegSet(u128);

impl RegSet {
    /// The empty set.
    #[inline]
    pub const fn empty() -> Self {
        RegSet(0)
    }

    /// Insert a register into the set.
    #[inline]
    pub fn insert(&mut self, r: RegId) {
        self.0 |= 1u128 << r.index();
    }

    /// Set containing exactly the given registers.
    pub fn of(regs: &[RegId]) -> Self {
        let mut s = RegSet::empty();
        for &r in regs {
            s.insert(r);
        }
        s
    }

    /// Whether the set contains `r`.
    #[inline]
    pub fn contains(&self, r: RegId) -> bool {
        self.0 & (1u128 << r.index()) != 0
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Number of registers in the set.
    #[inline]
    pub fn len(&self) -> u32 {
        self.0.count_ones()
    }

    /// Iterate over the members in ascending slot order.
    #[inline]
    pub fn iter(&self) -> RegSetIter {
        RegSetIter(self.0)
    }

    /// Set union.
    #[inline]
    pub fn union(&self, other: RegSet) -> RegSet {
        RegSet(self.0 | other.0)
    }
}

impl FromIterator<RegId> for RegSet {
    fn from_iter<T: IntoIterator<Item = RegId>>(iter: T) -> Self {
        let mut s = RegSet::empty();
        for r in iter {
            s.insert(r);
        }
        s
    }
}

/// Iterator over the members of a [`RegSet`].
pub struct RegSetIter(u128);

impl Iterator for RegSetIter {
    type Item = RegId;

    #[inline]
    fn next(&mut self) -> Option<RegId> {
        if self.0 == 0 {
            return None;
        }
        let i = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(RegId::from_index(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_round_trip() {
        for i in 0..NUM_REG_SLOTS {
            assert_eq!(RegId::from_index(i).index(), i);
        }
    }

    #[test]
    fn regset_basicops() {
        let mut s = RegSet::empty();
        assert!(s.is_empty());
        s.insert(RegId::Int(3));
        s.insert(RegId::Fp(0));
        s.insert(RegId::Flags);
        assert_eq!(s.len(), 3);
        assert!(s.contains(RegId::Int(3)));
        assert!(!s.contains(RegId::Int(4)));
        let members: Vec<RegId> = s.iter().collect();
        assert_eq!(members, vec![RegId::Int(3), RegId::Fp(0), RegId::Flags]);
    }

    #[test]
    fn regset_union() {
        let a = RegSet::of(&[RegId::Int(1)]);
        let b = RegSet::of(&[RegId::Int(2), RegId::Flags]);
        let u = a.union(b);
        assert_eq!(u.len(), 3);
    }

    #[test]
    fn display_forms() {
        assert_eq!(RegId::Int(5).to_string(), "x5");
        assert_eq!(RegId::Fp(31).to_string(), "f31");
        assert_eq!(RegId::Flags.to_string(), "nzcv");
    }
}
