//! The dependency model every critical-path analysis folds over — the
//! paper's §4 "array to maintain the critical path length to the value
//! held in each register, and a map to keep track of path lengths for each
//! memory address", stated once:
//!
//! * registers are the [`NUM_REG_SLOTS`] slots of the unified namespace;
//!   zero registers are already absent from `srcs`/`dsts`, so they never
//!   carry a dependency;
//! * memory is tracked in 8-byte words ([`crate::MemAccess::words`]); a
//!   sub-word access conservatively merges over every word it touches;
//! * an instruction's sources are read before its destinations are
//!   written, so one that reads and writes the same location depends on
//!   the location's previous writer, never on itself.
//!
//! [`DepTable`] keeps one value per location, taken from the location's
//! last writer: a chain depth, a ready cycle, or the writer's retirement
//! index. Memory values live in 4 KiB pages of a [`PageMap`], the same
//! cached page map guest memory uses. Guest data is dense, so a word costs
//! one slot of its page rather than a hash entry, and most lookups hit the
//! map's cache without hashing at all.

use crate::pages::PageMap;
use crate::regid::NUM_REG_SLOTS;
use crate::retire::RetiredInst;

/// Words per page of the memory table: 4 KiB of guest memory.
const PAGE_WORDS: usize = 512;

/// One page of memory values.
type Page<V> = [Option<V>; PAGE_WORDS];

/// One value per register slot and per written 8-byte memory word.
#[derive(Debug, Clone)]
pub struct DepTable<V> {
    regs: [Option<V>; NUM_REG_SLOTS],
    /// Memory values in pages of [`PAGE_WORDS`] words, keyed by page
    /// number.
    pages: PageMap<Page<V>>,
}

impl<V: Copy> DepTable<V> {
    /// An empty table: no location written yet.
    pub fn new() -> Self {
        DepTable {
            regs: [None; NUM_REG_SLOTS],
            pages: PageMap::new(),
        }
    }

    /// Fold `f` over the value of every location `ri` reads that has been
    /// written: each source register slot, then each word of each memory
    /// read.
    #[inline]
    pub fn fold_reads<A>(&self, ri: &RetiredInst, init: A, mut f: impl FnMut(A, V) -> A) -> A {
        let mut acc = init;
        for r in ri.srcs.iter() {
            if let Some(v) = self.regs[r.index()] {
                acc = f(acc, v);
            }
        }
        for a in ri.mem_reads() {
            for w in a.words() {
                if let Some(v) = self.pages.get(page(w)).and_then(|p| p[slot(w)]) {
                    acc = f(acc, v);
                }
            }
        }
        acc
    }

    /// Make `v` the value of every location `ri` writes. Call it after
    /// [`DepTable::fold_reads`] for the same instruction.
    #[inline]
    pub fn write(&mut self, ri: &RetiredInst, v: V) {
        for r in ri.dsts.iter() {
            self.regs[r.index()] = Some(v);
        }
        for a in ri.mem_writes() {
            for w in a.words() {
                self.pages.get_or_insert_with(page(w), empty_page)[slot(w)] = Some(v);
            }
        }
    }

    /// Rewrite with `f` the value of every location `ri` writes that holds
    /// one. A word two of `ri`'s accesses share is handed to `f` twice.
    #[inline]
    pub fn update(&mut self, ri: &RetiredInst, mut f: impl FnMut(&mut V)) {
        for r in ri.dsts.iter() {
            if let Some(v) = &mut self.regs[r.index()] {
                f(v);
            }
        }
        for a in ri.mem_writes() {
            for w in a.words() {
                if let Some(v) = self
                    .pages
                    .get_mut(page(w))
                    .and_then(|p| p[slot(w)].as_mut())
                {
                    f(v);
                }
            }
        }
    }

    /// Rewrite with `f` every value the table holds, register and word.
    pub fn update_all(&mut self, mut f: impl FnMut(&mut V)) {
        self.regs.iter_mut().flatten().for_each(&mut f);
        self.pages.retain(|page| {
            page.iter_mut().flatten().for_each(&mut f);
            true
        });
    }

    /// Forget every memory word whose value fails `keep`, and free the
    /// pages left empty; a later read of such a word finds no writer.
    pub fn retain_words(&mut self, mut keep: impl FnMut(V) -> bool) {
        self.pages.retain(|page| {
            for v in page.iter_mut() {
                *v = v.filter(|&v| keep(v));
            }
            page.iter().any(Option::is_some)
        });
    }
}

/// Number of the page holding word `w`.
#[inline]
fn page(w: u64) -> u64 {
    w / PAGE_WORDS as u64
}

/// Index of word `w` within its page.
#[inline]
fn slot(w: u64) -> usize {
    (w % PAGE_WORDS as u64) as usize
}

/// A page no word of which has been written, built on the heap.
fn empty_page<V: Copy>() -> Box<Page<V>> {
    vec![None; PAGE_WORDS]
        .into_boxed_slice()
        .try_into()
        .unwrap_or_else(|_| unreachable!("the page has PAGE_WORDS words"))
}

impl<V: Copy> Default for DepTable<V> {
    fn default() -> Self {
        DepTable::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regid::{RegId, RegSet};
    use crate::retire::InstGroup;
    use std::collections::HashMap;

    fn reads(t: &DepTable<u64>, ri: &RetiredInst) -> Vec<u64> {
        t.fold_reads(ri, Vec::new(), |mut v, x| {
            v.push(x);
            v
        })
    }

    fn inst(srcs: &[RegId], dsts: &[RegId]) -> RetiredInst {
        let mut ri = RetiredInst::new(0, InstGroup::IntAlu);
        ri.srcs = RegSet::of(srcs);
        ri.dsts = RegSet::of(dsts);
        ri
    }

    #[test]
    fn unwritten_locations_read_nothing() {
        let t: DepTable<u64> = DepTable::new();
        let mut ri = inst(&[RegId::Int(1), RegId::Fp(2)], &[]);
        ri.push_read(0x100, 8);
        assert!(reads(&t, &ri).is_empty());
    }

    #[test]
    fn registers_then_words_in_order() {
        let mut t = DepTable::new();
        let mut w = inst(&[], &[RegId::Int(3), RegId::Flags]);
        w.push_write(0x100, 16);
        t.write(&w, 7u64);
        let mut r = inst(&[RegId::Flags, RegId::Int(3), RegId::Int(4)], &[]);
        r.push_read(0x10c, 8); // second and third words; only the second was written
        assert_eq!(reads(&t, &r), vec![7, 7, 7]);
    }

    #[test]
    fn sub_word_accesses_merge_over_their_words() {
        let mut t = DepTable::new();
        let mut st = inst(&[], &[]);
        st.push_write(0x104, 4);
        t.write(&st, 1u64);
        let mut ld = inst(&[], &[]);
        ld.push_read(0x100, 1);
        assert_eq!(reads(&t, &ld), vec![1]);
    }

    #[test]
    fn accesses_cross_pages() {
        let mut t = DepTable::new();
        let mut st = inst(&[], &[]);
        st.push_write(4 * 1024 - 4, 8); // last word of page 0, first of page 1
        t.write(&st, 3u64);
        let mut ld = inst(&[], &[]);
        ld.push_read(4 * 1024, 16);
        assert_eq!(reads(&t, &ld), vec![3]);
        assert_eq!(t.pages.len(), 2);
    }

    #[test]
    fn update_rewrites_only_what_was_written() {
        let mut t = DepTable::new();
        let mut w = inst(&[], &[RegId::Int(1), RegId::Int(2)]);
        w.push_write(0x104, 8); // two words
        t.write(&w, 1u64);
        let mut later = inst(&[], &[RegId::Int(2)]);
        later.push_write(0x108, 4);
        t.write(&later, 2u64);
        // Rewrite the locations `w` still holds; `later` took the rest.
        t.update(&w, |v| {
            if *v == 1 {
                *v = 9;
            }
        });
        let mut r = inst(&[RegId::Int(1), RegId::Int(2), RegId::Int(3)], &[]);
        r.push_read(0x100, 16);
        assert_eq!(reads(&t, &r), vec![9, 2, 9, 2]);
        // A write set over unwritten locations finds nothing to rewrite.
        let mut fresh = inst(&[], &[RegId::Int(4)]);
        fresh.push_write(0x9000, 8);
        t.update(&fresh, |_| panic!("no value held"));
    }

    #[test]
    fn retain_words_forgets_memory_only() {
        let mut t = DepTable::new();
        let mut w = inst(&[], &[RegId::Int(1)]);
        w.push_write(0x0, 8);
        t.write(&w, 5u64);
        t.retain_words(|v| v > 5);
        assert!(t.pages.is_empty(), "a page left empty is freed");
        let mut r = inst(&[RegId::Int(1)], &[]);
        r.push_read(0x0, 8);
        assert_eq!(reads(&t, &r), vec![5]);
    }

    /// Byte address of word `word` of a page that shares its lookup-cache
    /// entry with every other `k`.
    fn aliasing(k: u64, word: u64) -> u64 {
        ((3 + k * crate::pages::CACHE_ENTRIES as u64) * PAGE_WORDS as u64 + word) * 8
    }

    fn load(addr: u64) -> RetiredInst {
        let mut ri = inst(&[], &[]);
        ri.push_read(addr, 8);
        ri
    }

    fn store(addr: u64) -> RetiredInst {
        let mut ri = inst(&[], &[]);
        ri.push_write(addr, 8);
        ri
    }

    #[test]
    fn retain_words_frees_a_cached_page() {
        let mut t = DepTable::new();
        t.write(&store(aliasing(0, 1)), 1u64);
        assert_eq!(reads(&t, &load(aliasing(0, 1))), vec![1], "now cached");
        t.retain_words(|_| false);
        assert!(reads(&t, &load(aliasing(0, 1))).is_empty());
    }

    #[test]
    fn a_reused_slot_leaks_no_old_values() {
        let mut t = DepTable::new();
        for w in 0..PAGE_WORDS as u64 {
            t.write(&store(aliasing(0, w)), 7u64);
        }
        t.retain_words(|_| false);
        // The freed slot takes a page aliasing the old one in the cache,
        // and then one that does not.
        for page in [aliasing(1, 0), 0x9_0000] {
            t.write(&store(page + 8), 2u64);
            for w in 0..PAGE_WORDS as u64 {
                let want = if w == 1 { vec![2] } else { vec![] };
                assert_eq!(reads(&t, &load(page + 8 * w)), want, "word {w}");
            }
            t.retain_words(|_| false);
        }
        assert!(reads(&t, &load(aliasing(0, 0))).is_empty());
    }

    #[derive(Debug, Clone)]
    enum Op {
        Read(u64),
        Write(u64, u8, u64),
        Bump(u64, u8),
        RetainAbove(u64),
    }

    fn op() -> impl proptest::prelude::Strategy<Value = Op> {
        use proptest::prelude::*;
        // Words of twenty pages aliasing one cache entry, plus one page
        // that does not; an access may straddle two words.
        let addr = (0u64..21, 0u64..(PAGE_WORDS as u64 * 8 - 16)).prop_map(|(k, off)| {
            if k == 20 {
                0x4000 + off
            } else {
                aliasing(k, 0) + off
            }
        });
        let size = prop_oneof![Just(1u8), Just(4), Just(8), Just(16)];
        prop_oneof![
            addr.clone().prop_map(Op::Read),
            (addr.clone(), size.clone(), 0u64..1000).prop_map(|(a, s, v)| Op::Write(a, s, v)),
            (addr, size).prop_map(|(a, s)| Op::Bump(a, s)),
            (0u64..1000).prop_map(Op::RetainAbove),
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]
        #[test]
        fn memory_words_match_a_plain_hash_map(
            ops in proptest::collection::vec(op(), 1..120)
        ) {
            let mut t: DepTable<u64> = DepTable::new();
            let mut model: HashMap<u64, u64> = HashMap::new();
            let words = |a: u64, s: u8| crate::MemAccess { addr: a, size: s }.words();
            for op in ops {
                match op {
                    Op::Read(a) => {
                        let mut ri = inst(&[], &[]);
                        ri.push_read(a, 8);
                        let want: Vec<u64> =
                            words(a, 8).filter_map(|w| model.get(&w).copied()).collect();
                        proptest::prop_assert_eq!(reads(&t, &ri), want);
                    }
                    Op::Write(a, s, v) => {
                        let mut ri = inst(&[], &[]);
                        ri.push_write(a, s);
                        t.write(&ri, v);
                        for w in words(a, s) {
                            model.insert(w, v);
                        }
                    }
                    Op::Bump(a, s) => {
                        let mut ri = inst(&[], &[]);
                        ri.push_write(a, s);
                        t.update(&ri, |v| *v += 1);
                        for w in words(a, s) {
                            if let Some(v) = model.get_mut(&w) {
                                *v += 1;
                            }
                        }
                    }
                    Op::RetainAbove(min) => {
                        t.retain_words(|v| v > min);
                        model.retain(|_, v| *v > min);
                    }
                }
            }
        }
    }
}
