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
//! index. Memory values live in 4 KiB pages found through a [`WordMap`]
//! keyed by page number. Guest data is dense, so a word costs one slot of
//! its page rather than a hash entry, and lookups hash a key the map holds
//! few of.

use crate::hash::WordMap;
use crate::regid::NUM_REG_SLOTS;
use crate::retire::RetiredInst;

/// Words per page of the memory table: 4 KiB of guest memory.
const PAGE_WORDS: u64 = 512;

/// One value per register slot and per written 8-byte memory word.
#[derive(Debug, Clone)]
pub struct DepTable<V> {
    regs: [Option<V>; NUM_REG_SLOTS],
    /// Memory values in pages of [`PAGE_WORDS`] words, keyed by page
    /// number.
    pages: WordMap<Box<[Option<V>]>>,
}

impl<V: Copy> DepTable<V> {
    /// An empty table: no location written yet.
    pub fn new() -> Self {
        DepTable {
            regs: [None; NUM_REG_SLOTS],
            pages: WordMap::default(),
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
                if let Some(v) = self.pages.get(&(w / PAGE_WORDS)).and_then(|p| p[slot(w)]) {
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
                let page = self.pages.entry(w / PAGE_WORDS);
                page.or_insert_with(|| vec![None; PAGE_WORDS as usize].into())[slot(w)] = Some(v);
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
                    .get_mut(&(w / PAGE_WORDS))
                    .and_then(|p| p[slot(w)].as_mut())
                {
                    f(v);
                }
            }
        }
    }

    /// Forget every memory word whose value fails `keep`, and free the
    /// pages left empty; a later read of such a word finds no writer.
    pub fn retain_words(&mut self, mut keep: impl FnMut(V) -> bool) {
        self.pages.retain(|_, page| {
            for v in page.iter_mut() {
                *v = v.filter(|&v| keep(v));
            }
            page.iter().any(Option::is_some)
        });
    }
}

/// Index of word `w` within its page.
#[inline]
fn slot(w: u64) -> usize {
    (w % PAGE_WORDS) as usize
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
}
