//! A page-number map with a small lookup cache in front, shared by guest
//! memory ([`crate::Memory`]) and the dependency table
//! ([`crate::DepTable`]).
//!
//! Both are touched once or twice per retired instruction, and both keep
//! their data in 4 KiB pages. Pages live in a slab (`Vec<Box<P>>`) whose
//! slots a [`WordMap`] indexes by page number. In front of the index sits a
//! direct-mapped cache of [`CACHE_ENTRIES`] `(page number, slot)` pairs,
//! entry `page % CACHE_ENTRIES`: a guest loop streams through a few arrays,
//! its code and its stack, so most lookups hit it and never hash. The
//! entries are [`Cell`]s, so a `&self` lookup can fill one.
//!
//! An entry may also record that a page is absent. Two rules keep every
//! entry in agreement with the index:
//!
//! * a page is only ever added through [`PageMap::get_or_insert_with`],
//!   which writes the page's own entry;
//! * [`PageMap::retain`], the only way to remove pages, clears the whole
//!   cache. The slots it frees go on a free list and are reused, with a
//!   fresh page, by later insertions.

use std::cell::Cell;

use crate::hash::WordMap;

/// Entries in the lookup cache. A power of two, so the entry index is a
/// mask; 16 entries answer 95.6% of a `--size small` matrix's lookups and
/// 99.8% of a paper-scale STREAM cell's.
pub const CACHE_ENTRIES: usize = 16;

/// The slot an entry names for a page known to be absent.
const ABSENT: u32 = u32::MAX;

/// Pages of type `P` keyed by page number, behind a lookup cache.
#[derive(Clone)]
pub struct PageMap<P> {
    slab: Vec<Box<P>>,
    index: WordMap<u32>,
    /// Slots [`PageMap::retain`] freed, reused before the slab grows.
    free: Vec<u32>,
    /// `(page number, slot)` by `page % CACHE_ENTRIES`; the slot is
    /// [`ABSENT`] for a page the index does not hold.
    cache: [Cell<(u64, u32)>; CACHE_ENTRIES],
}

/// A cache row that matches no page: entry `i` holds a page number that
/// maps to another entry.
fn empty_cache() -> [Cell<(u64, u32)>; CACHE_ENTRIES] {
    std::array::from_fn(|i| Cell::new((i as u64 + 1, ABSENT)))
}

impl<P> PageMap<P> {
    /// An empty map.
    pub fn new() -> Self {
        PageMap {
            slab: Vec::new(),
            index: WordMap::default(),
            free: Vec::new(),
            cache: empty_cache(),
        }
    }

    /// Number of mapped pages.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when no page is mapped.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// The slot of `page`, if it is mapped.
    #[inline]
    fn slot(&self, page: u64) -> Option<usize> {
        let entry = &self.cache[page as usize % CACHE_ENTRIES];
        let (cached, slot) = entry.get();
        if cached != page {
            return self.miss(page, entry);
        }
        debug_assert_eq!(
            self.index.get(&page).copied(),
            (slot != ABSENT).then_some(slot),
            "cache entry for page {page:#x} disagrees with the index"
        );
        (slot != ABSENT).then_some(slot as usize)
    }

    /// Look `page` up in the index and remember the answer in `entry`.
    #[cold]
    fn miss(&self, page: u64, entry: &Cell<(u64, u32)>) -> Option<usize> {
        let slot = self.index.get(&page).copied().unwrap_or(ABSENT);
        entry.set((page, slot));
        (slot != ABSENT).then_some(slot as usize)
    }

    /// The page numbered `page`, if it is mapped.
    #[inline]
    pub fn get(&self, page: u64) -> Option<&P> {
        self.slot(page).map(|s| &*self.slab[s])
    }

    /// The page numbered `page` mutably, if it is mapped.
    #[inline]
    pub fn get_mut(&mut self, page: u64) -> Option<&mut P> {
        self.slot(page).map(|s| &mut *self.slab[s])
    }

    /// The page numbered `page`, mapping `make()` there first if it is
    /// absent.
    #[inline]
    pub fn get_or_insert_with(&mut self, page: u64, make: impl FnOnce() -> Box<P>) -> &mut P {
        let slot = match self.slot(page) {
            Some(s) => s,
            None => self.map(page, make()),
        };
        &mut self.slab[slot]
    }

    /// Map a page that is absent, reusing a freed slot when there is one.
    #[cold]
    fn map(&mut self, page: u64, bytes: Box<P>) -> usize {
        let slot = match self.free.pop() {
            Some(s) => {
                self.slab[s as usize] = bytes;
                s
            }
            None => {
                self.slab.push(bytes);
                u32::try_from(self.slab.len() - 1)
                    .ok()
                    .filter(|&s| s != ABSENT)
                    .expect("page map slab outgrew its u32 slots")
            }
        };
        self.index.insert(page, slot);
        self.cache[page as usize % CACHE_ENTRIES].set((page, slot));
        slot as usize
    }

    /// Keep only the pages for which `keep` returns true. `keep` may also
    /// rewrite a page it keeps. A removed page's slot is freed for reuse,
    /// and the lookup cache is cleared.
    pub fn retain(&mut self, mut keep: impl FnMut(&mut P) -> bool) {
        let (slab, free) = (&mut self.slab, &mut self.free);
        self.index.retain(|_, &mut slot| {
            let kept = keep(&mut slab[slot as usize]);
            if !kept {
                free.push(slot);
            }
            kept
        });
        self.cache = empty_cache();
    }

    /// Every mapped page as `(page number, page)`, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &P)> {
        self.index
            .iter()
            .map(|(&page, &slot)| (page, &*self.slab[slot as usize]))
    }
}

impl<P> Default for PageMap<P> {
    fn default() -> Self {
        PageMap::new()
    }
}

impl<P> std::fmt::Debug for PageMap<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageMap")
            .field("pages", &self.len())
            .field("free_slots", &self.free.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn page(v: u64) -> Box<u64> {
        Box::new(v)
    }

    #[test]
    fn pages_aliasing_one_entry_stay_distinct() {
        let mut m = PageMap::new();
        // Pages 3, 19, 35, ... all share cache entry 3.
        let pages: Vec<u64> = (0..40).map(|k| 3 + k * CACHE_ENTRIES as u64).collect();
        for &p in &pages {
            *m.get_or_insert_with(p, || page(0)) = p * 10;
        }
        for &p in pages.iter().rev().chain(&pages) {
            assert_eq!(m.get(p), Some(&(p * 10)));
        }
        assert_eq!(m.get(3 + 40 * CACHE_ENTRIES as u64), None);
        assert_eq!(m.len(), pages.len());
    }

    #[test]
    fn an_absent_answer_is_forgotten_when_the_page_is_mapped() {
        let mut m = PageMap::new();
        assert_eq!(m.get(7), None, "caches that page 7 is absent");
        m.get_or_insert_with(7, || page(1));
        assert_eq!(m.get(7), Some(&1));
        assert_eq!(m.get(7 + CACHE_ENTRIES as u64), None);
        *m.get_or_insert_with(7 + CACHE_ENTRIES as u64, || page(2)) += 1;
        assert_eq!(m.get(7 + CACHE_ENTRIES as u64), Some(&3));
        assert_eq!(m.get(7), Some(&1));
    }

    #[test]
    fn retain_frees_cached_pages_and_reuses_their_slots() {
        let mut m = PageMap::new();
        for p in 0..4 {
            m.get_or_insert_with(p, || page(p));
            assert_eq!(m.get(p), Some(&p));
        }
        m.retain(|v| *v % 2 == 0);
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(1), None, "a freed page is gone from the cache too");
        assert_eq!(m.get(3), None);
        // The freed slots take new pages, which start from `make()`.
        *m.get_or_insert_with(17, || page(0)) += 5;
        *m.get_or_insert_with(33, || page(0)) += 6;
        assert_eq!(m.slab.len(), 4, "no slot was added");
        let mut all: Vec<(u64, u64)> = m.iter().map(|(p, v)| (p, *v)).collect();
        all.sort_unstable();
        assert_eq!(all, vec![(0, 0), (2, 2), (17, 5), (33, 6)]);
    }

    #[derive(Debug, Clone)]
    enum Op {
        Get(u64),
        Add(u64, u64),
        Set(u64, u64),
        RetainBelow(u64),
    }

    fn op() -> impl Strategy<Value = Op> {
        // Few pages, most of them aliasing in the cache, so entries are
        // evicted, refilled and invalidated all the time.
        let page = || (0u64..6).prop_map(|k| (k % 3) + (k / 3) * 7 * CACHE_ENTRIES as u64);
        prop_oneof![
            page().prop_map(Op::Get),
            (page(), 1u64..100).prop_map(|(p, v)| Op::Add(p, v)),
            (page(), 0u64..100).prop_map(|(p, v)| Op::Set(p, v)),
            (0u64..200).prop_map(Op::RetainBelow),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn matches_a_plain_hash_map(ops in proptest::collection::vec(op(), 1..80)) {
            let mut m: PageMap<u64> = PageMap::new();
            let mut model: HashMap<u64, u64> = HashMap::new();
            for op in ops {
                match op {
                    Op::Get(p) => prop_assert_eq!(m.get(p), model.get(&p)),
                    Op::Add(p, v) => {
                        *m.get_or_insert_with(p, || page(0)) += v;
                        *model.entry(p).or_insert(0) += v;
                    }
                    Op::Set(p, v) => {
                        *m.get_or_insert_with(p, || page(0)) = v;
                        model.insert(p, v);
                    }
                    Op::RetainBelow(max) => {
                        m.retain(|v| *v < max);
                        model.retain(|_, v| *v < max);
                    }
                }
                prop_assert_eq!(m.len(), model.len());
            }
            let mut got: Vec<(u64, u64)> = m.iter().map(|(p, v)| (p, *v)).collect();
            let mut want: Vec<(u64, u64)> = model.into_iter().collect();
            got.sort_unstable();
            want.sort_unstable();
            prop_assert_eq!(got, want);
        }
    }
}
