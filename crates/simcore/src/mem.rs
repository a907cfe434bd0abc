//! Sparse, paged guest memory.
//!
//! Guest images are tiny compared with the 64-bit address space, so memory
//! is a [`PageMap`] of 4 KiB pages allocated on first write: a slab of
//! pages indexed by page number, with a small lookup cache in front that
//! serves most sized reads, writes and instruction fetches without hashing.
//! Pages are never unmapped, and [`Memory::install_page`] overwrites a
//! page in its slot, so the cache cannot go stale. Reads of unmapped
//! memory are an error ([`crate::SimError::UnmappedRead`]) — this catches
//! wild loads in generated code early, which proved valuable while bringing
//! up the two ISA back-ends. All accesses are little-endian, matching both
//! AArch64 (in its default configuration) and RISC-V.

use std::cell::Cell;

use crate::error::SimError;
use crate::pages::PageMap;

/// Log2 of the page size.
const PAGE_BITS: u32 = 12;
/// Guest page size in bytes.
pub const PAGE_SIZE: usize = 1 << PAGE_BITS;
const OFFSET_MASK: u64 = (PAGE_SIZE as u64) - 1;

/// A one-shot read upset armed by the fault-injection layer: the Nth sized
/// read returns its value with one bit flipped. Interior mutability keeps
/// the read path `&self`.
#[derive(Debug)]
struct ReadFault {
    /// Sized reads left before the flip (0 = flip the next read).
    remaining: Cell<u64>,
    /// Bit to flip, reduced modulo the read width at fire time.
    bit: u32,
    fired: Cell<bool>,
}

/// Sparse paged memory with allocate-on-write semantics.
#[derive(Default)]
pub struct Memory {
    pages: PageMap<[u8; PAGE_SIZE]>,
    read_faults: Vec<ReadFault>,
}

impl Memory {
    /// Create an empty memory image.
    pub fn new() -> Self {
        Memory::default()
    }

    /// Number of currently mapped pages.
    pub fn mapped_pages(&self) -> usize {
        self.pages.len()
    }

    #[inline]
    fn page_of(addr: u64) -> u64 {
        addr >> PAGE_BITS
    }

    /// Ensure the page containing `addr` exists, returning it mutably.
    #[inline]
    fn page_mut(&mut self, page: u64) -> &mut [u8; PAGE_SIZE] {
        self.pages
            .get_or_insert_with(page, || Box::new([0u8; PAGE_SIZE]))
    }

    #[inline]
    fn page_ref(&self, page: u64) -> Option<&[u8; PAGE_SIZE]> {
        self.pages.get(page)
    }

    /// Read `buf.len()` bytes starting at `addr`.
    pub fn read_bytes(&self, addr: u64, buf: &mut [u8]) -> Result<(), SimError> {
        let mut a = addr;
        let mut done = 0usize;
        while done < buf.len() {
            let page = Self::page_of(a);
            let off = (a & OFFSET_MASK) as usize;
            let n = (PAGE_SIZE - off).min(buf.len() - done);
            let p = self
                .page_ref(page)
                .ok_or(SimError::UnmappedRead { addr: a })?;
            buf[done..done + n].copy_from_slice(&p[off..off + n]);
            done += n;
            a = a.wrapping_add(n as u64);
        }
        Ok(())
    }

    /// Write `buf` starting at `addr`, allocating pages as needed.
    pub fn write_bytes(&mut self, addr: u64, buf: &[u8]) -> Result<(), SimError> {
        let mut a = addr;
        let mut done = 0usize;
        while done < buf.len() {
            let page = Self::page_of(a);
            let off = (a & OFFSET_MASK) as usize;
            let n = (PAGE_SIZE - off).min(buf.len() - done);
            let p = self.page_mut(page);
            p[off..off + n].copy_from_slice(&buf[done..done + n]);
            done += n;
            a = a.wrapping_add(n as u64);
        }
        Ok(())
    }

    /// Arm a one-shot fault on the `nth` sized read from now (1-based,
    /// counting every `read_u8`..`read_u64`/`read_f64`, including
    /// instruction fetches): its returned value has `bit` (mod the read
    /// width) flipped. Stored bytes are untouched — a transient upset, the
    /// kind checksum verification must catch. Several faults can be armed
    /// at once (a multi-fault campaign); each counts reads from its own
    /// arming point and fires independently.
    pub fn arm_read_fault(&mut self, nth: u64, bit: u32) {
        self.read_faults.push(ReadFault {
            remaining: Cell::new(nth.saturating_sub(1)),
            bit,
            fired: Cell::new(false),
        });
    }

    /// True while any armed read fault has not fired yet.
    pub fn read_fault_pending(&self) -> bool {
        self.read_faults.iter().any(|f| !f.fired.get())
    }

    #[inline]
    fn apply_read_fault(&self, mut v: u64, width_bytes: usize) -> u64 {
        for f in &self.read_faults {
            if f.fired.get() {
                continue;
            }
            let left = f.remaining.get();
            if left == 0 {
                f.fired.set(true);
                v ^= 1u64 << (f.bit % (8 * width_bytes as u32));
            } else {
                f.remaining.set(left - 1);
            }
        }
        v
    }

    /// Read an unsigned little-endian integer of `SIZE` bytes.
    #[inline]
    fn read_int<const SIZE: usize>(&self, addr: u64) -> Result<u64, SimError> {
        let off = (addr & OFFSET_MASK) as usize;
        let v = if off + SIZE <= PAGE_SIZE {
            let p = self
                .page_ref(Self::page_of(addr))
                .ok_or(SimError::UnmappedRead { addr })?;
            let mut v = [0u8; 8];
            v[..SIZE].copy_from_slice(&p[off..off + SIZE]);
            u64::from_le_bytes(v)
        } else {
            let mut buf = [0u8; 8];
            self.read_bytes(addr, &mut buf[..SIZE])?;
            u64::from_le_bytes(buf)
        };
        Ok(self.apply_read_fault(v, SIZE))
    }

    /// Write the low `SIZE` bytes of `value` little-endian.
    #[inline]
    fn write_int<const SIZE: usize>(&mut self, addr: u64, value: u64) -> Result<(), SimError> {
        let off = (addr & OFFSET_MASK) as usize;
        let bytes = value.to_le_bytes();
        if off + SIZE <= PAGE_SIZE {
            let p = self.page_mut(Self::page_of(addr));
            p[off..off + SIZE].copy_from_slice(&bytes[..SIZE]);
            Ok(())
        } else {
            self.write_bytes(addr, &bytes[..SIZE])
        }
    }

    /// Read one byte.
    pub fn read_u8(&self, addr: u64) -> Result<u8, SimError> {
        self.read_int::<1>(addr).map(|v| v as u8)
    }

    /// Read a little-endian `u16`.
    pub fn read_u16(&self, addr: u64) -> Result<u16, SimError> {
        self.read_int::<2>(addr).map(|v| v as u16)
    }

    /// Read a little-endian `u32`.
    pub fn read_u32(&self, addr: u64) -> Result<u32, SimError> {
        self.read_int::<4>(addr).map(|v| v as u32)
    }

    /// Read a little-endian `u64`.
    pub fn read_u64(&self, addr: u64) -> Result<u64, SimError> {
        self.read_int::<8>(addr)
    }

    /// Write one byte.
    pub fn write_u8(&mut self, addr: u64, v: u8) -> Result<(), SimError> {
        self.write_int::<1>(addr, v as u64)
    }

    /// Write a little-endian `u16`.
    pub fn write_u16(&mut self, addr: u64, v: u16) -> Result<(), SimError> {
        self.write_int::<2>(addr, v as u64)
    }

    /// Write a little-endian `u32`.
    pub fn write_u32(&mut self, addr: u64, v: u32) -> Result<(), SimError> {
        self.write_int::<4>(addr, v as u64)
    }

    /// Write a little-endian `u64`.
    pub fn write_u64(&mut self, addr: u64, v: u64) -> Result<(), SimError> {
        self.write_int::<8>(addr, v)
    }

    /// Read an `f64` stored little-endian.
    pub fn read_f64(&self, addr: u64) -> Result<f64, SimError> {
        self.read_u64(addr).map(f64::from_bits)
    }

    /// Write an `f64` little-endian.
    pub fn write_f64(&mut self, addr: u64, v: f64) -> Result<(), SimError> {
        self.write_u64(addr, v.to_bits())
    }

    // --- checkpoint support -------------------------------------------------

    /// Mapped pages as `(page_index, bytes)` in ascending index order — the
    /// canonical iteration a checkpoint serializes, so identical memory
    /// images always produce identical snapshot bytes regardless of the
    /// page map's iteration order.
    pub fn pages_sorted(&self) -> Vec<(u64, &[u8; PAGE_SIZE])> {
        let mut pages: Vec<(u64, &[u8; PAGE_SIZE])> = self.pages.iter().collect();
        pages.sort_unstable_by_key(|(idx, _)| *idx);
        pages
    }

    /// Install one full page at `page_index` (restore path). Overwrites any
    /// existing page in its slot.
    pub fn install_page(&mut self, page_index: u64, bytes: [u8; PAGE_SIZE]) {
        *self.page_mut(page_index) = bytes;
    }

    /// Snapshot the armed read-fault state as `(remaining, bit, fired)`
    /// triples, in arming order.
    pub fn read_fault_state(&self) -> Vec<(u64, u32, bool)> {
        self.read_faults
            .iter()
            .map(|f| (f.remaining.get(), f.bit, f.fired.get()))
            .collect()
    }

    /// Replace the armed read-fault state with a previously captured
    /// snapshot (restore path).
    pub fn restore_read_faults(&mut self, faults: &[(u64, u32, bool)]) {
        self.read_faults = faults
            .iter()
            .map(|&(remaining, bit, fired)| ReadFault {
                remaining: Cell::new(remaining),
                bit,
                fired: Cell::new(fired),
            })
            .collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet};

    #[test]
    fn rw_round_trip_all_widths() {
        let mut m = Memory::new();
        m.write_u8(0x1000, 0xAB).unwrap();
        m.write_u16(0x1008, 0xBEEF).unwrap();
        m.write_u32(0x1010, 0xDEADBEEF).unwrap();
        m.write_u64(0x1018, 0x0123_4567_89AB_CDEF).unwrap();
        assert_eq!(m.read_u8(0x1000).unwrap(), 0xAB);
        assert_eq!(m.read_u16(0x1008).unwrap(), 0xBEEF);
        assert_eq!(m.read_u32(0x1010).unwrap(), 0xDEADBEEF);
        assert_eq!(m.read_u64(0x1018).unwrap(), 0x0123_4567_89AB_CDEF);
    }

    #[test]
    fn unmapped_read_is_error() {
        let m = Memory::new();
        assert!(matches!(
            m.read_u64(0x4000),
            Err(SimError::UnmappedRead { addr: 0x4000 })
        ));
    }

    #[test]
    fn write_allocates_page_reads_back_zeroes() {
        let mut m = Memory::new();
        m.write_u8(0x2000, 1).unwrap();
        // Rest of the freshly allocated page reads as zero.
        assert_eq!(m.read_u64(0x2008).unwrap(), 0);
        assert_eq!(m.mapped_pages(), 1);
    }

    #[test]
    fn cross_page_access() {
        let mut m = Memory::new();
        let addr = (PAGE_SIZE as u64) - 3; // straddles page 0 / page 1
        m.write_u64(addr, 0x1122_3344_5566_7788).unwrap();
        assert_eq!(m.read_u64(addr).unwrap(), 0x1122_3344_5566_7788);
        assert_eq!(m.mapped_pages(), 2);
    }

    #[test]
    fn f64_round_trip() {
        let mut m = Memory::new();
        m.write_f64(0x3000, -1234.5e-3).unwrap();
        assert_eq!(m.read_f64(0x3000).unwrap(), -1234.5e-3);
    }

    #[test]
    fn armed_read_fault_flips_exactly_one_read() {
        let mut m = Memory::new();
        m.write_u64(0x1000, 0).unwrap();
        m.arm_read_fault(2, 3); // second read, bit 3
        assert!(m.read_fault_pending());
        assert_eq!(m.read_u64(0x1000).unwrap(), 0, "first read untouched");
        assert_eq!(m.read_u64(0x1000).unwrap(), 1 << 3, "second read flipped");
        assert!(!m.read_fault_pending());
        assert_eq!(
            m.read_u64(0x1000).unwrap(),
            0,
            "one-shot: later reads clean"
        );
        // The stored bytes were never modified.
        let mut raw = [0u8; 8];
        m.read_bytes(0x1000, &mut raw).unwrap();
        assert_eq!(raw, [0u8; 8]);
    }

    #[test]
    fn multiple_armed_read_faults_fire_independently() {
        let mut m = Memory::new();
        m.write_u64(0x1000, 0).unwrap();
        m.arm_read_fault(1, 0); // first read, bit 0
        m.arm_read_fault(3, 5); // third read, bit 5
        assert_eq!(m.read_u64(0x1000).unwrap(), 1, "first fault fires");
        assert_eq!(m.read_u64(0x1000).unwrap(), 0, "between faults: clean");
        assert_eq!(m.read_u64(0x1000).unwrap(), 1 << 5, "second fault fires");
        assert!(!m.read_fault_pending());
        assert_eq!(m.read_u64(0x1000).unwrap(), 0, "all one-shot");
    }

    #[test]
    fn coinciding_read_faults_both_flip_the_same_read() {
        let mut m = Memory::new();
        m.write_u64(0x1000, 0).unwrap();
        m.arm_read_fault(1, 0);
        m.arm_read_fault(1, 1);
        assert_eq!(m.read_u64(0x1000).unwrap(), 0b11, "both bits flip at once");
    }

    #[test]
    fn read_fault_bit_wraps_to_read_width() {
        let mut m = Memory::new();
        m.write_u8(0x10, 0).unwrap();
        m.arm_read_fault(1, 35); // 35 % 8 = bit 3 for a byte read
        assert_eq!(m.read_u8(0x10).unwrap(), 1 << 3);
    }

    #[test]
    fn page_and_fault_snapshots_round_trip() {
        let mut m = Memory::new();
        m.write_u64(0x1000, 0xAAAA).unwrap();
        m.write_u64(0x9000, 0xBBBB).unwrap();
        m.arm_read_fault(3, 7);
        let _ = m.read_u64(0x1000); // consume one read: remaining 2 -> 1
        let pages = m.pages_sorted();
        assert_eq!(pages.len(), 2);
        assert!(pages[0].0 < pages[1].0, "pages come back sorted");
        let faults = m.read_fault_state();
        assert_eq!(faults, vec![(1, 7, false)]);

        let mut back = Memory::new();
        for (idx, bytes) in pages {
            back.install_page(idx, *bytes);
        }
        back.restore_read_faults(&faults);
        // Every sized read counts: this one consumes the last remaining
        // slot, the next fires, later reads are clean (one-shot).
        assert_eq!(back.read_u64(0x9000).unwrap(), 0xBBBB);
        assert_eq!(back.read_u64(0x1000).unwrap(), 0xAAAA ^ (1 << 7));
        assert_eq!(back.read_u64(0x1000).unwrap(), 0xAAAA);
    }

    /// Pages that all share one entry of the page map's lookup cache.
    fn aliasing_page(k: u64) -> u64 {
        3 + k * crate::pages::CACHE_ENTRIES as u64
    }

    #[test]
    fn install_page_over_a_cached_page_is_seen_by_the_next_read() {
        let mut m = Memory::new();
        m.write_u64(0x5008, 1).unwrap();
        assert_eq!(m.read_u64(0x5008).unwrap(), 1, "page 5 is now cached");
        let mut bytes = [0u8; PAGE_SIZE];
        bytes[8] = 2;
        m.install_page(5, bytes);
        assert_eq!(m.read_u64(0x5008).unwrap(), 2);
        assert_eq!(m.mapped_pages(), 1);
    }

    #[test]
    fn armed_read_fault_fires_on_the_same_read_hit_or_miss() {
        let a = aliasing_page(0) << PAGE_BITS;
        let b = aliasing_page(1) << PAGE_BITS;
        // Every read of `hits` after the first finds page `a` cached; the
        // reads of `misses` alternate between two pages that evict each
        // other, so none of them does.
        let hits = [a; 8];
        let misses = [a, b, a, b, a, b, a, b];
        for nth in 1..=8u64 {
            for addrs in [hits, misses] {
                let mut m = Memory::new();
                m.write_u64(a, 0).unwrap();
                m.write_u64(b, 0).unwrap();
                m.arm_read_fault(nth, 0);
                let flipped: Vec<usize> = (0..addrs.len())
                    .filter(|&i| m.read_u64(addrs[i]).unwrap() != 0)
                    .collect();
                assert_eq!(flipped, vec![nth as usize - 1], "read@{nth} in {addrs:x?}");
            }
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        Read(u64, usize),
        Write(u64, usize, u64),
    }

    fn op() -> impl proptest::prelude::Strategy<Value = Op> {
        use proptest::prelude::*;
        // Twenty pages aliasing one cache entry, plus one that does not.
        let addr = (0u64..21, 0u64..(PAGE_SIZE as u64 - 8)).prop_map(|(k, off)| {
            let page = if k == 20 { 4 } else { aliasing_page(k) };
            (page << PAGE_BITS) + off
        });
        let width = prop_oneof![Just(1usize), Just(2), Just(4), Just(8)];
        prop_oneof![
            (addr.clone(), width.clone()).prop_map(|(a, w)| Op::Read(a, w)),
            (addr, width, any::<u64>()).prop_map(|(a, w, v)| Op::Write(a, w, v)),
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]
        #[test]
        fn sized_accesses_match_a_plain_hash_map(
            ops in proptest::collection::vec(op(), 1..120)
        ) {
            let mut m = Memory::new();
            let mut bytes: HashMap<u64, u8> = HashMap::new();
            let mut pages: HashSet<u64> = HashSet::new();
            for op in ops {
                match op {
                    Op::Write(a, w, v) => {
                        match w {
                            1 => m.write_u8(a, v as u8),
                            2 => m.write_u16(a, v as u16),
                            4 => m.write_u32(a, v as u32),
                            _ => m.write_u64(a, v),
                        }
                        .unwrap();
                        for i in 0..w as u64 {
                            bytes.insert(a + i, (v >> (8 * i)) as u8);
                        }
                        pages.insert(a >> PAGE_BITS);
                    }
                    Op::Read(a, w) => {
                        let got = match w {
                            1 => m.read_u8(a).map(u64::from),
                            2 => m.read_u16(a).map(u64::from),
                            4 => m.read_u32(a).map(u64::from),
                            _ => m.read_u64(a),
                        };
                        if pages.contains(&(a >> PAGE_BITS)) {
                            let want = (0..w as u64).fold(0u64, |v, i| {
                                v | (*bytes.get(&(a + i)).unwrap_or(&0) as u64) << (8 * i)
                            });
                            proptest::prop_assert_eq!(got.unwrap(), want);
                        } else {
                            proptest::prop_assert!(matches!(
                                got,
                                Err(SimError::UnmappedRead { addr }) if addr == a
                            ));
                        }
                    }
                }
            }
            proptest::prop_assert_eq!(m.mapped_pages(), pages.len());
        }
    }

    #[test]
    fn bulk_bytes_round_trip() {
        let mut m = Memory::new();
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        m.write_bytes(0xFF0, &data).unwrap();
        let mut back = vec![0u8; data.len()];
        m.read_bytes(0xFF0, &mut back).unwrap();
        assert_eq!(back, data);
    }
}
