//! The on-disk trace format: constants, varint/zigzag primitives, the
//! checksum, and the provenance header.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! header : "ICTR" | u16 version | u16 reserved | u32 meta_len | meta JSON
//! block  : 'B' | u32 n_records | u32 payload_len | u64 first_pc
//!              | u64 payload_checksum | payload
//! trailer: 'E' | u64 total_records | u64 state_hash | u64 capture_wall_us
//!              | u64 trailer_checksum
//! ```
//!
//! A block's payload is its own table of static-instruction *templates*
//! followed by its records:
//!
//! ```text
//! payload  varint n_templates | n_templates templates | n_records records
//! template u8 group        InstGroup::code()
//!          u8 flags        bit0 is_branch, bits2-3 #mem reads,
//!                          bits4-5 #mem writes (reads + writes <= 2);
//!                          every other bit zero
//!          u8 size         one per access, reads then writes
//!          srcs            u8 n + n slot bytes (RegId::index, 0..=64)
//!          dsts            u8 n + n slot bytes
//! record   u8 ctrl         bit0 taken, bit1 pc = previous pc + 4,
//!                          bits2-7 template id; id 63 escapes to a
//!                          following varint (id - 63)
//!          varint          zigzag(pc - prev_pc), only when bit1 is clear;
//!                          prev_pc starts at the block's first_pc - 4
//!          varint          per access of the template: zigzag(addr -
//!                          prev_addr); prev_addr starts at 0 per block and
//!                          is shared by reads and writes
//! ```
//!
//! A template is everything about a retirement that is fixed per static
//! instruction: its group, branch flag, access counts and sizes, and
//! register lists. Template ids follow first appearance within the block,
//! so a capture is deterministic. Templates are per block, not per file,
//! so every block decodes on its own and a capture resumed at a block
//! boundary ([`crate::TraceWriter::resume`]) writes exactly the bytes an
//! uninterrupted one would. Straight-line code with no memory access then
//! costs one byte per record; the shared address predictor makes
//! streaming access patterns (the dominant case in all five workloads) one
//! or two bytes per access.
//!
//! `payload_checksum` and `trailer_checksum` are [`fnv1a64`]: FNV-1a 64
//! folded over 8-byte little-endian words, with the last `len % 8` bytes
//! folded one at a time. Every step of the fold is a bijection of the hash
//! state, so changing any single word (or tail byte) always changes the
//! checksum.
//!
//! Version history: version 1 folded one byte per step (and multiplied by
//! `0x1_0000_01B3`, not FNV's 64-bit prime); version 2 folded words with
//! the published prime, about eight times fewer multiply steps for the
//! same bytes, and encoded every field of every record; version 3
//! (current) keeps version 2's framing and checksum and moves the static
//! fields into per-block templates, about a quarter of version 2's bytes.
//!
//! Versioning policy: `VERSION` bumps on any change to the header, block,
//! record layout or checksum. Readers reject other versions outright —
//! traces are cheap to regenerate, so there is no cross-version migration
//! path; the trace cache treats another version as stale and recaptures.

use simcore::{InstGroup, RegId, RegSet, Region, RetiredInst, MAX_MEM_ACCESSES, NUM_REG_SLOTS};
use telemetry::Json;

/// File magic: "ICTR" (Isa-Comparison TRace).
pub const MAGIC: [u8; 4] = *b"ICTR";

/// Current format version; readers accept exactly this.
pub const VERSION: u16 = 3;

/// Tag byte introducing a record block.
pub const BLOCK_TAG: u8 = b'B';

/// Tag byte introducing the trailer.
pub const TRAILER_TAG: u8 = b'E';

/// Records per block. Bounds reader memory (one decoded block at a time)
/// and sets the granularity of checksum verification.
pub const BLOCK_RECORDS: usize = 4096;

/// Template ids below this fit in a record's ctrl byte; this id value
/// escapes to a following varint `(id - ESCAPE_ID)`.
pub const ESCAPE_ID: u8 = 63;

/// Longest encoded template: group, flags, two sizes, and two register
/// lists of every slot.
pub const MAX_TEMPLATE_BYTES: usize = 4 + 2 * (1 + NUM_REG_SLOTS);

/// Longest encoded record: ctrl, an escaped id, a PC delta and two
/// address deltas, each varint at most 10 bytes.
pub const MAX_RECORD_BYTES: usize = 1 + 4 * 10;

/// FNV-1a 64 offset basis.
const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// FNV-1a 64 prime.
const FNV_PRIME: u64 = 0x100_0000_01B3;

/// The per-block and trailer integrity check: FNV-1a 64 over 8-byte
/// little-endian words, then over the remaining tail bytes one at a time.
/// Folding words instead of bytes cuts the serial multiply chain eightfold.
/// Not cryptographic; it guards against truncation and bit-rot, not
/// adversaries.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        h ^= u64::from_le_bytes(w.try_into().expect("chunks_exact yields 8 bytes"));
        h = h.wrapping_mul(FNV_PRIME);
    }
    for &b in words.remainder() {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Append an LEB128 varint.
#[inline]
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Read an LEB128 varint from `bytes` at `*pos`, advancing it.
#[inline]
pub fn get_varint(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *bytes.get(*pos)?;
        *pos += 1;
        // The tenth byte carries bit 63 alone: anything more is a value
        // past `u64` or an over-long encoding.
        if shift == 63 && byte > 1 {
            return None;
        }
        v |= ((byte & 0x7F) as u64) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
    }
}

/// Zigzag-map a signed delta so small magnitudes of either sign stay small.
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Template flag bits that may be set: is_branch and the two access
/// counts.
const TEMPLATE_FLAGS: u8 = 0b0011_1101;

/// The template of `ri`: the record with its dynamic fields (PC, taken
/// bit, addresses) cleared, so two retirements share a template exactly
/// when their static parts agree.
#[inline]
pub(crate) fn template_of(ri: &RetiredInst) -> RetiredInst {
    let (sizes, n_reads, n_writes) = ri.access_shape();
    let mut t = *ri;
    t.pc = 0;
    t.taken = false;
    t.set_accesses([0; 2], sizes, n_reads, n_writes);
    t
}

/// Append the encoding of template `t`.
pub(crate) fn put_template(out: &mut Vec<u8>, t: &RetiredInst) {
    let (sizes, n_reads, n_writes) = t.access_shape();
    out.push(t.group.code());
    out.push(t.is_branch as u8 | (n_reads << 2) | (n_writes << 4));
    out.extend_from_slice(&sizes[..(n_reads + n_writes) as usize]);
    for set in [&t.srcs, &t.dsts] {
        out.push(set.len() as u8);
        out.extend(set.iter().map(|r| r.index() as u8));
    }
}

fn get_byte(bytes: &[u8], pos: &mut usize) -> Result<u8, String> {
    let b = *bytes.get(*pos).ok_or("truncated")?;
    *pos += 1;
    Ok(b)
}

fn get_regs(bytes: &[u8], pos: &mut usize) -> Result<RegSet, String> {
    let n = get_byte(bytes, pos)?;
    if n as usize > NUM_REG_SLOTS {
        return Err(format!("{n} registers in one list"));
    }
    let mut set = RegSet::empty();
    for _ in 0..n {
        let slot = get_byte(bytes, pos)?;
        if slot as usize >= NUM_REG_SLOTS {
            return Err(format!("register slot {slot}"));
        }
        set.insert(RegId::from_index(slot as usize));
    }
    Ok(set)
}

/// Read the template at `*pos`, advancing it, and check every field; the
/// error says what was wrong.
pub(crate) fn get_template(bytes: &[u8], pos: &mut usize) -> Result<RetiredInst, String> {
    let code = get_byte(bytes, pos)?;
    let group =
        InstGroup::from_code(code).ok_or_else(|| format!("unknown group code {code:#04x}"))?;
    let flags = get_byte(bytes, pos)?;
    if flags & !TEMPLATE_FLAGS != 0 {
        return Err(format!("reserved flag bits set in {flags:#04x}"));
    }
    let (n_reads, n_writes) = ((flags >> 2) & 0x3, (flags >> 4) & 0x3);
    let n = (n_reads + n_writes) as usize;
    if n > MAX_MEM_ACCESSES {
        return Err(format!("{n} memory accesses, more than a record holds"));
    }
    let mut sizes = [0u8; 2];
    for size in &mut sizes[..n] {
        *size = get_byte(bytes, pos)?;
    }
    let mut t = RetiredInst::new(0, group);
    t.is_branch = flags & 1 != 0;
    t.srcs = get_regs(bytes, pos)?;
    t.dsts = get_regs(bytes, pos)?;
    t.set_accesses([0; 2], sizes, n_reads, n_writes);
    Ok(t)
}

/// Provenance carried in the trace header: enough to key a trace cache, to
/// rebuild per-kernel attribution without recompiling, and for
/// `trace_tool info` to say what a file is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceMeta {
    /// Workload name ("STREAM", ...), or a free-form label for ELF runs.
    pub workload: String,
    /// Compiler personality label ("gcc-12.2", ...).
    pub compiler: String,
    /// ISA label ("AArch64" / "RISC-V").
    pub isa: String,
    /// Size-class name ("test" / "small" / "paper"), or "elf".
    pub size: String,
    /// Named kernel regions of the traced program, so replay-side
    /// path-length attribution needs no compile step.
    pub regions: Vec<Region>,
}

impl TraceMeta {
    /// Serialize to the header JSON blob.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("workload", Json::Str(self.workload.clone())),
            ("compiler", Json::Str(self.compiler.clone())),
            ("isa", Json::Str(self.isa.clone())),
            ("size", Json::Str(self.size.clone())),
            (
                "regions",
                Json::Arr(
                    self.regions
                        .iter()
                        .map(|r| {
                            Json::obj(vec![
                                ("name", Json::Str(r.name.clone())),
                                ("start", Json::Num(r.start as f64)),
                                ("end", Json::Num(r.end as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Parse the header JSON blob.
    pub fn from_json(j: &Json) -> Option<TraceMeta> {
        Some(TraceMeta {
            workload: j.get("workload")?.as_str()?.to_string(),
            compiler: j.get("compiler")?.as_str()?.to_string(),
            isa: j.get("isa")?.as_str()?.to_string(),
            size: j.get("size")?.as_str()?.to_string(),
            regions: j
                .get("regions")?
                .as_arr()?
                .iter()
                .map(|r| {
                    Some(Region {
                        name: r.get("name")?.as_str()?.to_string(),
                        start: r.get("start")?.as_u64()?,
                        end: r.get("end")?.as_u64()?,
                    })
                })
                .collect::<Option<Vec<Region>>>()?,
        })
    }

    /// Whether this trace was captured for the given cell coordinates —
    /// the cache-hit test `make_tables --trace-dir` uses.
    pub fn matches_cell(&self, workload: &str, compiler: &str, isa: &str, size: &str) -> bool {
        self.workload == workload
            && self.compiler == compiler
            && self.isa == isa
            && self.size == size
    }
}

/// The trailer: totals and the capture run's provenance hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceTrailer {
    /// Total records across all blocks.
    pub total_records: u64,
    /// [`simcore::CpuState::state_hash`] of the final architectural state
    /// of the captured run (0 when the capturer had no state, e.g. a
    /// synthetic stream).
    pub state_hash: u64,
    /// Wall-clock microseconds the capture run spent emulating — replay
    /// speedup is measured against this.
    pub capture_wall_us: u64,
}

impl TraceTrailer {
    /// The 24 bytes covered by the trailer checksum.
    pub fn checked_bytes(&self) -> [u8; 24] {
        let mut b = [0u8; 24];
        b[0..8].copy_from_slice(&self.total_records.to_le_bytes());
        b[8..16].copy_from_slice(&self.state_hash.to_le_bytes());
        b[16..24].copy_from_slice(&self.capture_wall_us.to_le_bytes());
        b
    }

    /// Checksum over [`TraceTrailer::checked_bytes`].
    pub fn checksum(&self) -> u64 {
        fnv1a64(&self.checked_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trip() {
        let mut buf = Vec::new();
        let values = [0u64, 1, 127, 128, 300, 0xFFFF, u64::MAX / 2, u64::MAX];
        for &v in &values {
            put_varint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(get_varint(&buf, &mut pos), Some(v));
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn varint_truncation_is_none() {
        let mut buf = Vec::new();
        put_varint(&mut buf, u64::MAX);
        buf.pop();
        let mut pos = 0;
        assert_eq!(get_varint(&buf, &mut pos), None);
    }

    #[test]
    fn varint_overflow_is_none() {
        // Ten bytes whose last carries bits above bit 63.
        let mut buf = vec![0xFF; 9];
        buf.push(0x02);
        let mut pos = 0;
        assert_eq!(get_varint(&buf, &mut pos), None);
        // An eleventh byte is over-long even when it adds nothing.
        let mut buf = vec![0x80; 10];
        buf.push(0x00);
        let mut pos = 0;
        assert_eq!(get_varint(&buf, &mut pos), None);
        // Bit 63 alone still decodes.
        let mut buf = vec![0x80; 9];
        buf.push(0x01);
        let mut pos = 0;
        assert_eq!(get_varint(&buf, &mut pos), Some(1 << 63));
    }

    #[test]
    fn zigzag_round_trip() {
        for v in [0i64, 1, -1, 4, -4, i64::MAX, i64::MIN, 0x1234_5678] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        // Small magnitudes encode small: |v| <= 63 fits one varint byte.
        assert!(zigzag(-63) < 128);
        assert!(zigzag(63) < 128);
    }

    #[test]
    fn meta_json_round_trip() {
        let meta = TraceMeta {
            workload: "STREAM".into(),
            compiler: "gcc-12.2".into(),
            isa: "RISC-V".into(),
            size: "test".into(),
            regions: vec![Region {
                name: "copy".into(),
                start: 0x100,
                end: 0x180,
            }],
        };
        let text = meta.to_json().pretty();
        let parsed = TraceMeta::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(parsed, meta);
        assert!(parsed.matches_cell("STREAM", "gcc-12.2", "RISC-V", "test"));
        assert!(!parsed.matches_cell("STREAM", "gcc-9.2", "RISC-V", "test"));
    }

    #[test]
    fn checksum_is_pinned() {
        // A change to the checksum fails here, so it cannot ship without
        // a `VERSION` bump.
        assert_eq!(fnv1a64(b""), FNV_OFFSET);
        // Under eight bytes there is no word, so the fold is byte-serial:
        // the published FNV-1a 64 test vector for "a".
        assert_eq!(fnv1a64(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a64(b"ICTR trace block v2"), 0x7BD8_0C79_8BD2_C4FB);
    }

    #[test]
    fn flipping_any_bit_of_a_block_payload_changes_the_checksum() {
        let payload: Vec<u8> = (0..4096u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        let clean = fnv1a64(&payload);
        let mut bad = payload.clone();
        for byte in 0..bad.len() {
            for bit in 0..8 {
                bad[byte] ^= 1 << bit;
                assert_ne!(fnv1a64(&bad), clean, "flip of bit {bit} of byte {byte}");
                bad[byte] ^= 1 << bit;
            }
        }
        // The tail bytes past the last whole word are covered too.
        let odd = &payload[..4096 - 3];
        let clean = fnv1a64(odd);
        let mut bad = odd.to_vec();
        for byte in bad.len() - 7..bad.len() {
            bad[byte] ^= 0x80;
            assert_ne!(fnv1a64(&bad), clean, "flip in tail byte {byte}");
            bad[byte] ^= 0x80;
        }
    }

    #[test]
    fn trailer_checksum_changes_with_fields() {
        let a = TraceTrailer {
            total_records: 10,
            state_hash: 1,
            capture_wall_us: 5,
        };
        let b = TraceTrailer {
            total_records: 11,
            ..a
        };
        assert_ne!(a.checksum(), b.checksum());
    }
}
