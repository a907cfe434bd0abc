//! Crash-safe machine-state checkpoints.
//!
//! A [`Checkpoint`] is a versioned binary snapshot of everything a paused
//! emulation needs to resume *byte-identically*: the architectural
//! [`CpuState`] (registers, pc, instret, NZCV, syscall plumbing), the
//! sparse memory image, the armed fault/campaign state with fired
//! counters, and the position of the trace capture the run was streaming
//! into. Snapshots are taken at retire-loop step boundaries (see
//! `EmulationCore::with_checkpoint_every`), serialized with per-section
//! FNV-1a checksums, and written via the [`crate::durable`] tmp+fsync+
//! rename discipline — a SIGKILL mid-write leaves either the previous
//! snapshot or the new one, never a torn file.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! header : "ICKP" | u16 version | u16 reserved
//! section: tag u8 | u32 payload_len | payload | u64 fnv1a64(payload)
//! ```
//!
//! Sections, in fixed order: `C` cpu (pc/instret/nzcv/exited/brk/output +
//! both register files), `M` memory (page count, then sorted
//! `(page_index, 4096 bytes)` pairs), `F` fault (armed read-fault triples,
//! then an optional campaign seed/fired-count/spec+fired list), `T` trace mark
//! (records/blocks/bytes of the partial capture), `H` the capturing run's
//! [`CpuState::state_hash`], `Z` end (empty). Readers verify every
//! checksum, require all sections, and cross-check the embedded state
//! hash against the hash of the *reconstructed* state — a snapshot that
//! does not reproduce its own provenance hash is rejected with
//! [`CheckpointError::StateHashMismatch`].
//!
//! Versioning policy matches the trace format: `VERSION` bumps on any
//! layout change and readers reject other versions outright — checkpoints
//! are transient artifacts of a single run, not an archival format.

use std::path::Path;

use crate::durable;
use crate::fault::{Campaign, FaultPlan};
use crate::mem::PAGE_SIZE;
use crate::state::CpuState;

/// File magic: "ICKP" (Isa-Comparison ChecKPoint).
pub const MAGIC: [u8; 4] = *b"ICKP";

/// Current checkpoint format version; readers accept exactly this.
pub const VERSION: u16 = 1;

/// The checkpoint checksum: an FNV-1a-style fold, one byte per step, with
/// multiplier `0x1_0000_01B3` (not FNV's 64-bit prime). This was the trace
/// format's checksum up to trace version 1; trace versions 2 and later fold
/// 8-byte words with the published prime, but checkpoint version 1 keeps this one,
/// since changing it would change the checkpoint format.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_01B3);
    }
    h
}

/// Typed checkpoint read/validation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Underlying I/O failure (message form of `std::io::Error`).
    Io(String),
    /// The file does not start with the "ICKP" magic.
    BadMagic,
    /// The file's version is not [`VERSION`].
    BadVersion(u16),
    /// The file ends mid-header or mid-section.
    Truncated,
    /// A section's payload failed its FNV-1a checksum.
    SectionChecksum(char),
    /// A required section is absent or out of order.
    MissingSection(char),
    /// A section decoded but its contents are inconsistent.
    BadData(String),
    /// The reconstructed state's hash does not match the embedded one.
    StateHashMismatch {
        /// Hash recorded at capture time.
        expected: u64,
        /// Hash of the state rebuilt from the snapshot.
        actual: u64,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O: {e}"),
            CheckpointError::BadMagic => write!(f, "not a checkpoint file (bad magic)"),
            CheckpointError::BadVersion(v) => {
                write!(
                    f,
                    "checkpoint version {v} (this build reads version {VERSION})"
                )
            }
            CheckpointError::Truncated => write!(f, "checkpoint file is truncated"),
            CheckpointError::SectionChecksum(tag) => {
                write!(f, "checkpoint section '{tag}' failed its checksum")
            }
            CheckpointError::MissingSection(tag) => {
                write!(f, "checkpoint section '{tag}' missing or out of order")
            }
            CheckpointError::BadData(msg) => write!(f, "checkpoint data invalid: {msg}"),
            CheckpointError::StateHashMismatch { expected, actual } => write!(
                f,
                "restored state hash {actual:#018x} does not match recorded {expected:#018x}"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e.to_string())
    }
}

/// Position of the partial trace capture at snapshot time, so a restored
/// run can truncate the trace file to a clean block boundary and resume
/// appending. All zero when the run captured no trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceMark {
    /// Records flushed to the trace file.
    pub records: u64,
    /// Blocks flushed.
    pub blocks: u64,
    /// Bytes written (header + flushed blocks) — the truncation offset.
    pub bytes: u64,
}

/// Armed campaign state at snapshot time: the schedule (as canonical
/// specs) plus which plans had already fired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignState {
    /// Seed the campaign was sampled from / tagged with.
    pub seed: u64,
    /// Shared fired counter at snapshot time.
    pub fired_count: u64,
    /// `(canonical spec, fired)` per plan, in schedule order.
    pub plans: Vec<(String, bool)>,
}

impl CampaignState {
    /// Capture a campaign's state as of a step boundary where `retired`
    /// instructions have retired and the campaign has *not yet* been
    /// polled for the next step. Fired flags are reconstructed from the
    /// deterministic polling discipline (see [`FaultPlan::fired_by`])
    /// because the live flags sit inside the campaign clone the core
    /// owns.
    pub fn capture(campaign: &Campaign, retired: u64) -> Self {
        let plans: Vec<(String, bool)> = campaign
            .plans()
            .iter()
            .map(|p| (p.spec(), p.fired_by(retired)))
            .collect();
        let fired_count = plans.iter().filter(|(_, fired)| *fired).count() as u64;
        CampaignState {
            seed: campaign.seed(),
            fired_count,
            plans,
        }
    }

    /// Re-arm the captured schedule as a live [`Campaign`] with fired
    /// plans suppressed and the fired counter restored.
    pub fn rearm(&self) -> Result<Campaign, CheckpointError> {
        let plans = self
            .plans
            .iter()
            .map(|(spec, _)| FaultPlan::parse(spec))
            .collect::<Result<Vec<_>, _>>()
            .map_err(CheckpointError::BadData)?;
        let mut campaign = Campaign::from_plans(plans, self.seed);
        let flags: Vec<bool> = self.plans.iter().map(|(_, fired)| *fired).collect();
        campaign.restore_fired(&flags, self.fired_count);
        Ok(campaign)
    }
}

/// A full machine-state snapshot. See the module docs for the format.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Program counter.
    pub pc: u64,
    /// Retired-instruction count (the resume point).
    pub instret: u64,
    /// AArch64 NZCV flags.
    pub nzcv: u8,
    /// Exit status if the guest had already exited.
    pub exited: Option<i64>,
    /// Program-break address.
    pub brk: u64,
    /// Guest stdout captured so far.
    pub output: Vec<u8>,
    /// Integer register file.
    pub x: [u64; 32],
    /// FP register file (bit patterns).
    pub f: [u64; 32],
    /// Sparse memory image: `(page_index, page bytes)`, ascending.
    pub pages: Vec<(u64, Vec<u8>)>,
    /// Armed read-fault state: `(remaining, bit, fired)` per fault.
    pub read_faults: Vec<(u64, u32, bool)>,
    /// Armed campaign schedule, if the run injects faults.
    pub campaign: Option<CampaignState>,
    /// Partial-trace position.
    pub trace: TraceMark,
    /// [`CpuState::state_hash`] at snapshot time.
    pub state_hash: u64,
}

impl Checkpoint {
    /// Snapshot a paused run. `campaign` carries the armed schedule (with
    /// fired flags reconstructed for `state.instret`); `trace` marks the
    /// partial capture position.
    pub fn capture(state: &CpuState, campaign: Option<&Campaign>, trace: TraceMark) -> Self {
        Checkpoint {
            pc: state.pc,
            instret: state.instret,
            nzcv: state.nzcv,
            exited: state.exited,
            brk: state.brk,
            output: state.output.clone(),
            x: state.x,
            f: state.f,
            pages: state
                .mem
                .pages_sorted()
                .into_iter()
                .map(|(idx, bytes)| (idx, bytes.to_vec()))
                .collect(),
            read_faults: state.mem.read_fault_state(),
            campaign: campaign.map(|c| CampaignState::capture(c, state.instret)),
            trace,
            state_hash: state.state_hash(),
        }
    }

    /// Rebuild the architectural state. The reconstructed state's hash is
    /// cross-checked against the embedded one (memory is deliberately
    /// outside the hash; its integrity is covered by the `M` section
    /// checksum instead).
    pub fn restore_state(&self) -> Result<CpuState, CheckpointError> {
        let mut st = CpuState::new();
        st.pc = self.pc;
        st.instret = self.instret;
        st.nzcv = self.nzcv;
        st.exited = self.exited;
        st.brk = self.brk;
        st.output = self.output.clone();
        st.x = self.x;
        st.f = self.f;
        for (idx, bytes) in &self.pages {
            let page: [u8; PAGE_SIZE] = bytes.as_slice().try_into().map_err(|_| {
                CheckpointError::BadData(format!("page {idx:#x} is not {PAGE_SIZE} bytes"))
            })?;
            st.mem.install_page(*idx, page);
        }
        st.mem.restore_read_faults(&self.read_faults);
        let actual = st.state_hash();
        if actual != self.state_hash {
            return Err(CheckpointError::StateHashMismatch {
                expected: self.state_hash,
                actual,
            });
        }
        Ok(st)
    }

    /// Serialize to the on-disk byte layout.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.pages.len() * (PAGE_SIZE + 8));
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&0u16.to_le_bytes());

        // 'C': architectural CPU state.
        let mut cpu = Vec::with_capacity(64 * 8 + 64 + self.output.len());
        cpu.extend_from_slice(&self.pc.to_le_bytes());
        cpu.extend_from_slice(&self.instret.to_le_bytes());
        cpu.push(self.nzcv);
        cpu.push(self.exited.is_some() as u8);
        cpu.extend_from_slice(&self.exited.unwrap_or(0).to_le_bytes());
        cpu.extend_from_slice(&self.brk.to_le_bytes());
        cpu.extend_from_slice(&(self.output.len() as u64).to_le_bytes());
        cpu.extend_from_slice(&self.output);
        for r in self.x.iter().chain(self.f.iter()) {
            cpu.extend_from_slice(&r.to_le_bytes());
        }
        push_section(&mut out, b'C', &cpu);

        // 'M': sparse memory pages, ascending page index.
        let mut mem = Vec::with_capacity(4 + self.pages.len() * (PAGE_SIZE + 8));
        mem.extend_from_slice(&(self.pages.len() as u32).to_le_bytes());
        for (idx, bytes) in &self.pages {
            mem.extend_from_slice(&idx.to_le_bytes());
            mem.extend_from_slice(bytes);
        }
        push_section(&mut out, b'M', &mem);

        // 'F': armed fault + campaign state.
        let mut fault = Vec::new();
        fault.extend_from_slice(&(self.read_faults.len() as u32).to_le_bytes());
        for (remaining, bit, fired) in &self.read_faults {
            fault.extend_from_slice(&remaining.to_le_bytes());
            fault.extend_from_slice(&bit.to_le_bytes());
            fault.push(*fired as u8);
        }
        match &self.campaign {
            None => fault.push(0),
            Some(c) => {
                fault.push(1);
                fault.extend_from_slice(&c.seed.to_le_bytes());
                fault.extend_from_slice(&c.fired_count.to_le_bytes());
                fault.extend_from_slice(&(c.plans.len() as u32).to_le_bytes());
                for (spec, fired) in &c.plans {
                    fault.extend_from_slice(&(spec.len() as u32).to_le_bytes());
                    fault.extend_from_slice(spec.as_bytes());
                    fault.push(*fired as u8);
                }
            }
        }
        push_section(&mut out, b'F', &fault);

        // 'T': partial-trace position.
        let mut trace = Vec::with_capacity(24);
        trace.extend_from_slice(&self.trace.records.to_le_bytes());
        trace.extend_from_slice(&self.trace.blocks.to_le_bytes());
        trace.extend_from_slice(&self.trace.bytes.to_le_bytes());
        push_section(&mut out, b'T', &trace);

        // 'H': provenance state hash.
        push_section(&mut out, b'H', &self.state_hash.to_le_bytes());

        // 'Z': end marker.
        push_section(&mut out, b'Z', &[]);
        out
    }

    /// Parse and fully validate the byte layout (magic, version, every
    /// section present, in order, checksummed).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let mut r = Reader { bytes, pos: 0 };
        if r.take(4)? != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = r.u16()?;
        if version != VERSION {
            return Err(CheckpointError::BadVersion(version));
        }
        let _reserved = r.u16()?;

        let cpu = r.section(b'C')?;
        let mem = r.section(b'M')?;
        let fault = r.section(b'F')?;
        let trace = r.section(b'T')?;
        let hash = r.section(b'H')?;
        let _end = r.section(b'Z')?;

        // 'C'
        let mut c = Reader { bytes: cpu, pos: 0 };
        let pc = c.u64()?;
        let instret = c.u64()?;
        let nzcv = c.u8()?;
        let has_exit = c.u8()?;
        let exit_code = c.u64()? as i64;
        let exited = if has_exit != 0 { Some(exit_code) } else { None };
        let brk = c.u64()?;
        let out_len = c.u64()? as usize;
        let output = c.take(out_len)?.to_vec();
        let mut x = [0u64; 32];
        let mut f = [0u64; 32];
        for r_ in x.iter_mut().chain(f.iter_mut()) {
            *r_ = c.u64()?;
        }
        c.done('C')?;

        // 'M'
        let mut m = Reader { bytes: mem, pos: 0 };
        let n_pages = m.u32()? as usize;
        let mut pages = Vec::with_capacity(n_pages);
        let mut prev_idx: Option<u64> = None;
        for _ in 0..n_pages {
            let idx = m.u64()?;
            if prev_idx.is_some_and(|p| p >= idx) {
                return Err(CheckpointError::BadData(format!(
                    "memory pages out of order at page {idx:#x}"
                )));
            }
            prev_idx = Some(idx);
            pages.push((idx, m.take(PAGE_SIZE)?.to_vec()));
        }
        m.done('M')?;

        // 'F'
        let mut fa = Reader {
            bytes: fault,
            pos: 0,
        };
        let n_faults = fa.u32()? as usize;
        let mut read_faults = Vec::with_capacity(n_faults);
        for _ in 0..n_faults {
            let remaining = fa.u64()?;
            let bit = fa.u32()?;
            let fired = fa.u8()? != 0;
            read_faults.push((remaining, bit, fired));
        }
        let campaign = match fa.u8()? {
            0 => None,
            1 => {
                let seed = fa.u64()?;
                let fired_count = fa.u64()?;
                let n_plans = fa.u32()? as usize;
                let mut plans = Vec::with_capacity(n_plans);
                for _ in 0..n_plans {
                    let spec_len = fa.u32()? as usize;
                    let spec = String::from_utf8(fa.take(spec_len)?.to_vec())
                        .map_err(|_| CheckpointError::BadData("non-UTF-8 fault spec".into()))?;
                    let fired = fa.u8()? != 0;
                    plans.push((spec, fired));
                }
                Some(CampaignState {
                    seed,
                    fired_count,
                    plans,
                })
            }
            other => {
                return Err(CheckpointError::BadData(format!(
                    "bad campaign presence byte {other}"
                )))
            }
        };
        fa.done('F')?;

        // 'T'
        let mut t = Reader {
            bytes: trace,
            pos: 0,
        };
        let trace_mark = TraceMark {
            records: t.u64()?,
            blocks: t.u64()?,
            bytes: t.u64()?,
        };
        t.done('T')?;

        // 'H'
        let mut h = Reader {
            bytes: hash,
            pos: 0,
        };
        let state_hash = h.u64()?;
        h.done('H')?;

        Ok(Checkpoint {
            pc,
            instret,
            nzcv,
            exited,
            brk,
            output,
            x,
            f,
            pages,
            read_faults,
            campaign,
            trace: trace_mark,
            state_hash,
        })
    }

    /// Durably write the snapshot to `path` (tmp + fsync + rename +
    /// parent-dir fsync). Returns the serialized size, which callers feed
    /// into the `checkpoint_writes` / `checkpoint_bytes` telemetry
    /// counters (this crate sits below the telemetry crate).
    pub fn write(&self, path: &Path) -> Result<u64, CheckpointError> {
        let bytes = self.to_bytes();
        durable::durable_write(path, &bytes)?;
        Ok(bytes.len() as u64)
    }

    /// Read and validate a snapshot from `path`.
    pub fn read(path: &Path) -> Result<Self, CheckpointError> {
        let bytes = std::fs::read(path)?;
        Self::from_bytes(&bytes)
    }
}

fn push_section(out: &mut Vec<u8>, tag: u8, payload: &[u8]) {
    out.push(tag);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&fnv1a64(payload).to_le_bytes());
}

/// Cursor over a byte slice with typed truncation errors.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let end = self.pos.checked_add(n).ok_or(CheckpointError::Truncated)?;
        if end > self.bytes.len() {
            return Err(CheckpointError::Truncated);
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, CheckpointError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read one `tag | len | payload | checksum` section, verifying the
    /// tag and the payload checksum. Returns the payload slice.
    fn section(&mut self, tag: u8) -> Result<&'a [u8], CheckpointError> {
        let got = self.u8()?;
        if got != tag {
            return Err(CheckpointError::MissingSection(tag as char));
        }
        let len = self.u32()? as usize;
        let payload = self.take(len)?;
        let checksum = self.u64()?;
        if checksum != fnv1a64(payload) {
            return Err(CheckpointError::SectionChecksum(tag as char));
        }
        Ok(payload)
    }

    /// Assert a section payload was fully consumed (no trailing garbage).
    fn done(&self, tag: char) -> Result<(), CheckpointError> {
        if self.pos != self.bytes.len() {
            return Err(CheckpointError::BadData(format!(
                "section '{tag}' has {} trailing bytes",
                self.bytes.len() - self.pos
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::Campaign;

    fn busy_state() -> CpuState {
        let mut st = CpuState::new();
        st.pc = 0x1440;
        st.instret = 98_304; // a multiple of the masked-check interval
        st.nzcv = 0b1010;
        st.brk = 0x4000_2000;
        st.output = b"partial guest output\n".to_vec();
        for i in 0..32 {
            st.x[i] = 0x1111_0000 + i as u64;
            st.f[i] = (i as u64) << 32 | 0xF0F0;
        }
        st.mem.write_u64(0x1000, 0xDEAD_BEEF).unwrap();
        st.mem.write_u64(0x8FF8, 0xCAFE).unwrap(); // crosses into a second page
        st.mem.arm_read_fault(10, 3);
        st
    }

    #[test]
    fn capture_restore_round_trip_is_identical() {
        let st = busy_state();
        let campaign = Campaign::sample(7, 3, 4096);
        let mark = TraceMark {
            records: 98_304,
            blocks: 24,
            bytes: 812_345,
        };
        let ckpt = Checkpoint::capture(&st, Some(&campaign), mark);

        let bytes = ckpt.to_bytes();
        let back = Checkpoint::from_bytes(&bytes).unwrap();
        assert_eq!(back, ckpt);
        assert_eq!(back.to_bytes(), bytes, "re-serialization is byte-identical");

        let restored = back.restore_state().unwrap();
        assert_eq!(restored.state_hash(), st.state_hash());
        assert_eq!(restored.pc, st.pc);
        assert_eq!(restored.instret, st.instret);
        // Compare fault state BEFORE reading (reads consume fault slots).
        assert_eq!(restored.mem.read_fault_state(), st.mem.read_fault_state());
        assert_eq!(restored.mem.read_u64(0x8FF8).unwrap(), 0xCAFE);

        let rearmed = back.campaign.as_ref().unwrap().rearm().unwrap();
        assert_eq!(rearmed.seed(), 7);
        let specs: Vec<String> = rearmed.plans().iter().map(FaultPlan::spec).collect();
        let orig: Vec<String> = campaign.plans().iter().map(FaultPlan::spec).collect();
        assert_eq!(specs, orig);
    }

    #[test]
    fn fired_flags_reconstruct_from_retired_count() {
        let campaign = Campaign::from_plans(
            vec![
                FaultPlan::parse("trap@100").unwrap(),
                FaultPlan::parse("fetch@50000:0x1").unwrap(),
                FaultPlan::parse("read@5:0").unwrap(),
            ],
            1,
        );
        let mut st = busy_state(); // instret = 98_304
        st.instret = 16_384;
        let cs = CampaignState::capture(&campaign, st.instret);
        assert_eq!(
            cs.plans.iter().map(|(_, f)| *f).collect::<Vec<_>>(),
            vec![true, false, true],
            "trap@100 and the read arm fired before 16384; fetch@50000 has not"
        );
        assert_eq!(cs.fired_count, 2);
        let rearmed = cs.rearm().unwrap();
        assert_eq!(rearmed.fired_count(), 2);
    }

    #[test]
    fn truncation_anywhere_is_a_typed_error() {
        let ckpt = Checkpoint::capture(&busy_state(), None, TraceMark::default());
        let bytes = ckpt.to_bytes();
        for cut in [0, 3, 4, 7, 9, bytes.len() / 2, bytes.len() - 1] {
            let err = Checkpoint::from_bytes(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    CheckpointError::Truncated
                        | CheckpointError::BadMagic
                        | CheckpointError::SectionChecksum(_)
                        | CheckpointError::MissingSection(_)
                ),
                "cut at {cut}: unexpected {err:?}"
            );
        }
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let ckpt = Checkpoint::capture(&busy_state(), None, TraceMark::default());
        let mut bytes = ckpt.to_bytes();
        bytes[0] ^= 0xFF;
        assert_eq!(
            Checkpoint::from_bytes(&bytes).unwrap_err(),
            CheckpointError::BadMagic
        );
        let mut bytes = ckpt.to_bytes();
        bytes[4] = 0xFE;
        assert!(matches!(
            Checkpoint::from_bytes(&bytes).unwrap_err(),
            CheckpointError::BadVersion(_)
        ));
    }

    #[test]
    fn tampered_state_hash_is_caught_at_restore() {
        let st = busy_state();
        let mut ckpt = Checkpoint::capture(&st, None, TraceMark::default());
        ckpt.x[5] ^= 1; // register corruption with a stale embedded hash
        let err = ckpt
            .restore_state()
            .err()
            .expect("tampered state must not restore");
        assert!(
            matches!(err, CheckpointError::StateHashMismatch { .. }),
            "{err:?}"
        );
    }

    #[test]
    fn durable_write_read_round_trip() {
        let dir = std::env::temp_dir().join(format!("isacmp-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ckpt");
        let ckpt = Checkpoint::capture(&busy_state(), None, TraceMark::default());
        ckpt.write(&path).unwrap();
        let back = Checkpoint::read(&path).unwrap();
        assert_eq!(back, ckpt);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
