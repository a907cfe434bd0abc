//! Memory-bounded trace replay.

use std::io::{self, Read};
use std::path::Path;

use simcore::{InstGroup, Observer, RetireSource, RetiredInst, SimError};
use telemetry::Json;

use crate::format::{
    fnv1a64, get_template, get_varint, unzigzag, TraceMeta, TraceTrailer, BLOCK_RECORDS, BLOCK_TAG,
    ESCAPE_ID, MAGIC, MAX_RECORD_BYTES, MAX_TEMPLATE_BYTES, TRAILER_TAG, VERSION,
};

/// Everything that can go wrong reading a trace.
#[derive(Debug)]
pub enum TraceError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file does not start with the trace magic.
    BadMagic,
    /// The file's format version is not the one this build writes.
    UnsupportedVersion {
        /// Version found in the header.
        found: u16,
    },
    /// The header metadata blob failed to parse.
    BadMeta(String),
    /// A block or the trailer failed its checksum, or a record failed to
    /// decode — the file is damaged.
    Corrupt {
        /// Zero-based index of the damaged block (`u64::MAX` for the
        /// trailer).
        block: u64,
        /// What was wrong.
        detail: String,
    },
    /// The file ended before the trailer (an interrupted capture).
    Truncated,
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace I/O error: {e}"),
            TraceError::BadMagic => write!(f, "not a trace file (bad magic)"),
            TraceError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported trace format version {found} (this build reads {VERSION})"
                )
            }
            TraceError::BadMeta(msg) => write!(f, "unreadable trace header: {msg}"),
            TraceError::Corrupt { block, detail } if *block == u64::MAX => {
                write!(f, "corrupt trace trailer: {detail}")
            }
            TraceError::Corrupt { block, detail } => {
                write!(f, "corrupt trace block {block}: {detail}")
            }
            TraceError::Truncated => write!(f, "truncated trace (capture was interrupted)"),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            TraceError::Truncated
        } else {
            TraceError::Io(e)
        }
    }
}

/// Why a record failed to decode.
enum BadRecord {
    /// The payload ended inside the record, or a varint overflowed.
    Truncated,
    /// The record names a template id past the block's table.
    NoTemplate(u64),
}

/// Read a varint past its first byte out of line, taking and returning
/// the position by value, so the decode loop's position never has to
/// live in memory for a call to borrow.
#[cold]
#[inline(never)]
fn get_long_varint(payload: &[u8], pos: usize) -> Result<(u64, usize), BadRecord> {
    let mut at = pos;
    let v = get_varint(payload, &mut at).ok_or(BadRecord::Truncated)?;
    Ok((v, at))
}

/// Read a zigzag varint delta, as the `u64` that wrapping-adds it; most
/// are one byte.
#[inline(always)]
fn get_delta(payload: &[u8], pos: &mut usize) -> Result<u64, BadRecord> {
    let byte = *payload.get(*pos).ok_or(BadRecord::Truncated)?;
    let v = if byte < 0x80 {
        *pos += 1;
        byte as u64
    } else {
        let (v, at) = get_long_varint(payload, *pos)?;
        *pos = at;
        v
    };
    Ok(unzigzag(v) as u64)
}

/// Decode one record from `payload` at `pos` into `slot`: a copy of the
/// template it names, with its PC, taken bit and addresses set. Every
/// dynamic field is built in a local and stored once, and nothing is read
/// back from `slot`: a wide load of fresh narrow stores cannot be
/// forwarded and would stall each record. The ctrl byte has no reserved
/// bits, and a template's unused access slots are zero already, so neither
/// needs a check here.
#[inline(always)]
fn decode_record(
    payload: &[u8],
    pos: &mut usize,
    templates: &[RetiredInst],
    prev_pc: &mut u64,
    prev_addr: &mut u64,
    slot: &mut RetiredInst,
) -> Result<(), BadRecord> {
    let ctrl = *payload.get(*pos).ok_or(BadRecord::Truncated)?;
    *pos += 1;
    let mut id = (ctrl >> 2) as u64;
    if id == ESCAPE_ID as u64 {
        let (more, at) = get_long_varint(payload, *pos)?;
        id = id.saturating_add(more);
        *pos = at;
    }
    let t = templates
        .get(id as usize)
        .ok_or(BadRecord::NoTemplate(id))?;
    let pc = if ctrl & 2 != 0 {
        prev_pc.wrapping_add(4)
    } else {
        prev_pc.wrapping_add(get_delta(payload, pos)?)
    };
    *prev_pc = pc;
    let (sizes, n_reads, n_writes) = t.access_shape();
    let n = n_reads + n_writes;
    let a0 = if n > 0 {
        *prev_addr = prev_addr.wrapping_add(get_delta(payload, pos)?);
        *prev_addr
    } else {
        0
    };
    let a1 = if n > 1 {
        *prev_addr = prev_addr.wrapping_add(get_delta(payload, pos)?);
        *prev_addr
    } else {
        0
    };
    *slot = *t;
    slot.pc = pc;
    slot.taken = ctrl & 1 != 0;
    slot.set_accesses([a0, a1], sizes, n_reads, n_writes);
    Ok(())
}

/// Decode one record per slot of `block` from `payload`, starting at `pos`
/// with the PC and address bases a block starts from. Returns the position
/// after the last record, or the index of the record that failed and why.
/// Kept out of line so the loop's few live values stay in registers.
#[inline(never)]
fn decode_records(
    payload: &[u8],
    mut pos: usize,
    templates: &[RetiredInst],
    first_pc: u64,
    block: &mut [RetiredInst],
) -> Result<usize, (usize, BadRecord)> {
    let mut prev_pc = first_pc.wrapping_sub(4);
    let mut prev_addr = 0u64;
    for (i, slot) in block.iter_mut().enumerate() {
        decode_record(
            payload,
            &mut pos,
            templates,
            &mut prev_pc,
            &mut prev_addr,
            slot,
        )
        .map_err(|why| (i, why))?;
    }
    Ok(pos)
}

/// What a full verification pass learned about a trace.
#[derive(Debug, Clone)]
pub struct TraceSummary {
    /// Header provenance.
    pub meta: TraceMeta,
    /// Format version of the file.
    pub version: u16,
    /// Records decoded.
    pub records: u64,
    /// Blocks decoded.
    pub blocks: u64,
    /// Trailer (totals + state hash + capture wall time).
    pub trailer: TraceTrailer,
}

/// Streaming decoder: holds exactly one decoded block ([`BLOCK_RECORDS`]
/// records) in memory regardless of trace length, verifying each block's
/// checksum before yielding its records.
///
/// Use as an `Iterator<Item = Result<RetiredInst, TraceError>>`, or drive a
/// set of observers directly via the [`RetireSource`] impl, which hands
/// each decoded block to every observer as one
/// [`Observer::on_records`] slice.
pub struct TraceReader<R: Read> {
    input: R,
    meta: TraceMeta,
    version: u16,
    /// The current block's encoded bytes; reused from block to block.
    payload: Vec<u8>,
    /// The current block's templates, by id; reused from block to block.
    templates: Vec<RetiredInst>,
    block: Vec<RetiredInst>,
    next_in_block: usize,
    blocks_read: u64,
    records_read: u64,
    trailer: Option<TraceTrailer>,
    failed: bool,
}

impl TraceReader<io::BufReader<std::fs::File>> {
    /// Open a trace file and parse its header.
    pub fn open(path: &Path) -> Result<Self, TraceError> {
        let file = std::fs::File::open(path)?;
        TraceReader::new(io::BufReader::new(file))
    }
}

fn read_exact_arr<const N: usize>(input: &mut impl Read) -> Result<[u8; N], TraceError> {
    let mut buf = [0u8; N];
    input.read_exact(&mut buf)?;
    Ok(buf)
}

impl<R: Read> TraceReader<R> {
    /// Wrap a byte stream and parse the header.
    pub fn new(mut input: R) -> Result<Self, TraceError> {
        let magic: [u8; 4] = read_exact_arr(&mut input)?;
        if magic != MAGIC {
            return Err(TraceError::BadMagic);
        }
        let version = u16::from_le_bytes(read_exact_arr(&mut input)?);
        if version != VERSION {
            return Err(TraceError::UnsupportedVersion { found: version });
        }
        let _reserved = u16::from_le_bytes(read_exact_arr::<2>(&mut input)?);
        let meta_len = u32::from_le_bytes(read_exact_arr(&mut input)?) as usize;
        // A capture never writes megabytes of metadata; a huge length here
        // means a damaged header, not a big program.
        if meta_len > 16 << 20 {
            return Err(TraceError::BadMeta(format!(
                "implausible header size {meta_len}"
            )));
        }
        let mut meta_bytes = vec![0u8; meta_len];
        input.read_exact(&mut meta_bytes)?;
        let meta_text =
            String::from_utf8(meta_bytes).map_err(|e| TraceError::BadMeta(e.to_string()))?;
        let meta_json = Json::parse(&meta_text).map_err(TraceError::BadMeta)?;
        let meta = TraceMeta::from_json(&meta_json)
            .ok_or_else(|| TraceError::BadMeta("missing provenance fields".into()))?;
        Ok(TraceReader {
            input,
            meta,
            version,
            payload: Vec::new(),
            templates: Vec::new(),
            block: Vec::new(),
            next_in_block: 0,
            blocks_read: 0,
            records_read: 0,
            trailer: None,
            failed: false,
        })
    }

    /// Header provenance.
    pub fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    /// Format version of the file being read.
    pub fn version(&self) -> u16 {
        self.version
    }

    /// The trailer, available once iteration has reached the end of file.
    pub fn trailer(&self) -> Option<&TraceTrailer> {
        self.trailer.as_ref()
    }

    /// Records yielded (or handed to observers) so far.
    pub fn records_read(&self) -> u64 {
        self.records_read
    }

    /// Blocks decoded so far.
    pub fn blocks_read(&self) -> u64 {
        self.blocks_read
    }

    /// Read and decode the next block. Returns `false` once the trailer has
    /// been consumed (end of trace).
    fn next_block(&mut self) -> Result<bool, TraceError> {
        let tag: [u8; 1] = read_exact_arr(&mut self.input)?;
        match tag[0] {
            BLOCK_TAG => {}
            TRAILER_TAG => {
                let trailer = TraceTrailer {
                    total_records: u64::from_le_bytes(read_exact_arr(&mut self.input)?),
                    state_hash: u64::from_le_bytes(read_exact_arr(&mut self.input)?),
                    capture_wall_us: u64::from_le_bytes(read_exact_arr(&mut self.input)?),
                };
                let stored = u64::from_le_bytes(read_exact_arr(&mut self.input)?);
                if stored != trailer.checksum() {
                    return Err(TraceError::Corrupt {
                        block: u64::MAX,
                        detail: format!(
                            "trailer checksum {stored:#018x} != computed {:#018x}",
                            trailer.checksum()
                        ),
                    });
                }
                if trailer.total_records != self.records_read {
                    return Err(TraceError::Corrupt {
                        block: u64::MAX,
                        detail: format!(
                            "trailer claims {} records, file holds {}",
                            trailer.total_records, self.records_read
                        ),
                    });
                }
                self.trailer = Some(trailer);
                return Ok(false);
            }
            other => {
                return Err(TraceError::Corrupt {
                    block: self.blocks_read,
                    detail: format!("unknown section tag {other:#04x}"),
                })
            }
        }
        let n_records = u32::from_le_bytes(read_exact_arr(&mut self.input)?) as usize;
        let payload_len = u32::from_le_bytes(read_exact_arr(&mut self.input)?) as usize;
        let first_pc = u64::from_le_bytes(read_exact_arr(&mut self.input)?);
        let stored_checksum = u64::from_le_bytes(read_exact_arr(&mut self.input)?);
        if n_records == 0 || n_records > BLOCK_RECORDS {
            return Err(TraceError::Corrupt {
                block: self.blocks_read,
                detail: format!("implausible record count {n_records}"),
            });
        }
        // A block holds at most one template per record after its template
        // count (a varint, at most 10 bytes); anything longer than that
        // worst case is a corrupt length that would drive a huge
        // allocation.
        if payload_len > 10 + n_records * (MAX_TEMPLATE_BYTES + MAX_RECORD_BYTES) {
            return Err(TraceError::Corrupt {
                block: self.blocks_read,
                detail: format!("implausible payload length {payload_len} for {n_records} records"),
            });
        }
        // Grown to fit, never doubled: the buffer stays the size of the
        // largest block seen. `resize` zero-fills only growth past the
        // previous block's length; `read_exact` overwrites every byte.
        self.payload
            .reserve_exact(payload_len.saturating_sub(self.payload.len()));
        self.payload.resize(payload_len, 0);
        self.input.read_exact(&mut self.payload)?;
        let computed = fnv1a64(&self.payload);
        if computed != stored_checksum {
            return Err(TraceError::Corrupt {
                block: self.blocks_read,
                detail: format!("checksum {stored_checksum:#018x} != computed {computed:#018x}"),
            });
        }
        self.next_in_block = 0;
        if let Err(detail) = Self::decode_block(
            &self.payload,
            n_records,
            first_pc,
            &mut self.templates,
            &mut self.block,
        ) {
            // Never leave part of a damaged block where `drive` or `next`
            // could hand it out.
            self.block.clear();
            return Err(TraceError::Corrupt {
                block: self.blocks_read,
                detail,
            });
        }
        self.blocks_read += 1;
        Ok(true)
    }

    /// Decode a checksum-verified payload: its templates into `templates`,
    /// checking each once, then all `n_records` records into `block`. The
    /// records must consume the payload exactly.
    fn decode_block(
        payload: &[u8],
        n_records: usize,
        first_pc: u64,
        templates: &mut Vec<RetiredInst>,
        block: &mut Vec<RetiredInst>,
    ) -> Result<(), String> {
        let mut pos = 0usize;
        let n_templates = get_varint(payload, &mut pos).ok_or("template count failed to decode")?;
        if n_templates > n_records as u64 {
            return Err(format!("{n_templates} templates for {n_records} records"));
        }
        templates.clear();
        for k in 0..n_templates {
            let t = get_template(payload, &mut pos)
                .map_err(|why| format!("template {k} of {n_templates}: {why}"))?;
            templates.push(t);
        }
        // Sized, not cleared: the previous block's records are overwritten
        // in place, so a block of the same size costs no extra stores.
        block.truncate(n_records);
        block.resize(n_records, RetiredInst::new(0, InstGroup::IntAlu));
        let pos = match decode_records(payload, pos, templates, first_pc, block) {
            Ok(pos) => pos,
            Err((i, BadRecord::Truncated)) => {
                return Err(format!("record {i} of {n_records} failed to decode"))
            }
            Err((i, BadRecord::NoTemplate(id))) => {
                return Err(format!(
                    "record {i} of {n_records} names template {id} of {n_templates}"
                ))
            }
        };
        if pos != payload.len() {
            return Err(format!(
                "{} trailing payload bytes after the last record",
                payload.len() - pos
            ));
        }
        Ok(())
    }

    /// Decode the whole trace, verifying every checksum and the trailer.
    /// Consumes the reader; the records themselves are discarded a block
    /// at a time, never copied out one by one.
    pub fn verify(mut self) -> Result<TraceSummary, TraceError> {
        while !self.failed && self.trailer.is_none() {
            self.records_read += (self.block.len() - self.next_in_block) as u64;
            self.next_in_block = self.block.len();
            if !self.next_block()? {
                break;
            }
        }
        let trailer = self.trailer.ok_or(TraceError::Truncated)?;
        Ok(TraceSummary {
            meta: self.meta,
            version: self.version,
            records: self.records_read,
            blocks: self.blocks_read,
            trailer,
        })
    }
}

impl<R: Read> Iterator for TraceReader<R> {
    type Item = Result<RetiredInst, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        while self.next_in_block >= self.block.len() {
            if self.trailer.is_some() {
                return None;
            }
            match self.next_block() {
                Ok(true) => {}
                Ok(false) => return None,
                Err(e) => {
                    self.failed = true;
                    return Some(Err(e));
                }
            }
        }
        let ri = self.block[self.next_in_block];
        self.next_in_block += 1;
        self.records_read += 1;
        Some(Ok(ri))
    }
}

impl<R: Read> RetireSource for TraceReader<R> {
    /// Replay the trace through `observers`, handing each verified block
    /// to every observer as one [`Observer::on_records`] slice (starting
    /// with whatever the iterator left of the current block). A block is
    /// handed out only once its checksum and every record in it have
    /// checked out. Corruption surfaces as a [`SimError::Fault`] naming the
    /// damaged block, so replay failures flow through the same typed error
    /// paths as live-simulation faults.
    fn drive(&mut self, observers: &mut [&mut dyn Observer]) -> Result<u64, SimError> {
        let fault = |e: TraceError| SimError::Fault {
            pc: 0,
            msg: format!("trace replay: {e}"),
        };
        let start = self.records_read;
        loop {
            let run = &self.block[self.next_in_block..];
            if !run.is_empty() {
                for obs in observers.iter_mut() {
                    obs.on_records(run);
                }
                self.records_read += run.len() as u64;
                self.next_in_block = self.block.len();
            }
            if self.failed || self.trailer.is_some() {
                break;
            }
            match self.next_block() {
                Ok(true) => {}
                Ok(false) => break,
                Err(e) => {
                    self.failed = true;
                    return Err(fault(e));
                }
            }
        }
        if self.trailer.is_none() {
            return Err(fault(TraceError::Truncated));
        }
        for obs in observers.iter_mut() {
            obs.on_finish();
        }
        Ok(self.records_read - start)
    }

    fn source_name(&self) -> &'static str {
        "trace"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::TraceWriter;
    use simcore::{InstGroup, RegId, RegSet};

    fn meta() -> TraceMeta {
        TraceMeta {
            workload: "synthetic".into(),
            compiler: "none".into(),
            isa: "RISC-V".into(),
            size: "test".into(),
            regions: vec![],
        }
    }

    fn sample_stream(n: usize) -> Vec<RetiredInst> {
        (0..n)
            .map(|i| {
                let group = InstGroup::ALL[i % InstGroup::ALL.len()];
                let mut ri = RetiredInst::new(0x1_0000 + (i as u64) * 4, group);
                ri.srcs = RegSet::of(&[RegId::Int((i % 31) as u8 + 1)]);
                ri.dsts = RegSet::of(&[RegId::Fp((i % 32) as u8)]);
                if group == InstGroup::Load {
                    ri.push_read(0x20_0000 + (i as u64 % 64) * 8, 8);
                }
                if group == InstGroup::Store {
                    ri.push_write(0x30_0000 + (i as u64 % 64) * 8, 8);
                    ri.push_write(0x30_0000 + (i as u64 % 64) * 8 + 8, 8);
                }
                ri.is_branch = group == InstGroup::Branch;
                ri.taken = ri.is_branch && i % 3 == 0;
                ri
            })
            .collect()
    }

    fn capture(stream: &[RetiredInst]) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut w = TraceWriter::new(&mut buf, &meta()).unwrap();
        for ri in stream {
            w.on_retire(ri);
        }
        w.finish(0xDEAD_BEEF, std::time::Duration::from_micros(123))
            .unwrap();
        buf
    }

    #[test]
    fn round_trip_bit_identity() {
        let stream = sample_stream(10_000);
        let buf = capture(&stream);
        let reader = TraceReader::new(io::Cursor::new(&buf)).unwrap();
        let decoded: Vec<RetiredInst> = reader.map(|r| r.unwrap()).collect();
        assert_eq!(decoded, stream);
    }

    #[test]
    fn trailer_and_meta_survive() {
        let stream = sample_stream(100);
        let buf = capture(&stream);
        let mut reader = TraceReader::new(io::Cursor::new(&buf)).unwrap();
        assert_eq!(reader.meta().workload, "synthetic");
        while reader.next().is_some() {}
        let t = reader.trailer().expect("trailer read");
        assert_eq!(t.total_records, 100);
        assert_eq!(t.state_hash, 0xDEAD_BEEF);
        assert_eq!(t.capture_wall_us, 123);
    }

    #[test]
    fn corrupted_block_is_detected() {
        let stream = sample_stream(5000);
        let mut buf = capture(&stream);
        // Flip a byte well inside the first block's payload.
        let idx = buf.len() / 3;
        buf[idx] ^= 0x40;
        let reader = TraceReader::new(io::Cursor::new(&buf)).unwrap();
        let err = reader.verify().expect_err("corruption must be caught");
        assert!(matches!(err, TraceError::Corrupt { .. }), "got: {err}");
    }

    #[test]
    fn truncated_trace_is_detected() {
        let stream = sample_stream(5000);
        let buf = capture(&stream);
        let cut = &buf[..buf.len() - 40];
        let reader = TraceReader::new(io::Cursor::new(cut)).unwrap();
        let err = reader.verify().expect_err("truncation must be caught");
        assert!(
            matches!(err, TraceError::Truncated | TraceError::Corrupt { .. }),
            "got: {err}"
        );
    }

    #[test]
    fn bad_magic_rejected() {
        let err = TraceReader::new(io::Cursor::new(b"NOPE....".to_vec()))
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, TraceError::BadMagic));
    }

    #[test]
    fn wrong_version_rejected() {
        let stream = sample_stream(10);
        let mut buf = capture(&stream);
        buf[4] = 0xFF; // version low byte
        let err = TraceReader::new(io::Cursor::new(&buf))
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, TraceError::UnsupportedVersion { .. }));
    }

    #[test]
    fn drive_feeds_observers_and_counts() {
        let stream = sample_stream(2500);
        let buf = capture(&stream);
        let mut reader = TraceReader::new(io::Cursor::new(&buf)).unwrap();
        let mut count = simcore::CountingObserver::default();
        let n = {
            let mut obs: Vec<&mut dyn Observer> = vec![&mut count];
            reader.drive(&mut obs).unwrap()
        };
        assert_eq!(n, 2500);
        assert_eq!(count.retired, 2500);
    }

    /// Keeps what it is handed, and how: one entry per `on_records` run.
    #[derive(Default)]
    struct Recorder {
        records: Vec<RetiredInst>,
        runs: Vec<usize>,
        finished: bool,
    }

    impl Observer for Recorder {
        fn on_retire(&mut self, ri: &RetiredInst) {
            self.on_records(std::slice::from_ref(ri));
        }

        fn on_records(&mut self, run: &[RetiredInst]) {
            self.records.extend_from_slice(run);
            self.runs.push(run.len());
        }

        fn on_finish(&mut self) {
            self.finished = true;
        }
    }

    /// Byte offset of block `k`'s section in a capture.
    fn block_offset(buf: &[u8], k: usize) -> usize {
        let meta_len = u32::from_le_bytes(buf[8..12].try_into().unwrap()) as usize;
        let mut at = 12 + meta_len;
        for _ in 0..k {
            assert_eq!(buf[at], BLOCK_TAG);
            let payload_len = u32::from_le_bytes(buf[at + 5..at + 9].try_into().unwrap());
            at += 25 + payload_len as usize;
        }
        at
    }

    #[test]
    fn drive_hands_each_block_to_every_observer_as_one_slice() {
        let n = 3 * BLOCK_RECORDS + 17;
        let buf = capture(&sample_stream(n));
        let iterated: Vec<RetiredInst> = TraceReader::new(io::Cursor::new(&buf))
            .unwrap()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(iterated.len(), n);

        let mut reader = TraceReader::new(io::Cursor::new(&buf)).unwrap();
        let (mut a, mut b) = (Recorder::default(), Recorder::default());
        let delivered = {
            let mut obs: Vec<&mut dyn Observer> = vec![&mut a, &mut b];
            reader.drive(&mut obs).unwrap()
        };
        assert_eq!(delivered, n as u64);
        assert_eq!(reader.records_read(), n as u64);
        for seen in [&a, &b] {
            assert_eq!(seen.runs, [BLOCK_RECORDS, BLOCK_RECORDS, BLOCK_RECORDS, 17]);
            assert_eq!(
                seen.records, iterated,
                "drive must deliver what the iterator yields"
            );
            assert!(seen.finished);
        }
    }

    #[test]
    fn drive_resumes_where_the_iterator_stopped() {
        let stream = sample_stream(BLOCK_RECORDS + 10);
        let buf = capture(&stream);
        let mut reader = TraceReader::new(io::Cursor::new(&buf)).unwrap();
        for _ in 0..5 {
            reader.next().unwrap().unwrap();
        }
        let mut rec = Recorder::default();
        let delivered = reader.drive(&mut [&mut rec]).unwrap();
        assert_eq!(delivered, stream.len() as u64 - 5);
        assert_eq!(rec.runs, [BLOCK_RECORDS - 5, 10]);
        assert_eq!(rec.records, stream[5..]);
    }

    #[test]
    fn drive_stops_before_a_damaged_block() {
        let stream = sample_stream(3 * BLOCK_RECORDS);
        let mut buf = capture(&stream);
        // One payload byte of the second block.
        let at = block_offset(&buf, 1) + 25 + 100;
        buf[at] ^= 0x10;
        let mut reader = TraceReader::new(io::Cursor::new(&buf)).unwrap();
        let mut rec = Recorder::default();
        let err = reader
            .drive(&mut [&mut rec])
            .expect_err("damage must be caught");
        let SimError::Fault { msg, .. } = err else {
            panic!("want a fault, got {err}")
        };
        assert!(msg.contains("corrupt trace block 1:"), "got: {msg}");
        assert_eq!(
            rec.records,
            stream[..BLOCK_RECORDS],
            "observers saw only block 0"
        );
        assert!(!rec.finished);
        // The reader stays failed: nothing more comes out either way.
        assert!(reader.next().is_none());
        assert!(reader.drive(&mut [&mut rec]).is_err());
        assert_eq!(rec.records.len(), BLOCK_RECORDS);
    }

    /// A template for a Load of 8 bytes reading slot 2 into slot 3.
    fn load_template() -> Vec<u8> {
        vec![InstGroup::Load.code(), 1 << 2, 8, 1, 2, 1, 3]
    }

    /// Block 0 is a real capture; block 1 holds `n_records` and the
    /// hand-built `payload`. Its checksum is valid, so only the decoder can
    /// object, and it must do so with a typed error naming block 1, not a
    /// panic, before handing out any of block 1's records.
    fn assert_block_1_corrupt(n_records: u32, payload: &[u8], want: &str) {
        let stream = sample_stream(BLOCK_RECORDS + 1);
        let mut buf = capture(&stream);
        buf.truncate(block_offset(&buf, 1));
        buf.push(BLOCK_TAG);
        buf.extend_from_slice(&n_records.to_le_bytes());
        buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        buf.extend_from_slice(&0x1000u64.to_le_bytes());
        buf.extend_from_slice(&fnv1a64(payload).to_le_bytes());
        buf.extend_from_slice(payload);

        let mut reader = TraceReader::new(io::Cursor::new(&buf)).unwrap();
        for _ in 0..BLOCK_RECORDS {
            reader.next().unwrap().unwrap();
        }
        match reader.next() {
            Some(Err(TraceError::Corrupt { block: 1, detail })) => {
                assert!(detail.contains(want), "want {want:?}, got: {detail}")
            }
            other => panic!("want block 1 corrupt, got {other:?}"),
        }
        assert!(reader.next().is_none());

        let mut reader = TraceReader::new(io::Cursor::new(&buf)).unwrap();
        let mut rec = Recorder::default();
        let err = reader
            .drive(&mut [&mut rec])
            .expect_err("damage must be caught");
        let SimError::Fault { msg, .. } = err else {
            panic!("want a fault, got {err}")
        };
        assert!(msg.contains("corrupt trace block 1:"), "got: {msg}");
        assert_eq!(
            rec.records,
            stream[..BLOCK_RECORDS],
            "observers saw only block 0"
        );
    }

    #[test]
    fn a_template_claiming_three_accesses_is_a_corrupt_block() {
        let flags = (2 << 2) | (1 << 4);
        let mut payload = vec![1, InstGroup::Load.code(), flags, 8, 8, 8, 0, 0];
        payload.extend_from_slice(&[0b10, 0, 0, 0]); // id 0, next PC, 3 addresses
        assert_block_1_corrupt(1, &payload, "template 0 of 1: 3 memory accesses");
    }

    #[test]
    fn an_unknown_group_code_is_a_corrupt_block() {
        let mut payload = vec![1];
        payload.extend(load_template());
        payload[1] = 0xEE;
        payload.extend_from_slice(&[0b10, 0]);
        assert_block_1_corrupt(1, &payload, "template 0 of 1: unknown group code 0xee");
    }

    #[test]
    fn reserved_template_flag_bits_are_a_corrupt_block() {
        for bit in [1, 6, 7] {
            let mut payload = vec![1];
            payload.extend(load_template());
            payload[2] |= 1 << bit;
            payload.extend_from_slice(&[0b10, 0]);
            assert_block_1_corrupt(1, &payload, "reserved flag bits");
        }
    }

    #[test]
    fn a_register_slot_past_the_namespace_is_a_corrupt_block() {
        let mut payload = vec![1];
        payload.extend(load_template());
        payload[7] = simcore::NUM_REG_SLOTS as u8; // the destination slot
        payload.extend_from_slice(&[0b10, 0]);
        assert_block_1_corrupt(1, &payload, "template 0 of 1: register slot 65");
    }

    #[test]
    fn more_templates_than_records_is_a_corrupt_block() {
        let mut payload = vec![2];
        payload.extend(load_template());
        payload.extend(load_template());
        payload.extend_from_slice(&[0b10, 0]);
        assert_block_1_corrupt(1, &payload, "2 templates for 1 records");
    }

    #[test]
    fn a_record_naming_a_template_past_the_table_is_a_corrupt_block() {
        let mut payload = vec![1];
        payload.extend(load_template());
        payload.extend_from_slice(&[0b10, 0, 1 << 2 | 0b10, 0]);
        assert_block_1_corrupt(2, &payload, "record 1 of 2 names template 1 of 1");
        // The escape to a varint id reaches past the table the same way.
        let mut payload = vec![1];
        payload.extend(load_template());
        payload.extend_from_slice(&[(ESCAPE_ID << 2) | 0b10, 0, 0]);
        assert_block_1_corrupt(1, &payload, "record 0 of 1 names template 63 of 1");
        // An escaped id whose varint overflows `u64` cannot wrap into the
        // table.
        let mut payload = vec![1];
        payload.extend(load_template());
        payload.push((ESCAPE_ID << 2) | 0b10);
        payload.extend_from_slice(&[0xFF; 9]);
        payload.extend_from_slice(&[0x7F, 0]);
        assert_block_1_corrupt(1, &payload, "record 0 of 1 failed to decode");
    }

    #[test]
    fn leftover_payload_bytes_are_a_corrupt_block() {
        let mut payload = vec![1];
        payload.extend(load_template());
        payload.extend_from_slice(&[0b10, 0, 0]);
        assert_block_1_corrupt(1, &payload, "1 trailing payload bytes");
    }

    #[test]
    fn two_captures_are_byte_identical() {
        let stream = sample_stream(1000);
        assert_eq!(
            capture(&stream),
            capture(&stream),
            "capture is deterministic"
        );
    }
}
