//! Streaming trace capture.

use std::collections::HashMap;
use std::io::{self, Write};
use std::path::Path;

use simcore::{Observer, RetiredInst};

use crate::format::{
    fnv1a64, put_template, put_varint, template_of, zigzag, TraceMeta, TraceTrailer, BLOCK_RECORDS,
    BLOCK_TAG, ESCAPE_ID, MAGIC, TRAILER_TAG, VERSION,
};

/// Entries in the PC-indexed template cache (a power of two).
const CACHE_SLOTS: usize = 1024;

/// A cache slot holding no template id.
const NO_TEMPLATE: u32 = u32::MAX;

/// Headline numbers from a finished capture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteSummary {
    /// Records written.
    pub records: u64,
    /// Blocks written.
    pub blocks: u64,
    /// Total bytes written, header and trailer included.
    pub bytes: u64,
}

/// An [`Observer`] that encodes every retired instruction into the compact
/// block format as it streams past, holding at most one block
/// ([`BLOCK_RECORDS`] records) of encoded bytes in memory.
///
/// `Observer::on_retire` cannot return errors, so I/O failures are latched
/// internally: the writer goes quiet after the first error and
/// [`TraceWriter::finish`] reports it. A capture is only trustworthy if
/// `finish` returns `Ok`.
pub struct TraceWriter<W: Write> {
    out: W,
    /// The open block's encoded records.
    payload: Vec<u8>,
    /// The open block's encoded templates.
    template_bytes: Vec<u8>,
    /// The open block's templates, by id.
    templates: Vec<RetiredInst>,
    /// Each of the open block's templates to its id.
    ids: HashMap<RetiredInst, u32>,
    /// The template id last seen at a PC, by `(pc >> 2) % CACHE_SLOTS`; a
    /// hint that counts only once the template matches in full.
    cache: Box<[u32; CACHE_SLOTS]>,
    /// The framed payload of the block being flushed.
    block: Vec<u8>,
    n_in_block: u32,
    first_pc: u64,
    prev_pc: u64,
    prev_addr: u64,
    records: u64,
    blocks: u64,
    bytes: u64,
    error: Option<io::Error>,
}

impl TraceWriter<io::BufWriter<std::fs::File>> {
    /// Open `path` for writing and emit the header.
    pub fn create(path: &Path, meta: &TraceMeta) -> io::Result<Self> {
        let file = std::fs::File::create(path)?;
        TraceWriter::new(io::BufWriter::new(file), meta)
    }

    /// Reopen a partial capture to continue it (checkpoint-restore path).
    ///
    /// The file is truncated to `bytes` — the flushed-block boundary a
    /// checkpoint's trace mark recorded — and the writer resumes with its
    /// `records`/`blocks`/`bytes` counters restored, an empty open block,
    /// no templates and fresh per-block delta bases (which is exactly the
    /// state an uninterrupted writer has at a block boundary). The
    /// continuation is therefore byte-identical to a capture that never
    /// stopped.
    pub fn resume(path: &Path, records: u64, blocks: u64, bytes: u64) -> io::Result<Self> {
        use std::io::Seek;
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)?;
        let on_disk = file.metadata()?.len();
        if on_disk < bytes {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("trace file is {on_disk} bytes, checkpoint expects at least {bytes}"),
            ));
        }
        file.set_len(bytes)?;
        let mut out = io::BufWriter::new(file);
        out.seek(io::SeekFrom::End(0))?;
        Ok(TraceWriter::at_block_boundary(out, records, blocks, bytes))
    }

    /// Flush buffered bytes and `fdatasync` the file, so everything
    /// flushed so far (the blocks a checkpoint's trace mark points at)
    /// survives a SIGKILL. Called when a checkpoint is written.
    pub fn sync_all(&mut self) -> io::Result<()> {
        if let Some(e) = self.error.take() {
            self.error = Some(io::Error::new(e.kind(), e.to_string()));
            return Err(e);
        }
        self.out.flush()?;
        self.out.get_ref().sync_data()
    }
}

impl TraceWriter<io::Sink> {
    /// A writer that encodes but discards everything — used to measure the
    /// observer-side cost of tracing without touching the filesystem.
    pub fn sink(meta: &TraceMeta) -> Self {
        TraceWriter::new(io::sink(), meta).expect("sink writes cannot fail")
    }
}

impl<W: Write> TraceWriter<W> {
    /// Wrap `out` and write the header.
    pub fn new(mut out: W, meta: &TraceMeta) -> io::Result<Self> {
        let meta_bytes = meta.to_json().pretty().into_bytes();
        out.write_all(&MAGIC)?;
        out.write_all(&VERSION.to_le_bytes())?;
        out.write_all(&0u16.to_le_bytes())?;
        out.write_all(&(meta_bytes.len() as u32).to_le_bytes())?;
        out.write_all(&meta_bytes)?;
        let header_bytes = (4 + 2 + 2 + 4 + meta_bytes.len()) as u64;
        Ok(TraceWriter::at_block_boundary(out, 0, 0, header_bytes))
    }

    /// A writer over `out` with its counters at the given values and an
    /// empty open block: the state of any writer between two blocks.
    fn at_block_boundary(out: W, records: u64, blocks: u64, bytes: u64) -> Self {
        TraceWriter {
            out,
            payload: Vec::with_capacity(BLOCK_RECORDS * 4),
            template_bytes: Vec::new(),
            templates: Vec::new(),
            ids: HashMap::new(),
            cache: Box::new([NO_TEMPLATE; CACHE_SLOTS]),
            block: Vec::with_capacity(BLOCK_RECORDS * 4),
            n_in_block: 0,
            first_pc: 0,
            prev_pc: 0,
            prev_addr: 0,
            records,
            blocks,
            bytes,
            error: None,
        }
    }

    /// Records written so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Blocks written so far.
    pub fn blocks(&self) -> u64 {
        self.blocks
    }

    /// Bytes written so far (flushed blocks only).
    pub fn bytes_written(&self) -> u64 {
        self.bytes
    }

    /// The first latched I/O error, if any.
    pub fn io_error(&self) -> Option<&io::Error> {
        self.error.as_ref()
    }

    /// The open block's id for the template of `ri`, adding the template
    /// if the block has not seen it. The PC-indexed cache answers most
    /// lookups, but only after the whole template compares equal: one PC
    /// can retire with different shapes.
    #[inline]
    fn template_id(&mut self, ri: &RetiredInst) -> u32 {
        let t = template_of(ri);
        let slot = (ri.pc >> 2) as usize % CACHE_SLOTS;
        let hint = self.cache[slot];
        if self.templates.get(hint as usize) == Some(&t) {
            return hint;
        }
        let next = self.templates.len() as u32;
        let id = *self.ids.entry(t).or_insert(next);
        if id == next {
            self.templates.push(t);
            put_template(&mut self.template_bytes, &t);
        }
        self.cache[slot] = id;
        id
    }

    fn encode(&mut self, ri: &RetiredInst) {
        if self.n_in_block == 0 {
            self.first_pc = ri.pc;
            self.prev_pc = ri.pc.wrapping_sub(4);
            self.prev_addr = 0;
        }
        let id = self.template_id(ri);
        let sequential = ri.pc == self.prev_pc.wrapping_add(4);
        let ctrl =
            (ri.taken as u8) | ((sequential as u8) << 1) | (id.min(ESCAPE_ID as u32) as u8) << 2;
        self.payload.push(ctrl);
        if id >= ESCAPE_ID as u32 {
            put_varint(&mut self.payload, (id - ESCAPE_ID as u32) as u64);
        }
        if !sequential {
            put_varint(
                &mut self.payload,
                zigzag(ri.pc.wrapping_sub(self.prev_pc) as i64),
            );
        }
        self.prev_pc = ri.pc;
        for a in ri.mem_accesses() {
            put_varint(
                &mut self.payload,
                zigzag(a.addr.wrapping_sub(self.prev_addr) as i64),
            );
            self.prev_addr = a.addr;
        }
        self.n_in_block += 1;
        self.records += 1;
        if self.n_in_block as usize >= BLOCK_RECORDS {
            self.flush_block();
        }
    }

    /// Write the open block, then start the next one with no records and
    /// no templates.
    fn flush_block(&mut self) {
        if self.n_in_block > 0 && self.error.is_none() {
            self.block.clear();
            put_varint(&mut self.block, self.templates.len() as u64);
            self.block.extend_from_slice(&self.template_bytes);
            self.block.extend_from_slice(&self.payload);
            let checksum = fnv1a64(&self.block);
            let write = (|| -> io::Result<()> {
                self.out.write_all(&[BLOCK_TAG])?;
                self.out.write_all(&self.n_in_block.to_le_bytes())?;
                self.out
                    .write_all(&(self.block.len() as u32).to_le_bytes())?;
                self.out.write_all(&self.first_pc.to_le_bytes())?;
                self.out.write_all(&checksum.to_le_bytes())?;
                self.out.write_all(&self.block)
            })();
            match write {
                Ok(()) => {
                    self.bytes += (1 + 4 + 4 + 8 + 8 + self.block.len()) as u64;
                    self.blocks += 1;
                }
                Err(e) => self.error = Some(e),
            }
        }
        self.payload.clear();
        self.template_bytes.clear();
        self.templates.clear();
        self.ids.clear();
        self.cache.fill(NO_TEMPLATE);
        self.n_in_block = 0;
    }

    /// Flush the open block, write the trailer, and flush the sink.
    ///
    /// `state_hash` is the final [`simcore::CpuState::state_hash`] of the
    /// captured run (0 if unavailable); `capture_wall` is the wall time the
    /// capture run spent emulating, recorded so replays can report their
    /// speedup. Reports telemetry counters `trace_bytes_written`,
    /// `trace_blocks_written`, `trace_records_written` on success.
    pub fn finish(
        mut self,
        state_hash: u64,
        capture_wall: std::time::Duration,
    ) -> io::Result<WriteSummary> {
        self.flush_block();
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        let trailer = TraceTrailer {
            total_records: self.records,
            state_hash,
            capture_wall_us: capture_wall.as_micros() as u64,
        };
        self.out.write_all(&[TRAILER_TAG])?;
        self.out.write_all(&trailer.checked_bytes())?;
        self.out.write_all(&trailer.checksum().to_le_bytes())?;
        self.out.flush()?;
        self.bytes += 1 + 24 + 8;
        let tel = telemetry::global();
        tel.counter_add("trace_bytes_written", self.bytes);
        tel.counter_add("trace_blocks_written", self.blocks);
        tel.counter_add("trace_records_written", self.records);
        Ok(WriteSummary {
            records: self.records,
            blocks: self.blocks,
            bytes: self.bytes,
        })
    }
}

impl<W: Write> Observer for TraceWriter<W> {
    #[inline]
    fn on_retire(&mut self, ri: &RetiredInst) {
        if self.error.is_none() {
            self.encode(ri);
        }
    }

    fn on_finish(&mut self) {
        self.flush_block();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> TraceMeta {
        TraceMeta {
            workload: "synthetic".into(),
            compiler: "none".into(),
            isa: "RISC-V".into(),
            size: "test".into(),
            regions: vec![],
        }
    }

    #[test]
    fn writer_goes_quiet_after_io_error() {
        /// Fails every write after the header.
        struct FailAfter(usize);
        impl Write for FailAfter {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.0 == 0 {
                    return Err(io::Error::other("disk full"));
                }
                self.0 = self.0.saturating_sub(buf.len());
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut w = TraceWriter::new(FailAfter(1 << 20), &meta()).unwrap();
        // Force many block flushes against a sink that fails immediately
        // after the header budget is spent.
        w.error = Some(io::Error::other("disk full"));
        let ri = RetiredInst::new(0x1000, simcore::InstGroup::IntAlu);
        for _ in 0..10 {
            w.on_retire(&ri);
        }
        assert_eq!(w.records(), 0, "no records accepted after an error");
        assert!(w.finish(0, std::time::Duration::ZERO).is_err());
    }

    #[test]
    fn resumed_capture_is_byte_identical_to_uninterrupted() {
        let dir = std::env::temp_dir().join(format!("isacmp-trace-resume-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let straight = dir.join("straight.trace");
        let resumed = dir.join("resumed.trace");
        let ri = |i: u64| RetiredInst::new(0x1000 + i * 4, simcore::InstGroup::IntAlu);
        let total = BLOCK_RECORDS as u64 * 3 + 17;
        let cut = BLOCK_RECORDS as u64 * 2; // a flushed-block boundary

        let mut w = TraceWriter::create(&straight, &meta()).unwrap();
        for i in 0..total {
            w.on_retire(&ri(i));
        }
        let want = w.finish(42, std::time::Duration::ZERO).unwrap();

        let mut w = TraceWriter::create(&resumed, &meta()).unwrap();
        for i in 0..cut {
            w.on_retire(&ri(i));
        }
        w.sync_all().unwrap();
        let (records, blocks, bytes) = (w.records(), w.blocks(), w.bytes_written());
        assert_eq!(
            records, cut,
            "cut lands on a block boundary: nothing pending"
        );
        drop(w); // simulate the process dying after the checkpoint
        let mut w = TraceWriter::resume(&resumed, records, blocks, bytes).unwrap();
        for i in cut..total {
            w.on_retire(&ri(i));
        }
        let got = w.finish(42, std::time::Duration::ZERO).unwrap();

        assert_eq!(got, want, "summaries must agree");
        let a = std::fs::read(&straight).unwrap();
        let b = std::fs::read(&resumed).unwrap();
        assert_eq!(a, b, "resumed capture must be byte-identical");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_rejects_a_file_shorter_than_the_mark() {
        let dir = std::env::temp_dir().join(format!("isacmp-trace-short-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("short.trace");
        let w = TraceWriter::create(&path, &meta()).unwrap();
        let bytes = w.bytes_written();
        drop(w);
        assert!(TraceWriter::resume(&path, 0, 0, bytes + 1000).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sink_writer_counts() {
        let mut w = TraceWriter::sink(&meta());
        let ri = RetiredInst::new(0x1000, simcore::InstGroup::IntAlu);
        for _ in 0..5000 {
            w.on_retire(&ri);
        }
        assert_eq!(w.records(), 5000);
        let s = w.finish(7, std::time::Duration::from_micros(10)).unwrap();
        assert_eq!(s.records, 5000);
        assert_eq!(
            s.blocks, 2,
            "5000 records span two {BLOCK_RECORDS}-record blocks"
        );
        assert!(s.bytes > 0);
    }
}
