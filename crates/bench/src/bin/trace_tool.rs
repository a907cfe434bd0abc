//! Inspect and compare the compact binary `.trace` files written by
//! `run_elf --trace-out` and `make_tables --trace-dir` (format: the `trace`
//! crate, spec in DESIGN.md).
//!
//! ```sh
//! cargo run --release -p bench --bin trace_tool -- info   results/stream.trace
//! cargo run --release -p bench --bin trace_tool -- verify results/stream.trace
//! cargo run --release -p bench --bin trace_tool -- dump   results/stream.trace --limit 20
//! cargo run --release -p bench --bin trace_tool -- diff   a.trace b.trace
//! cargo run --release -p bench --bin trace_tool -- fuse   results/stream.trace
//! ```
//!
//! - `info`: header provenance, trailer totals and bytes per record
//!   (header only on a file whose body is damaged).
//! - `verify`: full integrity scan — block checksums, record decode,
//!   trailer consistency. Exit 1 on any corruption.
//! - `dump`: human-readable record listing (`--limit N`, default 50;
//!   `--limit 0` for everything).
//! - `diff`: first record-level divergence plus per-group count deltas
//!   between two traces. Exit 1 if the traces differ.
//! - `fuse`: run the macro-op fusion pass over the captured stream and
//!   print the per-pair-kind fusion summary (the ISA's recognizer set is
//!   picked from the trace header).

use isacmp::{FusionPass, InstGroup, IsaKind, RegSet, RetiredInst, TraceReader};

fn usage() -> ! {
    eprintln!(
        "usage: trace_tool <info|verify|dump|diff|fuse> <file.trace> [file2.trace] [--limit N]"
    );
    std::process::exit(2);
}

fn open(path: &str) -> TraceReader<std::io::BufReader<std::fs::File>> {
    TraceReader::open(std::path::Path::new(path)).unwrap_or_else(|e| {
        eprintln!("cannot open {path}: {e}");
        std::process::exit(1);
    })
}

fn print_header(path: &str, reader: &TraceReader<std::io::BufReader<std::fs::File>>) {
    let m = reader.meta();
    println!("{path}");
    println!("  format     : ICTR v{}", reader.version());
    println!("  workload   : {}", m.workload);
    println!("  compiler   : {}", m.compiler);
    println!("  isa        : {}", m.isa);
    println!("  size       : {}", m.size);
    println!("  regions    : {}", m.regions.len());
}

fn info(path: &str) {
    let reader = open(path);
    print_header(path, &reader);
    let len = std::fs::metadata(path).map(|m| m.len()).ok();
    if let Some(len) = len {
        println!("  file bytes : {len}");
    }
    // The trailer lives at the end of the stream, so totals require a scan;
    // a damaged body still leaves the header above on screen.
    match reader.verify() {
        Ok(s) => {
            println!("  records    : {}", s.records);
            println!("  blocks     : {}", s.blocks);
            if let Some(len) = len.filter(|_| s.records > 0) {
                println!("  bytes/rec  : {:.2}", len as f64 / s.records as f64);
            }
            println!("  state hash : {:#018x}", s.trailer.state_hash);
            let wall = std::time::Duration::from_micros(s.trailer.capture_wall_us);
            println!(
                "  capture    : {} us emulation wall ({:.2} MIPS)",
                s.trailer.capture_wall_us,
                isacmp::host_mips(s.records, wall)
            );
        }
        Err(e) => println!("  body       : UNREADABLE ({e})"),
    }
}

fn verify(path: &str) {
    let reader = open(path);
    match reader.verify() {
        Ok(s) => println!(
            "{path}: OK ({} records in {} blocks, state hash {:#018x})",
            s.records, s.blocks, s.trailer.state_hash
        ),
        Err(e) => {
            eprintln!("{path}: CORRUPT — {e}");
            std::process::exit(1);
        }
    }
}

fn fmt_record(i: u64, ri: &RetiredInst) -> String {
    let mut s = format!("{i:>10}  {:#012x}  {:<10?}", ri.pc, ri.group);
    if ri.is_branch {
        s.push_str(if ri.taken {
            " branch(taken)"
        } else {
            " branch"
        });
    }
    let regs = |set: &RegSet| -> String {
        set.iter()
            .map(|r| r.to_string())
            .collect::<Vec<_>>()
            .join(",")
    };
    if !ri.srcs.is_empty() {
        s.push_str(&format!("  src {}", regs(&ri.srcs)));
    }
    if !ri.dsts.is_empty() {
        s.push_str(&format!("  dst {}", regs(&ri.dsts)));
    }
    for a in ri.mem_reads() {
        s.push_str(&format!("  R[{:#x};{}]", a.addr, a.size));
    }
    for a in ri.mem_writes() {
        s.push_str(&format!("  W[{:#x};{}]", a.addr, a.size));
    }
    s
}

fn dump(path: &str, limit: u64) {
    let reader = open(path);
    print_header(path, &reader);
    println!("{:>10}  {:<12}  group", "index", "pc");
    let mut shown = 0u64;
    for (i, rec) in reader.enumerate() {
        match rec {
            Ok(ri) => println!("{}", fmt_record(i as u64, &ri)),
            Err(e) => {
                eprintln!("{path}: CORRUPT at record {i} — {e}");
                std::process::exit(1);
            }
        }
        shown += 1;
        if limit > 0 && shown >= limit {
            println!("... ({limit} record limit; --limit 0 for all)");
            break;
        }
    }
}

/// Pull the next record or die on corruption; `None` at end of trace.
fn next_or_die(
    path: &str,
    it: &mut TraceReader<std::io::BufReader<std::fs::File>>,
) -> Option<RetiredInst> {
    match it.next() {
        Some(Ok(ri)) => Some(ri),
        Some(Err(e)) => {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(1);
        }
        None => None,
    }
}

fn fuse(path: &str) {
    let mut reader = open(path);
    print_header(path, &reader);
    let isa = match reader.meta().isa.as_str() {
        "RISC-V" => IsaKind::RiscV,
        "AArch64" => IsaKind::AArch64,
        other => {
            eprintln!("{path}: unknown ISA {other:?} in trace header");
            std::process::exit(1);
        }
    };
    let regions = reader.meta().regions.clone();
    let mut pass = FusionPass::new(isa, &regions);
    if let Err(e) = pass.consume(&mut reader) {
        eprintln!("{path}: CORRUPT — {e}");
        std::process::exit(1);
    }
    println!("{}", pass.report().summary());
}

fn diff(path_a: &str, path_b: &str) {
    let mut a = open(path_a);
    let mut b = open(path_b);
    if a.meta() != b.meta() {
        println!(
            "headers differ: {}/{}/{}/{} vs {}/{}/{}/{}",
            a.meta().workload,
            a.meta().compiler,
            a.meta().isa,
            a.meta().size,
            b.meta().workload,
            b.meta().compiler,
            b.meta().isa,
            b.meta().size,
        );
    }
    let mut counts_a = [0u64; InstGroup::ALL.len()];
    let mut counts_b = [0u64; InstGroup::ALL.len()];
    let mut first_divergence: Option<(u64, String, String)> = None;
    let mut i = 0u64;
    let (mut total_a, mut total_b) = (0u64, 0u64);
    loop {
        let ra = next_or_die(path_a, &mut a);
        let rb = next_or_die(path_b, &mut b);
        match (ra, rb) {
            (None, None) => break,
            (Some(ri), None) => {
                counts_a[ri.group.code() as usize] += 1;
                total_a += 1;
                if first_divergence.is_none() {
                    first_divergence = Some((i, fmt_record(i, &ri), "<end of trace>".into()));
                }
                // Drain the longer trace so group totals stay meaningful.
                while let Some(ri) = next_or_die(path_a, &mut a) {
                    counts_a[ri.group.code() as usize] += 1;
                    total_a += 1;
                }
                break;
            }
            (None, Some(ri)) => {
                counts_b[ri.group.code() as usize] += 1;
                total_b += 1;
                if first_divergence.is_none() {
                    first_divergence = Some((i, "<end of trace>".into(), fmt_record(i, &ri)));
                }
                while let Some(ri) = next_or_die(path_b, &mut b) {
                    counts_b[ri.group.code() as usize] += 1;
                    total_b += 1;
                }
                break;
            }
            (Some(ra), Some(rb)) => {
                counts_a[ra.group.code() as usize] += 1;
                counts_b[rb.group.code() as usize] += 1;
                total_a += 1;
                total_b += 1;
                if first_divergence.is_none() && ra != rb {
                    first_divergence = Some((i, fmt_record(i, &ra), fmt_record(i, &rb)));
                }
            }
        }
        i += 1;
    }
    println!("records: {total_a} vs {total_b}");
    match first_divergence {
        None => {
            println!("traces are identical");
        }
        Some((at, left, right)) => {
            println!("first divergence at record {at}:");
            println!("  {path_a}:");
            println!("  {left}");
            println!("  {path_b}:");
            println!("  {right}");
            println!("group deltas (b - a):");
            for (g, (&ca, &cb)) in InstGroup::ALL
                .iter()
                .zip(counts_a.iter().zip(counts_b.iter()))
            {
                if ca != cb {
                    println!(
                        "  {g:<12?} {ca:>12} -> {cb:>12} ({:+})",
                        cb as i64 - ca as i64
                    );
                }
            }
            std::process::exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(|s| s.as_str()).unwrap_or_else(|| usage());
    let mut files: Vec<&String> = Vec::new();
    let mut limit = 50u64;
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        if a == "--limit" {
            limit = it.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                eprintln!("--limit needs a non-negative integer");
                std::process::exit(2);
            });
        } else if a.starts_with("--") {
            eprintln!("unknown flag {a:?}");
            std::process::exit(2);
        } else {
            files.push(a);
        }
    }
    match (cmd, files.as_slice()) {
        ("info", [f]) => info(f),
        ("verify", [f]) => verify(f),
        ("dump", [f]) => dump(f, limit),
        ("diff", [a, b]) => diff(a, b),
        ("fuse", [f]) => fuse(f),
        _ => usage(),
    }
}
