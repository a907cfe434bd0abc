//! Dump a disassembled execution trace of a workload — the equivalent of
//! SimEng's instruction trace output, used for the paper's listing-level
//! analysis and for debugging the code generators.
//!
//! ```sh
//! cargo run --release -p bench --bin trace -- stream riscv gcc-12.2 40
//! cargo run --release -p bench --bin trace -- lbm aarch64 gcc-9.2 100 collision
//! ```
//!
//! Arguments: `<workload> <isa> <compiler> [max-instructions] [region]`.
//! Pass `--metrics <path>` to also write a telemetry report (compile/run
//! spans, retired count, host MIPS) as JSON.

use isacmp::{
    compile, AArch64Executor, CpuState, EmulationCore, IsaExecutor, IsaKind, Observer, Personality,
    RetiredInst, SizeClass, Workload,
};

struct Tracer<'a> {
    max: u64,
    emitted: u64,
    region: Option<(u64, u64)>,
    region_name: Option<String>,
    disasm: &'a dyn Fn(u32) -> String,
    text: Vec<(u64, Vec<u8>)>,
}

impl Tracer<'_> {
    fn word_at(&self, pc: u64) -> Option<u32> {
        for (addr, bytes) in &self.text {
            if pc >= *addr && (pc + 4) <= addr + bytes.len() as u64 {
                let off = (pc - addr) as usize;
                let word: [u8; 4] = bytes.get(off..off + 4)?.try_into().ok()?;
                return Some(u32::from_le_bytes(word));
            }
        }
        None
    }
}

impl Observer for Tracer<'_> {
    fn on_retire(&mut self, ri: &RetiredInst) {
        if self.emitted >= self.max {
            return;
        }
        if let Some((start, end)) = self.region {
            if ri.pc < start || ri.pc >= end {
                return;
            }
        }
        let text = self
            .word_at(ri.pc)
            .map(|w| (self.disasm)(w))
            .unwrap_or_else(|| "<unmapped>".into());
        let srcs: Vec<String> = ri.srcs.iter().map(|r| r.to_string()).collect();
        let dsts: Vec<String> = ri.dsts.iter().map(|r| r.to_string()).collect();
        let mut mem = String::new();
        for a in ri.mem_reads() {
            mem.push_str(&format!(" R[{:#x};{}]", a.addr, a.size));
        }
        for a in ri.mem_writes() {
            mem.push_str(&format!(" W[{:#x};{}]", a.addr, a.size));
        }
        println!(
            "{:>10}  {:#08x}  {:<36} {:<10} use[{}] def[{}]{}",
            self.emitted,
            ri.pc,
            text,
            format!("{:?}", ri.group),
            srcs.join(","),
            dsts.join(","),
            mem
        );
        self.emitted += 1;
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let metrics_path = args.iter().position(|a| a == "--metrics").map(|i| {
        let pair: Vec<String> = args.drain(i..(i + 2).min(args.len())).collect();
        pair.get(1).cloned().unwrap_or_else(|| {
            eprintln!("--metrics needs a path");
            std::process::exit(2);
        })
    });
    if args.len() < 3 {
        eprintln!("usage: trace <workload> <riscv|aarch64> <gcc-9.2|gcc-12.2> [max] [region]");
        std::process::exit(2);
    }
    let workload = Workload::ALL
        .into_iter()
        .find(|w| w.name().eq_ignore_ascii_case(&args[0]))
        .unwrap_or_else(|| {
            eprintln!("unknown workload {}", args[0]);
            std::process::exit(2);
        });
    let isa = match args[1].as_str() {
        "riscv" | "rv64g" => IsaKind::RiscV,
        "aarch64" | "arm" => IsaKind::AArch64,
        other => {
            eprintln!("unknown isa {other}");
            std::process::exit(2);
        }
    };
    let personality = match args[2].as_str() {
        "gcc-9.2" | "9.2" => Personality::gcc92(),
        "gcc-12.2" | "12.2" => Personality::gcc122(),
        other => {
            eprintln!("unknown compiler {other}");
            std::process::exit(2);
        }
    };
    let max: u64 = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(50);
    let region_name = args.get(4).cloned();

    let tel = isacmp::telemetry::global();
    let run_start = std::time::Instant::now();
    let compiled = tel.time("compile", || {
        compile(&workload.build(SizeClass::Test), isa, &personality)
    });
    let region = region_name.as_ref().map(|name| {
        let r = compiled
            .program
            .regions
            .iter()
            .find(|r| &r.name == name)
            .unwrap_or_else(|| {
                eprintln!("region {name} not found; available:");
                for r in &compiled.program.regions {
                    eprintln!("  {}", r.name);
                }
                std::process::exit(2);
            });
        (r.start, r.end)
    });

    let text: Vec<(u64, Vec<u8>)> = compiled
        .program
        .sections
        .iter()
        .map(|s| (s.addr, s.bytes.clone()))
        .collect();
    let rv = |w: u32| isacmp::RiscVExecutor::new().disassemble(w);
    let arm = |w: u32| AArch64Executor::new().disassemble(w);
    let disasm: &dyn Fn(u32) -> String = match isa {
        IsaKind::RiscV => &rv,
        IsaKind::AArch64 => &arm,
    };
    let mut tracer = Tracer {
        max,
        emitted: 0,
        region,
        region_name,
        disasm,
        text,
    };
    if let Some(name) = &tracer.region_name {
        eprintln!(
            "tracing region {name} of {} / {}",
            workload.name(),
            isacmp::isa_label(isa)
        );
    }

    let mut st = CpuState::new();
    compiled.program.load(&mut st).unwrap_or_else(|e| {
        eprintln!("cannot load {} image: {e}", workload.name());
        std::process::exit(1);
    });
    let stats = {
        let _span = tel.enter("emulate");
        let mut obs: Vec<&mut dyn Observer> = vec![&mut tracer];
        match isa {
            IsaKind::RiscV => {
                EmulationCore::new(isacmp::RiscVExecutor::new()).run(&mut st, &mut obs)
            }
            IsaKind::AArch64 => EmulationCore::new(AArch64Executor::new()).run(&mut st, &mut obs),
        }
        .unwrap_or_else(|e| {
            eprintln!(
                "guest fault: {e} (pc={:#x}, after {} retired instructions)",
                st.pc, st.instret
            );
            std::process::exit(1);
        })
    };

    if let Some(path) = metrics_path {
        let report = isacmp::RunReport::new(&format!(
            "trace {} {} {}",
            workload.name(),
            isacmp::isa_label(isa),
            personality.label()
        ))
        .with_run(
            run_start.elapsed(),
            stats.retired,
            Some(stats.exit_code as u64),
        )
        .finish_from(tel);
        report
            .write_file(std::path::Path::new(&path))
            .unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            });
        eprintln!("telemetry report written to {path} ({})", report.summary());
    }
}
