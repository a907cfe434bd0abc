//! Experiment E2 (paper Table 1): unit-cost critical-path analysis —
//! the ideal-CPI / ILP measurement.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use isacmp::{
    compile, execute, DualCriticalPath, IsaKind, Personality, SizeClass, Tx2Latency, Workload,
};

fn bench_critical_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("critical_path");
    group.sample_size(10);
    for w in Workload::ALL {
        for isa in [IsaKind::AArch64, IsaKind::RiscV] {
            let prog = w.build(SizeClass::Test);
            let compiled = compile(&prog, isa, &Personality::gcc122());
            let mut cp = DualCriticalPath::new(Tx2Latency);
            execute(&compiled, &mut [&mut cp]);
            let r = cp.unit();
            println!(
                "# table1: {} {} CP={} ILP={:.0} runtime={:.4}ms",
                w.name(),
                isacmp::isa_label(isa),
                r.critical_path,
                r.ilp(),
                r.runtime_ms()
            );
            group.bench_with_input(
                BenchmarkId::new(w.name(), isacmp::isa_label(isa)),
                &compiled,
                |b, compiled| {
                    b.iter(|| {
                        let mut cp = DualCriticalPath::new(Tx2Latency);
                        execute(compiled, &mut [&mut cp]);
                        cp.unit().critical_path
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_critical_path);
criterion_main!(benches);
