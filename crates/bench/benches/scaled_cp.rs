//! Experiment E3 (paper Table 2): latency-scaled critical path using the
//! ThunderX2 latency model, loads/stores unscaled.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use isacmp::{
    compile, execute, DualCriticalPath, IsaKind, Personality, SizeClass, Tx2Latency, Workload,
};

fn bench_scaled_cp(c: &mut Criterion) {
    let mut group = c.benchmark_group("scaled_cp");
    group.sample_size(10);
    for w in Workload::ALL {
        for isa in [IsaKind::AArch64, IsaKind::RiscV] {
            let prog = w.build(SizeClass::Test);
            let compiled = compile(&prog, isa, &Personality::gcc122());
            let mut scp = DualCriticalPath::new(Tx2Latency);
            execute(&compiled, &mut [&mut scp]);
            let r = scp.scaled();
            println!(
                "# table2: {} {} scaledCP={} ILP={:.0}",
                w.name(),
                isacmp::isa_label(isa),
                r.critical_path,
                r.ilp()
            );
            group.bench_with_input(
                BenchmarkId::new(w.name(), isacmp::isa_label(isa)),
                &compiled,
                |b, compiled| {
                    b.iter(|| {
                        let mut scp = DualCriticalPath::new(Tx2Latency);
                        execute(compiled, &mut [&mut scp]);
                        scp.scaled().critical_path
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_scaled_cp);
criterion_main!(benches);
