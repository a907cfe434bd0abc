//! The host-speed reference: a fixed load timed just before and just after
//! every product, so that the product's CPU time can be scaled to one host
//! speed.
//!
//! On the 2-vCPU shared hosts this benchmark was sized on, the CPU time of
//! one and the same product moved by up to 40% within minutes, while the
//! hypervisor stole under 1%: other tenants' load on the same physical
//! cores came and went. The reference load runs on as many threads as the
//! shard pool has workers, and a product's CPU time is scaled by how much
//! slower than [`NOMINAL_CPU_S`] the load ran around it. The load is the
//! benchmark's own code, which no change to the program under test
//! touches, so the scaling cancels the host's drift and nothing else.

use crate::host;

/// Interpreter steps per thread: about 0.4 s of CPU time per thread.
const STEPS: u64 = 120_000_000;

/// CPU seconds, summed over 2 threads, that one [`reference_cpu_s`] took
/// on a quiet 2-vCPU x86-64 host. A scaled time reads as if it had been
/// measured at that speed.
pub const NOMINAL_CPU_S: f64 = 0.8;

/// This thread's CPU time so far, in s: `sum_exec_runtime` from
/// `/proc/thread-self/schedstat`, in ns, which leaves out stolen time.
fn thread_cpu_s() -> Option<f64> {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    let ns: u64 = text.split_whitespace().next()?.parse().ok()?;
    Some(ns as f64 / 1e9)
}

/// A small register machine run for `steps` steps: a dispatch branch per
/// step over an L1-resident program, and loads and stores to a 64 KiB
/// table, the kind of work an emulator and its analyses do.
fn interpret(seed: u64, steps: u64) -> u64 {
    let mut x = seed | 1;
    let program: Vec<u8> = (0..256)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % 7) as u8
        })
        .collect();
    let mut regs = [1u64; 16];
    let mut table = vec![0u64; 8192];
    let mut pc = 0usize;
    for i in 0..steps {
        let a = (i as usize) & 15;
        let b = (a + 5) & 15;
        match program[pc & 255] {
            0 => regs[a] = regs[a].wrapping_add(regs[b]),
            1 => regs[a] ^= regs[b].rotate_left(7),
            2 => table[(regs[b] as usize) & 8191] = regs[a],
            3 => regs[a] = regs[a].wrapping_add(table[(regs[b] as usize) & 8191]),
            4 => regs[a] = regs[a].wrapping_mul(0x9e37_79b9),
            5 if regs[a] & 1 == 0 => pc = pc.wrapping_add(3),
            _ => regs[a] = (regs[a] >> 3) | 1,
        }
        pc = pc.wrapping_add(1);
    }
    std::hint::black_box(&table);
    regs.iter().fold(0, |acc, r| acc ^ r)
}

/// Run the reference load on one thread per pool worker at once; returns
/// their CPU time summed, in s.
pub fn reference_cpu_s() -> Result<f64, String> {
    let threads = host::nproc() as u64;
    let per_thread: Option<Vec<f64>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|k| {
                s.spawn(move || {
                    let start = thread_cpu_s()?;
                    std::hint::black_box(interpret(
                        0x9e37_79b9_7f4a_7c15 ^ k,
                        std::hint::black_box(STEPS),
                    ));
                    Some(thread_cpu_s()? - start)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference thread panicked"))
            .collect()
    });
    let per_thread = per_thread.ok_or("cannot read a thread's CPU time")?;
    Ok(per_thread.iter().sum())
}

/// `cpu_s` of work done while the reference load took `reference_s` (the
/// mean of the runs just before and just after), scaled to the speed at
/// which it takes [`NOMINAL_CPU_S`].
pub fn scaled(cpu_s: f64, reference_s: f64) -> f64 {
    cpu_s * NOMINAL_CPU_S / reference_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_load_is_deterministic_and_measurable() {
        assert_eq!(interpret(7, 10_000), interpret(7, 10_000));
        assert_ne!(interpret(7, 10_000), interpret(8, 10_000));
        assert!(thread_cpu_s().is_some());
    }

    #[test]
    fn scaling_is_relative_to_the_nominal_speed() {
        assert_eq!(scaled(10.0, NOMINAL_CPU_S), 10.0);
        assert_eq!(scaled(10.0, 2.0 * NOMINAL_CPU_S), 5.0);
    }
}
