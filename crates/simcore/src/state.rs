//! Architectural CPU state shared by both ISA back-ends.

use crate::error::SimError;
use crate::mem::Memory;

/// Linux generic-ABI syscall numbers (identical on riscv64 and aarch64).
pub mod sysno {
    /// `write(fd, buf, len)`.
    pub const WRITE: u64 = 64;
    /// `exit(code)`.
    pub const EXIT: u64 = 93;
    /// `exit_group(code)`.
    pub const EXIT_GROUP: u64 = 94;
    /// `brk(addr)`.
    pub const BRK: u64 = 214;
}

/// Architectural state: register files, PC, flags, memory, and the minimal
/// process environment (program break, captured output, exit status).
///
/// Both ISAs index the same 32-entry integer and FP files. For AArch64,
/// `x[31]` holds the stack pointer; the back-end substitutes zero when an
/// encoding designates register 31 as `xzr`. FP registers hold raw bit
/// patterns (`f64::to_bits`), which also represent `f32` values NaN-boxed /
/// zero-extended as each ISA requires.
pub struct CpuState {
    /// Program counter.
    pub pc: u64,
    /// Integer register file.
    pub x: [u64; 32],
    /// Floating-point register file (raw bits).
    pub f: [u64; 32],
    /// AArch64 NZCV flags packed as bits 3..0 = N,Z,C,V.
    pub nzcv: u8,
    /// Guest memory.
    pub mem: Memory,
    /// Retired instruction count.
    pub instret: u64,
    /// Exit status once the guest has called `exit`/`exit_group`.
    pub exited: Option<i64>,
    /// Bytes the guest wrote to stdout/stderr via the `write` syscall.
    pub output: Vec<u8>,
    /// Current program break for the `brk` syscall.
    pub brk: u64,
}

impl CpuState {
    /// Fresh state with zeroed registers and empty memory.
    pub fn new() -> Self {
        CpuState {
            pc: 0,
            x: [0; 32],
            f: [0; 32],
            nzcv: 0,
            mem: Memory::new(),
            instret: 0,
            exited: None,
            output: Vec::new(),
            brk: 0x4000_0000,
        }
    }

    /// Read FP register `n` as an `f64`.
    #[inline]
    pub fn fd(&self, n: u8) -> f64 {
        f64::from_bits(self.f[n as usize])
    }

    /// Write FP register `n` from an `f64`.
    #[inline]
    pub fn set_fd(&mut self, n: u8, v: f64) {
        self.f[n as usize] = v.to_bits();
    }

    /// Handle a guest syscall using the Linux generic ABI: `num` in the
    /// syscall-number register (`a7` / `x8`), arguments in `a0..` / `x0..`.
    ///
    /// Returns the value to place in the return register (`a0` / `x0`).
    pub fn syscall(&mut self, pc: u64, num: u64, args: [u64; 3]) -> Result<u64, SimError> {
        match num {
            sysno::EXIT | sysno::EXIT_GROUP => {
                self.exited = Some(args[0] as i64);
                Ok(0)
            }
            sysno::WRITE => {
                let [_fd, buf, len] = args;
                // Cap the transfer so a corrupt guest length register cannot
                // drive a host-side allocation of arbitrary size; the read
                // itself still faults on unmapped memory.
                const MAX_WRITE: u64 = 16 * 1024 * 1024;
                if len > MAX_WRITE {
                    return Err(SimError::Fault {
                        pc,
                        msg: format!("write of {len} bytes exceeds the {MAX_WRITE}-byte cap"),
                    });
                }
                let mut bytes = vec![0u8; len as usize];
                self.mem.read_bytes(buf, &mut bytes)?;
                self.output.extend_from_slice(&bytes);
                Ok(len)
            }
            sysno::BRK => {
                if args[0] != 0 {
                    self.brk = args[0];
                }
                Ok(self.brk)
            }
            _ => Err(SimError::UnimplementedSyscall { pc, num }),
        }
    }

    /// Guest stdout/stderr interpreted as UTF-8 (lossily).
    pub fn output_string(&self) -> String {
        String::from_utf8_lossy(&self.output).into_owned()
    }

    /// A 64-bit fingerprint of the architectural state: PC, both register
    /// files, flags, retirement count, exit status, and captured output.
    ///
    /// Two runs of the same binary that end in the same architectural state
    /// hash equal; any divergence (different register contents, different
    /// path length, different guest output) changes the hash with
    /// overwhelming probability. Trace files record this as provenance so a
    /// replayed trace can be tied back to the exact run that produced it.
    /// Memory contents are deliberately excluded — hashing a multi-megabyte
    /// guest heap per run would dwarf the cost of the fields that actually
    /// distinguish runs, and every workload already folds its memory results
    /// into a register-visible checksum.
    pub fn state_hash(&self) -> u64 {
        // FNV-1a over the field bytes, then a splitmix64 finalizer for
        // avalanche on the low bits.
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x1_0000_01B3);
            }
        };
        eat(&self.pc.to_le_bytes());
        for r in &self.x {
            eat(&r.to_le_bytes());
        }
        for r in &self.f {
            eat(&r.to_le_bytes());
        }
        eat(&[self.nzcv]);
        eat(&self.instret.to_le_bytes());
        eat(&self.exited.unwrap_or(-1).to_le_bytes());
        eat(&self.output);
        let mut z = h.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

impl Default for CpuState {
    fn default() -> Self {
        CpuState::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_syscall_sets_status() {
        let mut s = CpuState::new();
        s.syscall(0, sysno::EXIT, [42, 0, 0]).unwrap();
        assert_eq!(s.exited, Some(42));
    }

    #[test]
    fn write_syscall_captures_output() {
        let mut s = CpuState::new();
        s.mem.write_bytes(0x1000, b"hello").unwrap();
        let n = s.syscall(0, sysno::WRITE, [1, 0x1000, 5]).unwrap();
        assert_eq!(n, 5);
        assert_eq!(s.output_string(), "hello");
    }

    #[test]
    fn brk_tracks_break() {
        let mut s = CpuState::new();
        let cur = s.syscall(0, sysno::BRK, [0, 0, 0]).unwrap();
        assert_eq!(cur, 0x4000_0000);
        let next = s.syscall(0, sysno::BRK, [0x4001_0000, 0, 0]).unwrap();
        assert_eq!(next, 0x4001_0000);
    }

    #[test]
    fn unknown_syscall_errors() {
        let mut s = CpuState::new();
        assert!(matches!(
            s.syscall(0x10, 9999, [0, 0, 0]),
            Err(SimError::UnimplementedSyscall {
                pc: 0x10,
                num: 9999
            })
        ));
    }

    #[test]
    fn state_hash_distinguishes_states() {
        let a = CpuState::new();
        let mut b = CpuState::new();
        assert_eq!(
            a.state_hash(),
            b.state_hash(),
            "identical states hash equal"
        );
        b.x[5] = 1;
        assert_ne!(
            a.state_hash(),
            b.state_hash(),
            "register change alters the hash"
        );
        let mut c = CpuState::new();
        c.instret = 10;
        assert_ne!(
            a.state_hash(),
            c.state_hash(),
            "instret change alters the hash"
        );
    }

    #[test]
    fn fp_views() {
        let mut s = CpuState::new();
        s.set_fd(3, 2.5);
        assert_eq!(s.fd(3), 2.5);
        assert_eq!(s.f[3], 2.5f64.to_bits());
    }
}
