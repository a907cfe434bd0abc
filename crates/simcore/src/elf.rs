//! Minimal ELF64 emission and loading for program images.
//!
//! The paper's artifact ships statically linked ELF binaries that SimEng
//! loads; this module gives [`Program`] the same interchange format: a
//! little-endian `ET_EXEC` ELF64 with one `PT_LOAD` segment per section,
//! the correct `e_machine` for the target ISA, and a vendor note segment
//! (`isacmp.regions`) carrying the kernel-region table so per-kernel
//! attribution survives the round trip. Files are accepted by standard
//! binutils (`readelf`, `objdump`).

use crate::error::SimError;
use crate::program::{IsaKind, Program, Region, Section};

const EI_NIDENT: usize = 16;
const ET_EXEC: u16 = 2;
const EM_AARCH64: u16 = 183;
const EM_RISCV: u16 = 243;
const PT_LOAD: u32 = 1;
const PT_NOTE: u32 = 4;
const EHDR_SIZE: usize = 64;
const PHDR_SIZE: usize = 56;

/// Note name identifying the region table.
const NOTE_NAME: &[u8] = b"isacmp\0\0";
/// Note type for the region table.
const NOTE_TYPE_REGIONS: u32 = 0x5247_4e53; // "RGNS"

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}
fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}
fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn get_u16(b: &[u8], off: usize) -> u16 {
    u16::from_le_bytes(b[off..off + 2].try_into().unwrap())
}
fn get_u32(b: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(b[off..off + 4].try_into().unwrap())
}
fn get_u64(b: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(b[off..off + 8].try_into().unwrap())
}

/// Serialise the region table into note descriptor bytes.
fn regions_to_desc(regions: &[Region]) -> Vec<u8> {
    let mut out = Vec::new();
    put_u32(&mut out, regions.len() as u32);
    for r in regions {
        put_u64(&mut out, r.start);
        put_u64(&mut out, r.end);
        let name = r.name.as_bytes();
        put_u32(&mut out, name.len() as u32);
        out.extend_from_slice(name);
    }
    out
}

fn regions_from_desc(desc: &[u8]) -> Result<Vec<Region>, SimError> {
    let err = || SimError::Fault {
        pc: 0,
        msg: "malformed region note".into(),
    };
    if desc.len() < 4 {
        return Err(err());
    }
    let n = get_u32(desc, 0) as usize;
    let mut off = 4;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        if off + 20 > desc.len() {
            return Err(err());
        }
        let start = get_u64(desc, off);
        let end = get_u64(desc, off + 8);
        let len = get_u32(desc, off + 16) as usize;
        off += 20;
        if off + len > desc.len() {
            return Err(err());
        }
        let name = String::from_utf8_lossy(&desc[off..off + len]).into_owned();
        off += len;
        out.push(Region { name, start, end });
    }
    Ok(out)
}

impl Program {
    /// Serialise as a statically linked ELF64 executable.
    pub fn to_elf(&self) -> Vec<u8> {
        let machine = match self.isa {
            IsaKind::AArch64 => EM_AARCH64,
            IsaKind::RiscV => EM_RISCV,
        };
        // Note segment payload.
        let desc = regions_to_desc(&self.regions);
        let mut note = Vec::new();
        put_u32(&mut note, NOTE_NAME.len() as u32);
        put_u32(&mut note, desc.len() as u32);
        put_u32(&mut note, NOTE_TYPE_REGIONS);
        note.extend_from_slice(NOTE_NAME);
        note.extend_from_slice(&desc);
        while note.len() % 4 != 0 {
            note.push(0);
        }

        let phnum = self.sections.len() + 1;
        let mut file_off = EHDR_SIZE + phnum * PHDR_SIZE;
        // Align each segment's file offset to 8 (congruent layout is not
        // required by loaders we care about, but keeps things tidy).
        let mut layouts = Vec::new(); // (file_off, len) per section
        for s in &self.sections {
            file_off = (file_off + 7) & !7;
            layouts.push((file_off, s.bytes.len()));
            file_off += s.bytes.len();
        }
        file_off = (file_off + 3) & !3;
        let note_off = file_off;

        let mut out = Vec::new();
        // ELF header.
        let ident: [u8; EI_NIDENT] = [
            0x7F, b'E', b'L', b'F', 2, /* 64-bit */
            1, /* little */
            1, /* version */
            0, 0, 0, 0, 0, 0, 0, 0, 0,
        ];
        out.extend_from_slice(&ident);
        put_u16(&mut out, ET_EXEC);
        put_u16(&mut out, machine);
        put_u32(&mut out, 1); // e_version
        put_u64(&mut out, self.entry);
        put_u64(&mut out, EHDR_SIZE as u64); // e_phoff
        put_u64(&mut out, 0); // e_shoff: no section headers
        put_u32(&mut out, 0); // e_flags
        put_u16(&mut out, EHDR_SIZE as u16);
        put_u16(&mut out, PHDR_SIZE as u16);
        put_u16(&mut out, phnum as u16);
        put_u16(&mut out, 0); // e_shentsize
        put_u16(&mut out, 0); // e_shnum
        put_u16(&mut out, 0); // e_shstrndx

        // Program headers.
        for (s, (off, len)) in self.sections.iter().zip(layouts.iter()) {
            let exec = s.name.contains("text");
            put_u32(&mut out, PT_LOAD);
            put_u32(&mut out, if exec { 0b101 } else { 0b110 }); // R+X / R+W
            put_u64(&mut out, *off as u64);
            put_u64(&mut out, s.addr); // p_vaddr
            put_u64(&mut out, s.addr); // p_paddr
            put_u64(&mut out, *len as u64); // p_filesz
            put_u64(&mut out, *len as u64); // p_memsz
            put_u64(&mut out, 8); // p_align
        }
        put_u32(&mut out, PT_NOTE);
        put_u32(&mut out, 0b100);
        put_u64(&mut out, note_off as u64);
        put_u64(&mut out, 0);
        put_u64(&mut out, 0);
        put_u64(&mut out, note.len() as u64);
        put_u64(&mut out, note.len() as u64);
        put_u64(&mut out, 4);

        // Segment payloads.
        for (s, (off, _)) in self.sections.iter().zip(layouts.iter()) {
            while out.len() < *off {
                out.push(0);
            }
            out.extend_from_slice(&s.bytes);
        }
        while out.len() < note_off {
            out.push(0);
        }
        out.extend_from_slice(&note);
        out
    }

    /// Parse a statically linked ELF64 executable produced by [`Program::to_elf`]
    /// (or any simple static ELF with `PT_LOAD` segments).
    pub fn from_elf(bytes: &[u8]) -> Result<Program, SimError> {
        let err = |msg: &str| SimError::Fault {
            pc: 0,
            msg: msg.into(),
        };
        if bytes.len() < EHDR_SIZE || &bytes[0..4] != b"\x7FELF" {
            return Err(err("not an ELF file"));
        }
        if bytes[4] != 2 || bytes[5] != 1 {
            return Err(err("only little-endian ELF64 is supported"));
        }
        let machine = get_u16(bytes, 18);
        let isa = match machine {
            EM_AARCH64 => IsaKind::AArch64,
            EM_RISCV => IsaKind::RiscV,
            m => {
                return Err(err(&format!("unsupported e_machine {m}")));
            }
        };
        let entry = get_u64(bytes, 24);
        let phoff = get_u64(bytes, 32) as usize;
        let phentsize = get_u16(bytes, 54) as usize;
        let phnum = get_u16(bytes, 56) as usize;
        if phentsize < PHDR_SIZE || phoff + phnum * phentsize > bytes.len() {
            return Err(err("bad program header table"));
        }

        let mut program = Program::new(isa);
        program.entry = entry;
        for i in 0..phnum {
            let ph = phoff + i * phentsize;
            let p_type = get_u32(bytes, ph);
            let p_offset = get_u64(bytes, ph + 8) as usize;
            let p_vaddr = get_u64(bytes, ph + 16);
            let p_filesz = get_u64(bytes, ph + 32) as usize;
            // checked_add: a crafted file with p_offset near usize::MAX must
            // not wrap past the bounds check into a slice panic.
            let end = p_offset
                .checked_add(p_filesz)
                .ok_or_else(|| err("segment offset overflow"))?;
            if end > bytes.len() {
                return Err(err("segment exceeds file"));
            }
            match p_type {
                PT_LOAD => {
                    let flags = get_u32(bytes, ph + 4);
                    program.sections.push(Section {
                        addr: p_vaddr,
                        bytes: bytes[p_offset..p_offset + p_filesz].to_vec(),
                        name: if flags & 1 != 0 {
                            ".text".into()
                        } else {
                            ".data".into()
                        },
                    });
                }
                PT_NOTE => {
                    let note = &bytes[p_offset..p_offset + p_filesz];
                    if note.len() >= 12 {
                        let namesz = get_u32(note, 0) as usize;
                        let descsz = get_u32(note, 4) as usize;
                        let ntype = get_u32(note, 8);
                        let name_end = 12 + namesz;
                        if ntype == NOTE_TYPE_REGIONS
                            && note.len() >= name_end + descsz
                            && &note[12..name_end] == NOTE_NAME
                        {
                            program.regions =
                                regions_from_desc(&note[name_end..name_end + descsz])?;
                        }
                    }
                }
                _ => {}
            }
        }
        if program.sections.is_empty() {
            return Err(err("no loadable segments"));
        }
        Ok(program)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Program {
        let mut p = Program::new(IsaKind::RiscV);
        p.entry = 0x1_0000;
        p.sections.push(Section {
            addr: 0x1_0000,
            bytes: vec![0x13, 0, 0, 0, 0x73, 0, 0, 0],
            name: ".text".into(),
        });
        p.sections.push(Section {
            addr: 0x20_0000,
            bytes: (0..32u8).collect(),
            name: ".data".into(),
        });
        p.regions.push(Region {
            name: "copy".into(),
            start: 0x1_0000,
            end: 0x1_0004,
        });
        p.regions.push(Region {
            name: "scale".into(),
            start: 0x1_0004,
            end: 0x1_0008,
        });
        p
    }

    #[test]
    fn elf_round_trip() {
        let p = sample();
        let elf = p.to_elf();
        let back = Program::from_elf(&elf).unwrap();
        assert_eq!(back.isa, IsaKind::RiscV);
        assert_eq!(back.entry, p.entry);
        assert_eq!(back.sections.len(), 2);
        assert_eq!(back.sections[0].bytes, p.sections[0].bytes);
        assert_eq!(back.sections[1].addr, 0x20_0000);
        assert_eq!(back.regions, p.regions);
    }

    #[test]
    fn elf_magic_and_machine() {
        let elf = sample().to_elf();
        assert_eq!(&elf[0..4], b"\x7FELF");
        assert_eq!(elf[4], 2, "ELFCLASS64");
        assert_eq!(get_u16(&elf, 18), EM_RISCV);
        let mut arm = sample();
        arm.isa = IsaKind::AArch64;
        assert_eq!(get_u16(&arm.to_elf(), 18), EM_AARCH64);
    }

    #[test]
    fn rejects_garbage() {
        assert!(Program::from_elf(b"not an elf").is_err());
        assert!(Program::from_elf(&[0x7F, b'E', b'L', b'F']).is_err());
        // 32-bit class rejected.
        let mut elf = sample().to_elf();
        elf[4] = 1;
        assert!(Program::from_elf(&elf).is_err());
    }

    #[test]
    fn loaded_elf_executes() {
        use crate::state::CpuState;
        let p = sample();
        let back = Program::from_elf(&p.to_elf()).unwrap();
        let mut st = CpuState::new();
        back.load(&mut st).unwrap();
        assert_eq!(st.pc, 0x1_0000);
        assert_eq!(st.mem.read_u32(0x1_0000).unwrap(), 0x13);
        assert_eq!(st.mem.read_u8(0x20_0000 + 5).unwrap(), 5);
    }
}
