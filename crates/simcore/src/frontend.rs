//! The block-caching front end both ISA back-ends share.
//!
//! An ISA crate supplies only its semantics through [`IsaSemantics`]: the
//! decoded instruction type, the decoder, the block terminators, how one
//! instruction executes, and its disassembler. [`BlockExecutor`] turns
//! them into an [`IsaExecutor`] with a per-word decode cache and a
//! pre-decoded basic-block cache, so fetch, fault and cache-invalidation
//! semantics are written once for both ISAs.

use std::cell::RefCell;
use std::rc::Rc;

use crate::core::{IsaExecutor, RunSlots, MAX_BLOCK_LEN};
use crate::error::SimError;
use crate::hash::WordMap;
use crate::retire::{InstGroup, RetiredInst};
use crate::state::CpuState;

/// One instruction set's semantics, as [`BlockExecutor`] runs them. Every
/// instruction is one 32-bit word at a 4-byte-aligned PC.
pub trait IsaSemantics {
    /// A decoded instruction.
    type Inst: Copy;

    /// Short ISA name ("rv64g", "aarch64").
    const NAME: &'static str;

    /// Decode one instruction word; the error says why it is invalid.
    fn decode(word: u32) -> Result<Self::Inst, String>;

    /// Whether `inst` ends a basic block: anything that can change control
    /// flow or end the run, such as branches, jumps and traps.
    fn ends_block(inst: &Self::Inst) -> bool;

    /// Execute `inst` at `pc`, building its retirement record in `slot`.
    /// The slot is first reset to a blank record for `pc`, so nothing it
    /// held before survives; on an error it holds a partial record that no
    /// observer may see.
    fn execute_into(
        inst: &Self::Inst,
        pc: u64,
        state: &mut CpuState,
        slot: &mut RetiredInst,
    ) -> Result<(), SimError>;

    /// Disassemble one instruction word; an undecodable word renders as
    /// a data directive with the reason.
    fn disassemble(word: u32) -> String;
}

/// A pre-decoded basic block: the straight-line instruction run starting
/// at `start`, ending at the first block terminator (or the length cap /
/// first undecodable word, whichever comes sooner). Instruction `i` sits
/// at `start + 4*i`; only the final instruction can redirect the PC, so
/// execution inside a block is purely sequential.
struct Block<T> {
    start: u64,
    insts: Vec<T>,
}

/// An ISA's executor: a per-word decode cache and a pre-decoded
/// basic-block cache in front of the ISA's [`IsaSemantics`].
pub struct BlockExecutor<I: IsaSemantics> {
    decoded: RefCell<WordMap<I::Inst>>,
    blocks: RefCell<WordMap<Rc<Block<I::Inst>>>>,
}

impl<I: IsaSemantics> Default for BlockExecutor<I> {
    fn default() -> Self {
        BlockExecutor {
            decoded: RefCell::default(),
            blocks: RefCell::default(),
        }
    }
}

impl<I: IsaSemantics> BlockExecutor<I> {
    /// Create a fresh executor with empty caches.
    pub fn new() -> Self {
        Self::default()
    }

    /// Look up (or build and cache) the block starting at `pc`. `None`
    /// when no block can start there — misaligned PC, unreadable or
    /// undecodable first word — in which case the per-instruction path
    /// must produce the exact fault. Build failures are never cached:
    /// memory may be remapped or repaired before the PC is reached again.
    fn block_at(&self, state: &CpuState, pc: u64) -> Option<Rc<Block<I::Inst>>> {
        if pc & 3 != 0 {
            return None;
        }
        if let Some(b) = self.blocks.borrow().get(&pc) {
            return Some(Rc::clone(b));
        }
        let mut insts = Vec::new();
        let mut cur = pc;
        loop {
            // A decode `step` has cached wins over the word in memory: a
            // read flip that landed on that fetch keeps its flipped
            // instruction for the rest of the run, as stepping does.
            let cached = self.decoded.borrow().get(&cur).copied();
            let inst = match cached {
                Some(i) => i,
                None => {
                    let Ok(word) = state.mem.read_u32(cur) else {
                        break;
                    };
                    let Ok(i) = I::decode(word) else {
                        break;
                    };
                    i
                }
            };
            let done = I::ends_block(&inst);
            insts.push(inst);
            if done || insts.len() == MAX_BLOCK_LEN {
                break;
            }
            cur = cur.wrapping_add(4);
        }
        if insts.is_empty() {
            return None;
        }
        let b = Rc::new(Block { start: pc, insts });
        self.blocks.borrow_mut().insert(pc, Rc::clone(&b));
        Some(b)
    }
}

impl<I: IsaSemantics> IsaExecutor for BlockExecutor<I> {
    fn step(&self, state: &mut CpuState) -> Result<RetiredInst, SimError> {
        let pc = state.pc;
        if pc & 3 != 0 {
            return Err(SimError::MisalignedPc { pc });
        }
        let cached = self.decoded.borrow().get(&pc).copied();
        let inst = match cached {
            Some(i) => i,
            None => {
                let word = state.mem.read_u32(pc)?;
                let i = I::decode(word).map_err(|msg| SimError::Decode { pc, word, msg })?;
                self.decoded.borrow_mut().insert(pc, i);
                i
            }
        };
        let mut ri = RetiredInst::new(pc, InstGroup::IntAlu);
        I::execute_into(&inst, pc, state, &mut ri)?;
        Ok(ri)
    }

    fn disassemble(&self, word: u32) -> String {
        I::disassemble(word)
    }

    fn name(&self) -> &'static str {
        I::NAME
    }

    fn flush_decode_cache(&self) {
        self.decoded.borrow_mut().clear();
        self.blocks.borrow_mut().clear();
    }

    fn run_block(
        &self,
        state: &mut CpuState,
        fuel: u64,
        run: Option<&mut Vec<RetiredInst>>,
    ) -> (u64, Option<SimError>) {
        let mut slots = RunSlots::new(run);
        let mut done = 0u64;
        while done < fuel && state.exited.is_none() && !slots.full() {
            let Some(block) = self.block_at(state, state.pc) else {
                // No block can start here; the per-instruction path
                // raises the exact architectural fault (misaligned PC,
                // unmapped fetch, undecodable word).
                match self.step(state) {
                    Ok(ri) => {
                        done += 1;
                        slots.push(ri);
                        continue;
                    }
                    Err(e) => return (done, Some(e)),
                }
            };
            // A block never straddles the fuel boundary: execute only the
            // prefix that fits, and the next call re-enters mid-block (the
            // remainder is itself a valid block keyed by its start PC).
            let take = (block.insts.len() as u64).min(fuel - done) as usize;
            for (i, inst) in block.insts[..take].iter().enumerate() {
                let ipc = block.start.wrapping_add(4 * i as u64);
                if let Err(e) = I::execute_into(inst, ipc, state, slots.next_slot()) {
                    slots.discard();
                    return (done, Some(e));
                }
                done += 1;
            }
        }
        (done, None)
    }
}
