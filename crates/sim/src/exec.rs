//! The execute stage: ALU/branch/memory semantics, D-cache timing and
//! console syscalls.
//!
//! Stores that land in the text segment notify the decode layer
//! ([`Machine::note_text_write`]) so self-modifying code behaves
//! identically under both engines.

use flexprot_isa::{Inst, Reg};
use flexprot_trace::TraceEvent;

use crate::cpu::{Machine, Outcome};
use crate::monitor::FetchMonitor;
use crate::stats::Fault;

/// The most bytes a print-string syscall reads.
const MAX_PRINT_BYTES: usize = 1 << 16;

/// What executing one instruction asks the commit loop to do next.
pub(crate) enum Step {
    Next,
    Goto(u32),
    Stop(Outcome),
}

impl<M: FetchMonitor> Machine<M> {
    fn reg(&self, r: Reg) -> u32 {
        self.regs[r.index() as usize]
    }

    fn set_reg(&mut self, r: Reg, value: u32) {
        if r != Reg::ZERO {
            self.regs[r.index() as usize] = value;
        }
    }

    /// Invalidates the decoded line covering `addr` if the store landed in
    /// the text segment. A no-op for ordinary data stores (two compares)
    /// and under the reference engine (the store is never looked up).
    fn note_text_write(&mut self, addr: u32) {
        if addr >= self.text_base && addr < self.text_end {
            self.decode.invalidate(addr);
        }
    }

    fn data_access(&mut self, addr: u32, write: bool) {
        self.stats.dcache_accesses += 1;
        let access = self.dcache.access(addr, write);
        if !access.hit {
            self.stats.dcache_misses += 1;
            let line_words = u64::from(self.config.dcache.line_words());
            self.stats.cycles +=
                self.config.mem_latency + self.config.burst_word_cycles * (line_words - 1);
        }
        if access.writeback.is_some() {
            self.stats.dcache_writebacks += 1;
            self.stats.cycles +=
                self.config.burst_word_cycles * u64::from(self.config.dcache.line_words());
        }
        if let Some(sink) = &self.sink {
            sink.emit(&TraceEvent::DataAccess {
                addr,
                write,
                hit: access.hit,
                writeback: access.writeback.is_some(),
            });
        }
    }

    /// The bytes executing `inst` would read or write as data, as
    /// `(addr, len)`: a load's or a store's access, or the string a
    /// print-string syscall reads, terminator included. An access that
    /// would fault still counts; `None` for every other instruction.
    pub(crate) fn data_span(&self, inst: Inst) -> Option<(u32, u32)> {
        use Inst::*;
        let at = |base: Reg, off: i16| self.reg(base).wrapping_add(off as i32 as u32);
        match inst {
            Lb { off, base, .. } | Lbu { off, base, .. } | Sb { off, base, .. } => {
                Some((at(base, off), 1))
            }
            Lh { off, base, .. } | Lhu { off, base, .. } | Sh { off, base, .. } => {
                Some((at(base, off), 2))
            }
            Lw { off, base, .. } | Sw { off, base, .. } => Some((at(base, off), 4)),
            Syscall if self.reg(Reg::V0) == 4 => {
                let a0 = self.reg(Reg::A0);
                let read = self.mem.read_cstr(a0, MAX_PRINT_BYTES).len() + 1;
                Some((a0, read.min(MAX_PRINT_BYTES) as u32))
            }
            _ => None,
        }
    }

    // Inlined into both commit loops (`Machine::run` and the watched copy),
    // as it was into the single loop before the watched one existed.
    #[inline(always)]
    pub(crate) fn execute(&mut self, pc: u32, inst: Inst) -> Step {
        use Inst::*;
        let branch = |cond: bool, off: i16| -> Step {
            if cond {
                Step::Goto(pc.wrapping_add(4).wrapping_add(((off as i32) << 2) as u32))
            } else {
                Step::Next
            }
        };
        match inst {
            Sll { rd, rt, sh } => self.set_reg(rd, self.reg(rt) << sh),
            Srl { rd, rt, sh } => self.set_reg(rd, self.reg(rt) >> sh),
            Sra { rd, rt, sh } => self.set_reg(rd, ((self.reg(rt) as i32) >> sh) as u32),
            Sllv { rd, rt, rs } => self.set_reg(rd, self.reg(rt) << (self.reg(rs) & 31)),
            Srlv { rd, rt, rs } => self.set_reg(rd, self.reg(rt) >> (self.reg(rs) & 31)),
            Srav { rd, rt, rs } => {
                self.set_reg(rd, ((self.reg(rt) as i32) >> (self.reg(rs) & 31)) as u32)
            }
            Jr { rs } => return Step::Goto(self.reg(rs)),
            Jalr { rd, rs } => {
                let target = self.reg(rs);
                self.set_reg(rd, pc.wrapping_add(4));
                return Step::Goto(target);
            }
            Syscall => return self.syscall(pc),
            Break => return Step::Stop(Outcome::Fault(Fault::Break { pc })),
            Mul { rd, rs, rt } => {
                self.stats.cycles += self.config.mul_extra;
                self.set_reg(rd, self.reg(rs).wrapping_mul(self.reg(rt)));
            }
            Div { rd, rs, rt } => {
                self.stats.cycles += self.config.div_extra;
                let (a, b) = (self.reg(rs) as i32, self.reg(rt) as i32);
                self.set_reg(rd, if b == 0 { 0 } else { a.wrapping_div(b) as u32 });
            }
            Rem { rd, rs, rt } => {
                self.stats.cycles += self.config.div_extra;
                let (a, b) = (self.reg(rs) as i32, self.reg(rt) as i32);
                self.set_reg(rd, if b == 0 { 0 } else { a.wrapping_rem(b) as u32 });
            }
            Add { rd, rs, rt } | Addu { rd, rs, rt } => {
                self.set_reg(rd, self.reg(rs).wrapping_add(self.reg(rt)))
            }
            Sub { rd, rs, rt } | Subu { rd, rs, rt } => {
                self.set_reg(rd, self.reg(rs).wrapping_sub(self.reg(rt)))
            }
            And { rd, rs, rt } => self.set_reg(rd, self.reg(rs) & self.reg(rt)),
            Or { rd, rs, rt } => self.set_reg(rd, self.reg(rs) | self.reg(rt)),
            Xor { rd, rs, rt } => self.set_reg(rd, self.reg(rs) ^ self.reg(rt)),
            Nor { rd, rs, rt } => self.set_reg(rd, !(self.reg(rs) | self.reg(rt))),
            Slt { rd, rs, rt } => {
                self.set_reg(rd, u32::from((self.reg(rs) as i32) < (self.reg(rt) as i32)))
            }
            Sltu { rd, rs, rt } => self.set_reg(rd, u32::from(self.reg(rs) < self.reg(rt))),
            Addi { rt, rs, imm } => self.set_reg(rt, self.reg(rs).wrapping_add(imm as i32 as u32)),
            Slti { rt, rs, imm } => {
                self.set_reg(rt, u32::from((self.reg(rs) as i32) < i32::from(imm)))
            }
            Sltiu { rt, rs, imm } => {
                self.set_reg(rt, u32::from(self.reg(rs) < (imm as i32 as u32)))
            }
            Andi { rt, rs, imm } => self.set_reg(rt, self.reg(rs) & u32::from(imm)),
            Ori { rt, rs, imm } => self.set_reg(rt, self.reg(rs) | u32::from(imm)),
            Xori { rt, rs, imm } => self.set_reg(rt, self.reg(rs) ^ u32::from(imm)),
            Lui { rt, imm } => self.set_reg(rt, u32::from(imm) << 16),
            Lb { rt, off, base } => {
                let addr = self.reg(base).wrapping_add(off as i32 as u32);
                self.data_access(addr, false);
                self.set_reg(rt, self.mem.read_u8(addr) as i8 as i32 as u32);
            }
            Lbu { rt, off, base } => {
                let addr = self.reg(base).wrapping_add(off as i32 as u32);
                self.data_access(addr, false);
                self.set_reg(rt, u32::from(self.mem.read_u8(addr)));
            }
            Lh { rt, off, base } => {
                let addr = self.reg(base).wrapping_add(off as i32 as u32);
                if !addr.is_multiple_of(2) {
                    return Step::Stop(Outcome::Fault(Fault::Unaligned { pc, addr }));
                }
                self.data_access(addr, false);
                self.set_reg(rt, self.mem.read_u16(addr) as i16 as i32 as u32);
            }
            Lhu { rt, off, base } => {
                let addr = self.reg(base).wrapping_add(off as i32 as u32);
                if !addr.is_multiple_of(2) {
                    return Step::Stop(Outcome::Fault(Fault::Unaligned { pc, addr }));
                }
                self.data_access(addr, false);
                self.set_reg(rt, u32::from(self.mem.read_u16(addr)));
            }
            Lw { rt, off, base } => {
                let addr = self.reg(base).wrapping_add(off as i32 as u32);
                if !addr.is_multiple_of(4) {
                    return Step::Stop(Outcome::Fault(Fault::Unaligned { pc, addr }));
                }
                self.data_access(addr, false);
                self.set_reg(rt, self.mem.read_u32(addr));
            }
            Sb { rt, off, base } => {
                let addr = self.reg(base).wrapping_add(off as i32 as u32);
                self.data_access(addr, true);
                self.mem.write_u8(addr, self.reg(rt) as u8);
                self.note_text_write(addr);
            }
            Sh { rt, off, base } => {
                let addr = self.reg(base).wrapping_add(off as i32 as u32);
                if !addr.is_multiple_of(2) {
                    return Step::Stop(Outcome::Fault(Fault::Unaligned { pc, addr }));
                }
                self.data_access(addr, true);
                self.mem.write_u16(addr, self.reg(rt) as u16);
                self.note_text_write(addr);
            }
            Sw { rt, off, base } => {
                let addr = self.reg(base).wrapping_add(off as i32 as u32);
                if !addr.is_multiple_of(4) {
                    return Step::Stop(Outcome::Fault(Fault::Unaligned { pc, addr }));
                }
                self.data_access(addr, true);
                self.mem.write_u32(addr, self.reg(rt));
                self.note_text_write(addr);
            }
            Beq { rs, rt, off } => return branch(self.reg(rs) == self.reg(rt), off),
            Bne { rs, rt, off } => return branch(self.reg(rs) != self.reg(rt), off),
            Blez { rs, off } => return branch(self.reg(rs) as i32 <= 0, off),
            Bgtz { rs, off } => return branch(self.reg(rs) as i32 > 0, off),
            Bltz { rs, off } => return branch((self.reg(rs) as i32) < 0, off),
            Bgez { rs, off } => return branch(self.reg(rs) as i32 >= 0, off),
            J { target } => return Step::Goto(target << 2),
            Jal { target } => {
                self.set_reg(Reg::RA, pc.wrapping_add(4));
                return Step::Goto(target << 2);
            }
        }
        Step::Next
    }

    // Inlined into `execute`, as it was before `execute` had two callers.
    #[inline(always)]
    fn syscall(&mut self, pc: u32) -> Step {
        self.stats.syscalls += 1;
        let service = self.reg(Reg::V0);
        let a0 = self.reg(Reg::A0);
        match service {
            1 => self.output.push_str(&(a0 as i32).to_string()),
            4 => {
                let bytes = self.mem.read_cstr(a0, MAX_PRINT_BYTES);
                self.output.push_str(&String::from_utf8_lossy(&bytes));
            }
            10 => return Step::Stop(Outcome::Exit(0)),
            11 => self.output.push((a0 as u8) as char),
            17 => return Step::Stop(Outcome::Exit(a0 as i32)),
            34 => self.output.push_str(&format!("{a0:08x}")),
            other => return Step::Stop(Outcome::Fault(Fault::BadSyscall { pc, service: other })),
        }
        Step::Next
    }
}
