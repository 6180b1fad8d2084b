//! Instruction definitions, binary encoding and decoding.
//!
//! SP32 uses three fixed 32-bit formats, modelled on MIPS32:
//!
//! ```text
//! R-type:  [31:26]=0x00  [25:21]=rs [20:16]=rt [15:11]=rd [10:6]=shamt [5:0]=funct
//! I-type:  [31:26]=op    [25:21]=rs [20:16]=rt [15:0]=imm
//! J-type:  [31:26]=op    [25:0]=target (word index, i.e. byte address >> 2)
//! ```
//!
//! Decoding is *strict*: unknown opcodes, unknown functs and non-zero
//! must-be-zero fields are all rejected. Strictness matters for the
//! protection system — a tampered or mis-decrypted word is likely to fault in
//! the decoder, which the simulator reports as an execution fault.

use std::fmt;

use crate::reg::Reg;

/// A decoded SP32 instruction.
///
/// Arithmetic is two's-complement and wrapping; SP32 has no overflow traps,
/// so `Add`/`Addu` (and `Sub`/`Subu`) differ only in encoding. Both exist so
/// that generated code — in particular register guards — can draw from a
/// larger pool of byte patterns.
///
/// # Example
///
/// ```
/// use flexprot_isa::{Inst, Reg};
///
/// let word = Inst::Jal { target: 0x10_0000 }.encode();
/// match Inst::decode(word)? {
///     Inst::Jal { target } => assert_eq!(target << 2, 0x40_0000),
///     other => panic!("decoded {other}"),
/// }
/// # Ok::<(), flexprot_isa::DecodeError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Inst {
    // --- R-type shifts (immediate shift amount) ---
    Sll { rd: Reg, rt: Reg, sh: u8 },
    Srl { rd: Reg, rt: Reg, sh: u8 },
    Sra { rd: Reg, rt: Reg, sh: u8 },
    // --- R-type shifts (register shift amount) ---
    Sllv { rd: Reg, rt: Reg, rs: Reg },
    Srlv { rd: Reg, rt: Reg, rs: Reg },
    Srav { rd: Reg, rt: Reg, rs: Reg },
    // --- R-type control ---
    Jr { rs: Reg },
    Jalr { rd: Reg, rs: Reg },
    Syscall,
    Break,
    // --- R-type three-operand ALU ---
    Mul { rd: Reg, rs: Reg, rt: Reg },
    Div { rd: Reg, rs: Reg, rt: Reg },
    Rem { rd: Reg, rs: Reg, rt: Reg },
    Add { rd: Reg, rs: Reg, rt: Reg },
    Addu { rd: Reg, rs: Reg, rt: Reg },
    Sub { rd: Reg, rs: Reg, rt: Reg },
    Subu { rd: Reg, rs: Reg, rt: Reg },
    And { rd: Reg, rs: Reg, rt: Reg },
    Or { rd: Reg, rs: Reg, rt: Reg },
    Xor { rd: Reg, rs: Reg, rt: Reg },
    Nor { rd: Reg, rs: Reg, rt: Reg },
    Slt { rd: Reg, rs: Reg, rt: Reg },
    Sltu { rd: Reg, rs: Reg, rt: Reg },
    // --- I-type ALU ---
    Addi { rt: Reg, rs: Reg, imm: i16 },
    Slti { rt: Reg, rs: Reg, imm: i16 },
    Sltiu { rt: Reg, rs: Reg, imm: i16 },
    Andi { rt: Reg, rs: Reg, imm: u16 },
    Ori { rt: Reg, rs: Reg, imm: u16 },
    Xori { rt: Reg, rs: Reg, imm: u16 },
    Lui { rt: Reg, imm: u16 },
    // --- Loads and stores: address = base + sign-extended offset ---
    Lb { rt: Reg, off: i16, base: Reg },
    Lh { rt: Reg, off: i16, base: Reg },
    Lw { rt: Reg, off: i16, base: Reg },
    Lbu { rt: Reg, off: i16, base: Reg },
    Lhu { rt: Reg, off: i16, base: Reg },
    Sb { rt: Reg, off: i16, base: Reg },
    Sh { rt: Reg, off: i16, base: Reg },
    Sw { rt: Reg, off: i16, base: Reg },
    // --- Branches: target = pc + 4 + (off << 2) ---
    Beq { rs: Reg, rt: Reg, off: i16 },
    Bne { rs: Reg, rt: Reg, off: i16 },
    Blez { rs: Reg, off: i16 },
    Bgtz { rs: Reg, off: i16 },
    Bltz { rs: Reg, off: i16 },
    Bgez { rs: Reg, off: i16 },
    // --- Jumps: target is a 26-bit word index ---
    J { target: u32 },
    Jal { target: u32 },
}

mod op {
    pub const RTYPE: u32 = 0x00;
    pub const REGIMM: u32 = 0x01;
    pub const J: u32 = 0x02;
    pub const JAL: u32 = 0x03;
    pub const BEQ: u32 = 0x04;
    pub const BNE: u32 = 0x05;
    pub const BLEZ: u32 = 0x06;
    pub const BGTZ: u32 = 0x07;
    pub const ADDI: u32 = 0x08;
    pub const SLTI: u32 = 0x0A;
    pub const SLTIU: u32 = 0x0B;
    pub const ANDI: u32 = 0x0C;
    pub const ORI: u32 = 0x0D;
    pub const XORI: u32 = 0x0E;
    pub const LUI: u32 = 0x0F;
    pub const LB: u32 = 0x20;
    pub const LH: u32 = 0x21;
    pub const LW: u32 = 0x23;
    pub const LBU: u32 = 0x24;
    pub const LHU: u32 = 0x25;
    pub const SB: u32 = 0x28;
    pub const SH: u32 = 0x29;
    pub const SW: u32 = 0x2B;
}

mod funct {
    pub const SLL: u32 = 0x00;
    pub const SRL: u32 = 0x02;
    pub const SRA: u32 = 0x03;
    pub const SLLV: u32 = 0x04;
    pub const SRLV: u32 = 0x06;
    pub const SRAV: u32 = 0x07;
    pub const JR: u32 = 0x08;
    pub const JALR: u32 = 0x09;
    pub const SYSCALL: u32 = 0x0C;
    pub const BREAK: u32 = 0x0D;
    pub const MUL: u32 = 0x18;
    pub const DIV: u32 = 0x1A;
    pub const REM: u32 = 0x1B;
    pub const ADD: u32 = 0x20;
    pub const ADDU: u32 = 0x21;
    pub const SUB: u32 = 0x22;
    pub const SUBU: u32 = 0x23;
    pub const AND: u32 = 0x24;
    pub const OR: u32 = 0x25;
    pub const XOR: u32 = 0x26;
    pub const NOR: u32 = 0x27;
    pub const SLT: u32 = 0x2A;
    pub const SLTU: u32 = 0x2B;
}

/// Error returned by [`Inst::decode`] for words that are not valid SP32
/// instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The primary opcode field is not assigned.
    UnknownOpcode { word: u32, opcode: u8 },
    /// An R-type word carries an unassigned funct field.
    UnknownFunct { word: u32, funct: u8 },
    /// A field that the format requires to be zero is non-zero.
    NonZeroField { word: u32 },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            DecodeError::UnknownOpcode { word, opcode } => {
                write!(f, "unknown opcode {opcode:#04x} in word {word:#010x}")
            }
            DecodeError::UnknownFunct { word, funct } => {
                write!(f, "unknown funct {funct:#04x} in word {word:#010x}")
            }
            DecodeError::NonZeroField { word } => {
                write!(f, "non-zero must-be-zero field in word {word:#010x}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

fn enc_r(rs: Reg, rt: Reg, rd: Reg, sh: u8, funct: u32) -> u32 {
    ((rs.index() as u32) << 21)
        | ((rt.index() as u32) << 16)
        | ((rd.index() as u32) << 11)
        | (((sh & 0x1F) as u32) << 6)
        | funct
}

fn enc_i(opcode: u32, rs: Reg, rt: Reg, imm: u16) -> u32 {
    (opcode << 26) | ((rs.index() as u32) << 21) | ((rt.index() as u32) << 16) | imm as u32
}

impl Inst {
    /// A canonical no-op (`sll $zero, $zero, 0`), encoding to the all-zero word.
    pub const NOP: Inst = Inst::Sll {
        rd: Reg::ZERO,
        rt: Reg::ZERO,
        sh: 0,
    };

    /// Encodes the instruction to its 32-bit binary form.
    pub fn encode(self) -> u32 {
        use Inst::*;
        let z = Reg::ZERO;
        match self {
            Sll { rd, rt, sh } => enc_r(z, rt, rd, sh, funct::SLL),
            Srl { rd, rt, sh } => enc_r(z, rt, rd, sh, funct::SRL),
            Sra { rd, rt, sh } => enc_r(z, rt, rd, sh, funct::SRA),
            Sllv { rd, rt, rs } => enc_r(rs, rt, rd, 0, funct::SLLV),
            Srlv { rd, rt, rs } => enc_r(rs, rt, rd, 0, funct::SRLV),
            Srav { rd, rt, rs } => enc_r(rs, rt, rd, 0, funct::SRAV),
            Jr { rs } => enc_r(rs, z, z, 0, funct::JR),
            Jalr { rd, rs } => enc_r(rs, z, rd, 0, funct::JALR),
            Syscall => funct::SYSCALL,
            Break => funct::BREAK,
            Mul { rd, rs, rt } => enc_r(rs, rt, rd, 0, funct::MUL),
            Div { rd, rs, rt } => enc_r(rs, rt, rd, 0, funct::DIV),
            Rem { rd, rs, rt } => enc_r(rs, rt, rd, 0, funct::REM),
            Add { rd, rs, rt } => enc_r(rs, rt, rd, 0, funct::ADD),
            Addu { rd, rs, rt } => enc_r(rs, rt, rd, 0, funct::ADDU),
            Sub { rd, rs, rt } => enc_r(rs, rt, rd, 0, funct::SUB),
            Subu { rd, rs, rt } => enc_r(rs, rt, rd, 0, funct::SUBU),
            And { rd, rs, rt } => enc_r(rs, rt, rd, 0, funct::AND),
            Or { rd, rs, rt } => enc_r(rs, rt, rd, 0, funct::OR),
            Xor { rd, rs, rt } => enc_r(rs, rt, rd, 0, funct::XOR),
            Nor { rd, rs, rt } => enc_r(rs, rt, rd, 0, funct::NOR),
            Slt { rd, rs, rt } => enc_r(rs, rt, rd, 0, funct::SLT),
            Sltu { rd, rs, rt } => enc_r(rs, rt, rd, 0, funct::SLTU),
            Addi { rt, rs, imm } => enc_i(op::ADDI, rs, rt, imm as u16),
            Slti { rt, rs, imm } => enc_i(op::SLTI, rs, rt, imm as u16),
            Sltiu { rt, rs, imm } => enc_i(op::SLTIU, rs, rt, imm as u16),
            Andi { rt, rs, imm } => enc_i(op::ANDI, rs, rt, imm),
            Ori { rt, rs, imm } => enc_i(op::ORI, rs, rt, imm),
            Xori { rt, rs, imm } => enc_i(op::XORI, rs, rt, imm),
            Lui { rt, imm } => enc_i(op::LUI, z, rt, imm),
            Lb { rt, off, base } => enc_i(op::LB, base, rt, off as u16),
            Lh { rt, off, base } => enc_i(op::LH, base, rt, off as u16),
            Lw { rt, off, base } => enc_i(op::LW, base, rt, off as u16),
            Lbu { rt, off, base } => enc_i(op::LBU, base, rt, off as u16),
            Lhu { rt, off, base } => enc_i(op::LHU, base, rt, off as u16),
            Sb { rt, off, base } => enc_i(op::SB, base, rt, off as u16),
            Sh { rt, off, base } => enc_i(op::SH, base, rt, off as u16),
            Sw { rt, off, base } => enc_i(op::SW, base, rt, off as u16),
            Beq { rs, rt, off } => enc_i(op::BEQ, rs, rt, off as u16),
            Bne { rs, rt, off } => enc_i(op::BNE, rs, rt, off as u16),
            Blez { rs, off } => enc_i(op::BLEZ, rs, z, off as u16),
            Bgtz { rs, off } => enc_i(op::BGTZ, rs, z, off as u16),
            Bltz { rs, off } => enc_i(op::REGIMM, rs, z, off as u16),
            Bgez { rs, off } => enc_i(op::REGIMM, rs, Reg::AT, off as u16),
            J { target } => (op::J << 26) | (target & 0x03FF_FFFF),
            Jal { target } => (op::JAL << 26) | (target & 0x03FF_FFFF),
        }
    }

    /// Decodes a 32-bit word.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] for unassigned opcodes or functs and for
    /// non-zero must-be-zero fields; the decoder accepts exactly the image of
    /// [`Inst::encode`].
    pub fn decode(word: u32) -> Result<Inst, DecodeError> {
        let opcode = word >> 26;
        let rs = Reg::from_bits(word >> 21);
        let rt = Reg::from_bits(word >> 16);
        let rd = Reg::from_bits(word >> 11);
        let sh = ((word >> 6) & 0x1F) as u8;
        let imm = (word & 0xFFFF) as u16;
        let simm = imm as i16;
        let nonzero = |cond: bool| -> Result<(), DecodeError> {
            if cond {
                Err(DecodeError::NonZeroField { word })
            } else {
                Ok(())
            }
        };
        use Inst::*;
        let inst = match opcode {
            op::RTYPE => {
                let f = word & 0x3F;
                match f {
                    funct::SLL => {
                        nonzero(rs != Reg::ZERO)?;
                        Sll { rd, rt, sh }
                    }
                    funct::SRL => {
                        nonzero(rs != Reg::ZERO)?;
                        Srl { rd, rt, sh }
                    }
                    funct::SRA => {
                        nonzero(rs != Reg::ZERO)?;
                        Sra { rd, rt, sh }
                    }
                    funct::SLLV => {
                        nonzero(sh != 0)?;
                        Sllv { rd, rt, rs }
                    }
                    funct::SRLV => {
                        nonzero(sh != 0)?;
                        Srlv { rd, rt, rs }
                    }
                    funct::SRAV => {
                        nonzero(sh != 0)?;
                        Srav { rd, rt, rs }
                    }
                    funct::JR => {
                        nonzero(rt != Reg::ZERO || rd != Reg::ZERO || sh != 0)?;
                        Jr { rs }
                    }
                    funct::JALR => {
                        nonzero(rt != Reg::ZERO || sh != 0)?;
                        Jalr { rd, rs }
                    }
                    funct::SYSCALL => {
                        nonzero(word >> 6 != 0)?;
                        Syscall
                    }
                    funct::BREAK => {
                        nonzero(word >> 6 != 0)?;
                        Break
                    }
                    funct::MUL => {
                        nonzero(sh != 0)?;
                        Mul { rd, rs, rt }
                    }
                    funct::DIV => {
                        nonzero(sh != 0)?;
                        Div { rd, rs, rt }
                    }
                    funct::REM => {
                        nonzero(sh != 0)?;
                        Rem { rd, rs, rt }
                    }
                    funct::ADD => {
                        nonzero(sh != 0)?;
                        Add { rd, rs, rt }
                    }
                    funct::ADDU => {
                        nonzero(sh != 0)?;
                        Addu { rd, rs, rt }
                    }
                    funct::SUB => {
                        nonzero(sh != 0)?;
                        Sub { rd, rs, rt }
                    }
                    funct::SUBU => {
                        nonzero(sh != 0)?;
                        Subu { rd, rs, rt }
                    }
                    funct::AND => {
                        nonzero(sh != 0)?;
                        And { rd, rs, rt }
                    }
                    funct::OR => {
                        nonzero(sh != 0)?;
                        Or { rd, rs, rt }
                    }
                    funct::XOR => {
                        nonzero(sh != 0)?;
                        Xor { rd, rs, rt }
                    }
                    funct::NOR => {
                        nonzero(sh != 0)?;
                        Nor { rd, rs, rt }
                    }
                    funct::SLT => {
                        nonzero(sh != 0)?;
                        Slt { rd, rs, rt }
                    }
                    funct::SLTU => {
                        nonzero(sh != 0)?;
                        Sltu { rd, rs, rt }
                    }
                    _ => {
                        return Err(DecodeError::UnknownFunct {
                            word,
                            funct: f as u8,
                        })
                    }
                }
            }
            op::REGIMM => match rt {
                Reg::ZERO => Bltz { rs, off: simm },
                Reg::AT => Bgez { rs, off: simm },
                _ => return Err(DecodeError::NonZeroField { word }),
            },
            op::J => J {
                target: word & 0x03FF_FFFF,
            },
            op::JAL => Jal {
                target: word & 0x03FF_FFFF,
            },
            op::BEQ => Beq { rs, rt, off: simm },
            op::BNE => Bne { rs, rt, off: simm },
            op::BLEZ => {
                nonzero(rt != Reg::ZERO)?;
                Blez { rs, off: simm }
            }
            op::BGTZ => {
                nonzero(rt != Reg::ZERO)?;
                Bgtz { rs, off: simm }
            }
            op::ADDI => Addi { rt, rs, imm: simm },
            op::SLTI => Slti { rt, rs, imm: simm },
            op::SLTIU => Sltiu { rt, rs, imm: simm },
            op::ANDI => Andi { rt, rs, imm },
            op::ORI => Ori { rt, rs, imm },
            op::XORI => Xori { rt, rs, imm },
            op::LUI => {
                nonzero(rs != Reg::ZERO)?;
                Lui { rt, imm }
            }
            op::LB => Lb {
                rt,
                off: simm,
                base: rs,
            },
            op::LH => Lh {
                rt,
                off: simm,
                base: rs,
            },
            op::LW => Lw {
                rt,
                off: simm,
                base: rs,
            },
            op::LBU => Lbu {
                rt,
                off: simm,
                base: rs,
            },
            op::LHU => Lhu {
                rt,
                off: simm,
                base: rs,
            },
            op::SB => Sb {
                rt,
                off: simm,
                base: rs,
            },
            op::SH => Sh {
                rt,
                off: simm,
                base: rs,
            },
            op::SW => Sw {
                rt,
                off: simm,
                base: rs,
            },
            _ => {
                return Err(DecodeError::UnknownOpcode {
                    word,
                    opcode: opcode as u8,
                })
            }
        };
        Ok(inst)
    }

    /// Whether this is a conditional branch (PC-relative, two-way).
    pub fn is_branch(self) -> bool {
        matches!(
            self,
            Inst::Beq { .. }
                | Inst::Bne { .. }
                | Inst::Blez { .. }
                | Inst::Bgtz { .. }
                | Inst::Bltz { .. }
                | Inst::Bgez { .. }
        )
    }

    /// Whether this is an unconditional direct jump (`j`/`jal`).
    pub fn is_direct_jump(self) -> bool {
        matches!(self, Inst::J { .. } | Inst::Jal { .. })
    }

    /// Whether this is an indirect jump through a register (`jr`/`jalr`).
    pub fn is_indirect_jump(self) -> bool {
        matches!(self, Inst::Jr { .. } | Inst::Jalr { .. })
    }

    /// Whether this instruction may redirect control flow (branch, jump, or
    /// `syscall`, which can terminate the program).
    pub fn is_control_transfer(self) -> bool {
        self.is_branch()
            || self.is_direct_jump()
            || self.is_indirect_jump()
            || matches!(self, Inst::Syscall | Inst::Break)
    }

    /// The branch target address, if this is a conditional branch at `pc`.
    pub fn branch_target(self, pc: u32) -> Option<u32> {
        let off = match self {
            Inst::Beq { off, .. }
            | Inst::Bne { off, .. }
            | Inst::Blez { off, .. }
            | Inst::Bgtz { off, .. }
            | Inst::Bltz { off, .. }
            | Inst::Bgez { off, .. } => off,
            _ => return None,
        };
        Some(pc.wrapping_add(4).wrapping_add(((off as i32) << 2) as u32))
    }

    /// The absolute jump target address, if this is a direct jump.
    pub fn jump_target(self) -> Option<u32> {
        match self {
            Inst::J { target } | Inst::Jal { target } => Some(target << 2),
            _ => None,
        }
    }

    /// Whether the instruction writes memory.
    pub fn is_store(self) -> bool {
        matches!(self, Inst::Sb { .. } | Inst::Sh { .. } | Inst::Sw { .. })
    }

    /// The register this instruction writes, if any.
    ///
    /// Writes to `$zero` are still reported; callers that care about
    /// architectural effect should filter them.
    pub fn def(self) -> Option<Reg> {
        use Inst::*;
        match self {
            Sll { rd, .. }
            | Srl { rd, .. }
            | Sra { rd, .. }
            | Sllv { rd, .. }
            | Srlv { rd, .. }
            | Srav { rd, .. }
            | Jalr { rd, .. }
            | Mul { rd, .. }
            | Div { rd, .. }
            | Rem { rd, .. }
            | Add { rd, .. }
            | Addu { rd, .. }
            | Sub { rd, .. }
            | Subu { rd, .. }
            | And { rd, .. }
            | Or { rd, .. }
            | Xor { rd, .. }
            | Nor { rd, .. }
            | Slt { rd, .. }
            | Sltu { rd, .. } => Some(rd),
            Addi { rt, .. }
            | Slti { rt, .. }
            | Sltiu { rt, .. }
            | Andi { rt, .. }
            | Ori { rt, .. }
            | Xori { rt, .. }
            | Lui { rt, .. }
            | Lb { rt, .. }
            | Lh { rt, .. }
            | Lw { rt, .. }
            | Lbu { rt, .. }
            | Lhu { rt, .. } => Some(rt),
            Jal { .. } => Some(Reg::RA),
            _ => None,
        }
    }

    /// The registers this instruction reads (up to two).
    pub fn uses(self) -> [Option<Reg>; 2] {
        use Inst::*;
        match self {
            Sll { rt, .. } | Srl { rt, .. } | Sra { rt, .. } => [Some(rt), None],
            Sllv { rt, rs, .. } | Srlv { rt, rs, .. } | Srav { rt, rs, .. } => [Some(rt), Some(rs)],
            Jr { rs } | Jalr { rs, .. } => [Some(rs), None],
            Syscall => [Some(Reg::V0), Some(Reg::A0)],
            Break | Lui { .. } | J { .. } | Jal { .. } => [None, None],
            Mul { rs, rt, .. }
            | Div { rs, rt, .. }
            | Rem { rs, rt, .. }
            | Add { rs, rt, .. }
            | Addu { rs, rt, .. }
            | Sub { rs, rt, .. }
            | Subu { rs, rt, .. }
            | And { rs, rt, .. }
            | Or { rs, rt, .. }
            | Xor { rs, rt, .. }
            | Nor { rs, rt, .. }
            | Slt { rs, rt, .. }
            | Sltu { rs, rt, .. } => [Some(rs), Some(rt)],
            Addi { rs, .. }
            | Slti { rs, .. }
            | Sltiu { rs, .. }
            | Andi { rs, .. }
            | Ori { rs, .. }
            | Xori { rs, .. } => [Some(rs), None],
            Lb { base, .. }
            | Lh { base, .. }
            | Lw { base, .. }
            | Lbu { base, .. }
            | Lhu { base, .. } => [Some(base), None],
            Sb { rt, base, .. } | Sh { rt, base, .. } | Sw { rt, base, .. } => {
                [Some(base), Some(rt)]
            }
            Beq { rs, rt, .. } | Bne { rs, rt, .. } => [Some(rs), Some(rt)],
            Blez { rs, .. } | Bgtz { rs, .. } | Bltz { rs, .. } | Bgez { rs, .. } => {
                [Some(rs), None]
            }
        }
    }

    /// The mnemonic, as printed by the disassembler.
    pub fn mnemonic(self) -> &'static str {
        use Inst::*;
        match self {
            Sll { .. } => "sll",
            Srl { .. } => "srl",
            Sra { .. } => "sra",
            Sllv { .. } => "sllv",
            Srlv { .. } => "srlv",
            Srav { .. } => "srav",
            Jr { .. } => "jr",
            Jalr { .. } => "jalr",
            Syscall => "syscall",
            Break => "break",
            Mul { .. } => "mul",
            Div { .. } => "div",
            Rem { .. } => "rem",
            Add { .. } => "add",
            Addu { .. } => "addu",
            Sub { .. } => "sub",
            Subu { .. } => "subu",
            And { .. } => "and",
            Or { .. } => "or",
            Xor { .. } => "xor",
            Nor { .. } => "nor",
            Slt { .. } => "slt",
            Sltu { .. } => "sltu",
            Addi { .. } => "addi",
            Slti { .. } => "slti",
            Sltiu { .. } => "sltiu",
            Andi { .. } => "andi",
            Ori { .. } => "ori",
            Xori { .. } => "xori",
            Lui { .. } => "lui",
            Lb { .. } => "lb",
            Lh { .. } => "lh",
            Lw { .. } => "lw",
            Lbu { .. } => "lbu",
            Lhu { .. } => "lhu",
            Sb { .. } => "sb",
            Sh { .. } => "sh",
            Sw { .. } => "sw",
            Beq { .. } => "beq",
            Bne { .. } => "bne",
            Blez { .. } => "blez",
            Bgtz { .. } => "bgtz",
            Bltz { .. } => "bltz",
            Bgez { .. } => "bgez",
            J { .. } => "j",
            Jal { .. } => "jal",
        }
    }
}

impl fmt::Display for Inst {
    /// Disassembles to assembler-compatible text.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Inst::*;
        let m = self.mnemonic();
        match *self {
            Sll { rd, rt, sh } | Srl { rd, rt, sh } | Sra { rd, rt, sh } => {
                write!(f, "{m} {rd}, {rt}, {sh}")
            }
            Sllv { rd, rt, rs } | Srlv { rd, rt, rs } | Srav { rd, rt, rs } => {
                write!(f, "{m} {rd}, {rt}, {rs}")
            }
            Jr { rs } => write!(f, "{m} {rs}"),
            Jalr { rd, rs } => write!(f, "{m} {rd}, {rs}"),
            Syscall | Break => write!(f, "{m}"),
            Mul { rd, rs, rt }
            | Div { rd, rs, rt }
            | Rem { rd, rs, rt }
            | Add { rd, rs, rt }
            | Addu { rd, rs, rt }
            | Sub { rd, rs, rt }
            | Subu { rd, rs, rt }
            | And { rd, rs, rt }
            | Or { rd, rs, rt }
            | Xor { rd, rs, rt }
            | Nor { rd, rs, rt }
            | Slt { rd, rs, rt }
            | Sltu { rd, rs, rt } => write!(f, "{m} {rd}, {rs}, {rt}"),
            Addi { rt, rs, imm } | Slti { rt, rs, imm } | Sltiu { rt, rs, imm } => {
                write!(f, "{m} {rt}, {rs}, {imm}")
            }
            Andi { rt, rs, imm } | Ori { rt, rs, imm } | Xori { rt, rs, imm } => {
                write!(f, "{m} {rt}, {rs}, {imm}")
            }
            Lui { rt, imm } => write!(f, "{m} {rt}, {imm}"),
            Lb { rt, off, base }
            | Lh { rt, off, base }
            | Lw { rt, off, base }
            | Lbu { rt, off, base }
            | Lhu { rt, off, base }
            | Sb { rt, off, base }
            | Sh { rt, off, base }
            | Sw { rt, off, base } => {
                write!(f, "{m} {rt}, {off}({base})")
            }
            Beq { rs, rt, off } | Bne { rs, rt, off } => write!(f, "{m} {rs}, {rt}, {off}"),
            Blez { rs, off } | Bgtz { rs, off } | Bltz { rs, off } | Bgez { rs, off } => {
                write!(f, "{m} {rs}, {off}")
            }
            J { target } | Jal { target } => write!(f, "{m} {:#x}", target << 2),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_instructions() -> Vec<Inst> {
        use Inst::*;
        let (a, b, c) = (Reg::T0, Reg::S1, Reg::A2);
        vec![
            Sll {
                rd: a,
                rt: b,
                sh: 7,
            },
            Srl {
                rd: a,
                rt: b,
                sh: 31,
            },
            Sra {
                rd: a,
                rt: b,
                sh: 1,
            },
            Sllv {
                rd: a,
                rt: b,
                rs: c,
            },
            Srlv {
                rd: a,
                rt: b,
                rs: c,
            },
            Srav {
                rd: a,
                rt: b,
                rs: c,
            },
            Jr { rs: Reg::RA },
            Jalr { rd: Reg::RA, rs: a },
            Syscall,
            Break,
            Mul {
                rd: a,
                rs: b,
                rt: c,
            },
            Div {
                rd: a,
                rs: b,
                rt: c,
            },
            Rem {
                rd: a,
                rs: b,
                rt: c,
            },
            Add {
                rd: a,
                rs: b,
                rt: c,
            },
            Addu {
                rd: a,
                rs: b,
                rt: c,
            },
            Sub {
                rd: a,
                rs: b,
                rt: c,
            },
            Subu {
                rd: a,
                rs: b,
                rt: c,
            },
            And {
                rd: a,
                rs: b,
                rt: c,
            },
            Or {
                rd: a,
                rs: b,
                rt: c,
            },
            Xor {
                rd: a,
                rs: b,
                rt: c,
            },
            Nor {
                rd: a,
                rs: b,
                rt: c,
            },
            Slt {
                rd: a,
                rs: b,
                rt: c,
            },
            Sltu {
                rd: a,
                rs: b,
                rt: c,
            },
            Addi {
                rt: a,
                rs: b,
                imm: -3,
            },
            Slti {
                rt: a,
                rs: b,
                imm: 100,
            },
            Sltiu {
                rt: a,
                rs: b,
                imm: -1,
            },
            Andi {
                rt: a,
                rs: b,
                imm: 0xFFFF,
            },
            Ori {
                rt: a,
                rs: b,
                imm: 0x8000,
            },
            Xori {
                rt: a,
                rs: b,
                imm: 1,
            },
            Lui { rt: a, imm: 0x1001 },
            Lb {
                rt: a,
                off: -4,
                base: b,
            },
            Lh {
                rt: a,
                off: 2,
                base: b,
            },
            Lw {
                rt: a,
                off: 0,
                base: Reg::SP,
            },
            Lbu {
                rt: a,
                off: 1,
                base: b,
            },
            Lhu {
                rt: a,
                off: 6,
                base: b,
            },
            Sb {
                rt: a,
                off: -1,
                base: b,
            },
            Sh {
                rt: a,
                off: 8,
                base: b,
            },
            Sw {
                rt: a,
                off: 4,
                base: Reg::SP,
            },
            Beq {
                rs: a,
                rt: b,
                off: -2,
            },
            Bne {
                rs: a,
                rt: b,
                off: 5,
            },
            Blez { rs: a, off: 3 },
            Bgtz { rs: a, off: -8 },
            Bltz { rs: a, off: 12 },
            Bgez { rs: a, off: -12 },
            J { target: 0x10_0000 },
            Jal { target: 0x3FF_FFFF },
        ]
    }

    #[test]
    fn encode_decode_round_trip() {
        for inst in sample_instructions() {
            let word = inst.encode();
            assert_eq!(Inst::decode(word), Ok(inst), "word {word:#010x}");
        }
    }

    #[test]
    fn nop_is_all_zero() {
        assert_eq!(Inst::NOP.encode(), 0);
        assert_eq!(Inst::decode(0), Ok(Inst::NOP));
    }

    #[test]
    fn unknown_opcode_rejected() {
        let word = 0x3F << 26;
        assert_eq!(
            Inst::decode(word),
            Err(DecodeError::UnknownOpcode { word, opcode: 0x3F })
        );
    }

    #[test]
    fn unknown_funct_rejected() {
        let word = 0x3F;
        assert_eq!(
            Inst::decode(word),
            Err(DecodeError::UnknownFunct { word, funct: 0x3F })
        );
    }

    #[test]
    fn nonzero_required_zero_field_rejected() {
        // sll with rs != 0
        let word = enc_r(Reg::T0, Reg::T1, Reg::T2, 3, funct::SLL);
        assert_eq!(Inst::decode(word), Err(DecodeError::NonZeroField { word }));
        // syscall with stray bits
        let word = (1 << 6) | funct::SYSCALL;
        assert_eq!(Inst::decode(word), Err(DecodeError::NonZeroField { word }));
    }

    #[test]
    fn branch_target_arithmetic() {
        let b = Inst::Beq {
            rs: Reg::T0,
            rt: Reg::ZERO,
            off: -2,
        };
        // pc + 4 + (-2 << 2) = pc - 4
        assert_eq!(b.branch_target(0x0040_0010), Some(0x0040_000C));
        let f = Inst::Bne {
            rs: Reg::T0,
            rt: Reg::ZERO,
            off: 3,
        };
        assert_eq!(f.branch_target(0x0040_0000), Some(0x0040_0010));
    }

    #[test]
    fn jump_target_shifts_word_index() {
        assert_eq!(Inst::J { target: 0x10_0000 }.jump_target(), Some(0x40_0000));
        assert_eq!(Inst::Jal { target: 1 }.jump_target(), Some(4));
        assert_eq!(Inst::Syscall.jump_target(), None);
    }

    #[test]
    fn classification_predicates() {
        let beq = Inst::Beq {
            rs: Reg::T0,
            rt: Reg::T1,
            off: 1,
        };
        assert!(beq.is_branch());
        assert!(beq.is_control_transfer());
        let j = Inst::J { target: 0 };
        assert!(j.is_direct_jump());
        let jr = Inst::Jr { rs: Reg::RA };
        assert!(jr.is_indirect_jump());
        assert!(Inst::Syscall.is_control_transfer());
        let lw = Inst::Lw {
            rt: Reg::T0,
            off: 0,
            base: Reg::SP,
        };
        assert!(!lw.is_store());
        let sw = Inst::Sw {
            rt: Reg::T0,
            off: 0,
            base: Reg::SP,
        };
        assert!(sw.is_store());
    }

    #[test]
    fn def_and_uses() {
        let add = Inst::Add {
            rd: Reg::T0,
            rs: Reg::T1,
            rt: Reg::T2,
        };
        assert_eq!(add.def(), Some(Reg::T0));
        assert_eq!(add.uses(), [Some(Reg::T1), Some(Reg::T2)]);
        assert_eq!(Inst::Jal { target: 0 }.def(), Some(Reg::RA));
        assert_eq!(Inst::Jr { rs: Reg::RA }.def(), None);
        let sw = Inst::Sw {
            rt: Reg::T3,
            off: 0,
            base: Reg::SP,
        };
        assert_eq!(sw.def(), None);
        assert_eq!(sw.uses(), [Some(Reg::SP), Some(Reg::T3)]);
    }

    #[test]
    fn display_formats() {
        let inst = Inst::Addu {
            rd: Reg::ZERO,
            rs: Reg::T3,
            rt: Reg::S5,
        };
        assert_eq!(inst.to_string(), "addu $zero, $t3, $s5");
        let lw = Inst::Lw {
            rt: Reg::A0,
            off: -8,
            base: Reg::FP,
        };
        assert_eq!(lw.to_string(), "lw $a0, -8($fp)");
        assert_eq!(Inst::Syscall.to_string(), "syscall");
        assert_eq!(Inst::J { target: 4 }.to_string(), "j 0x10");
    }

    #[test]
    fn decode_is_exhaustive_over_encode_space() {
        // Every decodable word must re-encode to itself (decoder accepts
        // exactly the image of encode).
        let mut checked = 0u32;
        for hi in 0..64u32 {
            for sample in [0u32, 0x0155_5555, 0x02AA_AAAA, 0x03FF_FFFF] {
                let word = (hi << 26) | sample;
                if let Ok(inst) = Inst::decode(word) {
                    assert_eq!(inst.encode(), word, "word {word:#010x} decoded to {inst}");
                    checked += 1;
                }
            }
        }
        assert!(checked > 0);
    }
}
