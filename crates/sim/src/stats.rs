//! Execution statistics and fault classification.

use std::fmt;

/// Why execution aborted abnormally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// A fetched word failed to decode.
    IllegalInstruction { pc: u32, word: u32 },
    /// A load/store address violated its natural alignment.
    Unaligned { pc: u32, addr: u32 },
    /// The program counter left the text segment.
    WildPc { pc: u32 },
    /// A `break` instruction was executed.
    Break { pc: u32 },
    /// An unknown syscall service was requested.
    BadSyscall { pc: u32, service: u32 },
}

impl Fault {
    /// The faulting program counter.
    pub fn pc(&self) -> u32 {
        match *self {
            Fault::IllegalInstruction { pc, .. }
            | Fault::Unaligned { pc, .. }
            | Fault::WildPc { pc }
            | Fault::Break { pc }
            | Fault::BadSyscall { pc, .. } => pc,
        }
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Fault::IllegalInstruction { pc, word } => {
                write!(f, "illegal instruction {word:#010x} at {pc:#010x}")
            }
            Fault::Unaligned { pc, addr } => {
                write!(f, "unaligned access to {addr:#010x} at {pc:#010x}")
            }
            Fault::WildPc { pc } => write!(f, "pc {pc:#010x} left the text segment"),
            Fault::Break { pc } => write!(f, "break at {pc:#010x}"),
            Fault::BadSyscall { pc, service } => {
                write!(f, "unknown syscall service {service} at {pc:#010x}")
            }
        }
    }
}

/// Counters gathered while simulating.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stats {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Committed instructions.
    pub instructions: u64,
    /// I-cache accesses: one per fetch. Every committed instruction was
    /// fetched once, and so was the word that ends a run by failing to
    /// decode or by tripping the monitor, which never commits: such a run
    /// ends with one access more than it has instructions.
    pub icache_accesses: u64,
    /// I-cache misses.
    pub icache_misses: u64,
    /// Cycles spent in the monitor's fill penalty (decryption hardware).
    pub monitor_fill_cycles: u64,
    /// D-cache accesses.
    pub dcache_accesses: u64,
    /// D-cache misses.
    pub dcache_misses: u64,
    /// Dirty lines written back.
    pub dcache_writebacks: u64,
    /// Taken control transfers (branches taken, jumps, returns).
    pub taken_transfers: u64,
    /// Syscalls executed.
    pub syscalls: u64,
}

impl Stats {
    /// Cycles per instruction; zero when nothing ran.
    pub fn cpi(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.cycles as f64 / self.instructions as f64
        }
    }

    /// I-cache miss rate in `[0, 1]`.
    pub fn icache_miss_rate(&self) -> f64 {
        if self.icache_accesses == 0 {
            0.0
        } else {
            self.icache_misses as f64 / self.icache_accesses as f64
        }
    }

    /// D-cache miss rate in `[0, 1]`.
    pub fn dcache_miss_rate(&self) -> f64 {
        if self.dcache_accesses == 0 {
            0.0
        } else {
            self.dcache_misses as f64 / self.dcache_accesses as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_handle_zero_denominators() {
        let s = Stats::default();
        assert_eq!(s.cpi(), 0.0);
        assert_eq!(s.icache_miss_rate(), 0.0);
        assert_eq!(s.dcache_miss_rate(), 0.0);
    }

    #[test]
    fn rates_compute() {
        let s = Stats {
            cycles: 150,
            instructions: 100,
            icache_accesses: 100,
            icache_misses: 10,
            dcache_accesses: 50,
            dcache_misses: 5,
            ..Stats::default()
        };
        assert!((s.cpi() - 1.5).abs() < 1e-12);
        assert!((s.icache_miss_rate() - 0.1).abs() < 1e-12);
        assert!((s.dcache_miss_rate() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn fault_display_and_pc() {
        let f = Fault::IllegalInstruction {
            pc: 0x0040_0000,
            word: 0xFFFF_FFFF,
        };
        assert!(f.to_string().contains("illegal instruction"));
        assert_eq!(f.pc(), 0x0040_0000);
        assert_eq!(Fault::WildPc { pc: 4 }.pc(), 4);
    }
}
