//! Latency model of the FPGA decryption unit.

/// How long the decryption hardware takes to process a cache-line fill.
///
/// Two organisations are modelled, following the design-space axis of the
/// evaluation:
///
/// * **serial** — one word enters the unit only after the previous word
///   left: `startup + cycles_per_word × words`;
/// * **pipelined** — the unit keeps pace with the memory burst and only its
///   fill-through latency is exposed: `startup + cycles_per_word`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecryptModel {
    /// Cycles to process one word.
    pub cycles_per_word: u64,
    /// Fixed per-fill startup cost (key lookup, control).
    pub startup: u64,
    /// Whether word processing overlaps the memory burst.
    pub pipelined: bool,
}

impl DecryptModel {
    /// The largest `cycles_per_word` or `startup` an `FPM1` config may
    /// carry: 2^20 cycles, far beyond any modelled unit. Under it the
    /// penalty of one fill stays below 2^53 cycles for any line, so a
    /// hostile config cannot wrap it.
    pub const MAX_CYCLES: u64 = 1 << 20;

    /// A zero-cost model (decryption disabled or free).
    pub fn free() -> DecryptModel {
        DecryptModel {
            cycles_per_word: 0,
            startup: 0,
            pipelined: true,
        }
    }

    /// The baseline of the experiments: 2 cycles/word, 4-cycle startup,
    /// pipelined.
    pub fn baseline() -> DecryptModel {
        DecryptModel {
            cycles_per_word: 2,
            startup: 4,
            pipelined: true,
        }
    }

    /// Extra cycles for a fill in which `encrypted_words` of the line need
    /// decryption. Free when nothing in the line is encrypted.
    pub fn fill_penalty(&self, encrypted_words: u32) -> u64 {
        if encrypted_words == 0 {
            return 0;
        }
        if self.pipelined {
            self.startup + self.cycles_per_word
        } else {
            self.startup + self.cycles_per_word * u64::from(encrypted_words)
        }
    }
}

impl Default for DecryptModel {
    fn default() -> DecryptModel {
        DecryptModel::baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_model_costs_nothing() {
        assert_eq!(DecryptModel::free().fill_penalty(8), 0);
    }

    #[test]
    fn unencrypted_line_costs_nothing() {
        assert_eq!(DecryptModel::baseline().fill_penalty(0), 0);
        let serial = DecryptModel {
            cycles_per_word: 3,
            startup: 10,
            pipelined: false,
        };
        assert_eq!(serial.fill_penalty(0), 0);
    }

    #[test]
    fn serial_scales_with_words() {
        let m = DecryptModel {
            cycles_per_word: 3,
            startup: 2,
            pipelined: false,
        };
        assert_eq!(m.fill_penalty(1), 5);
        assert_eq!(m.fill_penalty(8), 26);
    }

    #[test]
    fn pipelined_is_flat() {
        let m = DecryptModel {
            cycles_per_word: 3,
            startup: 2,
            pipelined: true,
        };
        assert_eq!(m.fill_penalty(1), 5);
        assert_eq!(m.fill_penalty(8), 5);
    }
}
