//! Instruction-stream encryption pass.
//!
//! Encrypts text-segment words with the per-address keystream cipher, at
//! one of three keying granularities (the evaluation's F2 axis):
//!
//! * **program** — a single key for the whole text segment;
//! * **function** — a subkey per function, so leaking one function's key
//!   exposes nothing else;
//! * **block** — a subkey per basic block, the finest (and most
//!   region-table-hungry) option.
//!
//! The pass must run *after* guard insertion: it encrypts the final layout,
//! and guard signatures are computed over plaintext (the monitor hashes
//! post-decrypt words).

use std::collections::BTreeSet;

use flexprot_isa::Image;
use flexprot_secmon::cipher::{derive_subkey, keystream, EncRegion, RegionTable};
use flexprot_secmon::decrypt::DecryptModel;

use crate::cfg::Cfg;
use crate::error::ProtectError;

/// Keying granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Granularity {
    /// One key for the whole text segment.
    Program,
    /// One subkey per recovered function.
    Function,
    /// One subkey per basic block.
    Block,
}

/// The fixed encryption master key of the CLI drivers' defaults and the
/// evaluation (callers wanting secrecy supply their own).
pub const DEFAULT_ENC_KEY: u64 = 0x5EED_5EED_5EED_5EED;

/// Configuration of the encryption pass.
#[derive(Debug, Clone, PartialEq)]
pub struct EncryptConfig {
    /// Master key from which region subkeys are derived.
    pub master_key: u64,
    /// Keying granularity.
    pub granularity: Granularity,
    /// Decryption-unit latency model provisioned into the monitor.
    pub model: DecryptModel,
    /// Restrict encryption to these functions (by symbol name); `None`
    /// encrypts everything.
    pub scope: Option<BTreeSet<String>>,
}

impl EncryptConfig {
    /// Whole-program encryption with the baseline decrypt model.
    pub fn whole_program(master_key: u64) -> EncryptConfig {
        EncryptConfig {
            master_key,
            granularity: Granularity::Program,
            model: DecryptModel::baseline(),
            scope: None,
        }
    }
}

/// The product of the encryption pass.
#[derive(Debug, Clone, PartialEq)]
pub struct EncryptOutcome {
    /// Image whose text words are now ciphertext inside the regions.
    pub image: Image,
    /// Region table for the monitor.
    pub regions: RegionTable,
    /// The latency model for the monitor.
    pub model: DecryptModel,
}

/// Encrypts the image's text segment per `config`.
///
/// # Errors
///
/// Fails when CFG recovery fails (function/block granularity needs it).
pub fn encrypt_text(image: &Image, config: &EncryptConfig) -> Result<EncryptOutcome, ProtectError> {
    let cfg = Cfg::recover(image)?;
    let in_scope = |name: Option<&str>| -> bool {
        match (&config.scope, name) {
            (None, _) => true,
            (Some(scope), Some(name)) => scope.contains(name),
            (Some(_), None) => false,
        }
    };

    let mut regions: Vec<EncRegion> = Vec::new();
    match config.granularity {
        Granularity::Program => {
            if config.scope.is_none() {
                regions.push(EncRegion {
                    start: image.text_base,
                    end: image.text_end(),
                    key: derive_subkey(config.master_key, image.text_base),
                });
            } else {
                // Scoped "program" granularity degrades to per-function
                // regions sharing one key.
                let key = derive_subkey(config.master_key, image.text_base);
                for func in &cfg.functions {
                    if in_scope(func.name.as_deref()) {
                        regions.push(EncRegion {
                            start: func.entry,
                            end: func.end,
                            key,
                        });
                    }
                }
            }
        }
        Granularity::Function => {
            for func in &cfg.functions {
                if in_scope(func.name.as_deref()) {
                    regions.push(EncRegion {
                        start: func.entry,
                        end: func.end,
                        key: derive_subkey(config.master_key, func.entry),
                    });
                }
            }
        }
        Granularity::Block => {
            for func in &cfg.functions {
                if !in_scope(func.name.as_deref()) {
                    continue;
                }
                for &bi in &func.blocks {
                    let block = &cfg.blocks[bi];
                    let start = image.addr_of_index(block.start);
                    regions.push(EncRegion {
                        start,
                        end: start + 4 * block.len as u32,
                        key: derive_subkey(config.master_key, start),
                    });
                }
            }
        }
    }

    let mut out = image.clone();
    for region in &regions {
        let mut addr = region.start;
        while addr < region.end {
            let index = out.text_index_of(addr).expect("region inside text");
            out.text[index] ^= keystream(region.key, addr);
            addr += 4;
        }
    }
    Ok(EncryptOutcome {
        image: out,
        regions: RegionTable::new(regions),
        model: config.model,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexprot_secmon::{SecMon, SecMonConfig};
    use flexprot_sim::{Machine, Outcome, SimConfig};

    const SRC: &str = r#"
main:   li   $t0, 4
        jal  sq
        move $a0, $v0
        li   $v0, 1
        syscall
        li   $v0, 10
        syscall
sq:     mul  $v0, $t0, $t0
        jr   $ra
"#;

    fn encrypted_secmon(out: &EncryptOutcome) -> SecMon {
        SecMon::new(SecMonConfig {
            regions: out.regions.clone(),
            decrypt: out.model,
            ..SecMonConfig::transparent()
        })
    }

    fn run_encrypted(granularity: Granularity) -> flexprot_sim::RunResult {
        let image = flexprot_asm::assemble_or_panic(SRC);
        let config = EncryptConfig {
            granularity,
            ..EncryptConfig::whole_program(0xFEED)
        };
        let out = encrypt_text(&image, &config).unwrap();
        assert_ne!(out.image.text, image.text, "text must change");
        Machine::with_monitor(&out.image, SimConfig::default(), encrypted_secmon(&out)).run()
    }

    #[test]
    fn program_granularity_round_trips() {
        let r = run_encrypted(Granularity::Program);
        assert_eq!(r.outcome, Outcome::Exit(0));
        assert_eq!(r.output, "16");
        assert!(r.stats.monitor_fill_cycles > 0, "decrypt latency charged");
    }

    #[test]
    fn function_granularity_round_trips() {
        let r = run_encrypted(Granularity::Function);
        assert_eq!(r.outcome, Outcome::Exit(0));
        assert_eq!(r.output, "16");
    }

    #[test]
    fn block_granularity_round_trips() {
        let r = run_encrypted(Granularity::Block);
        assert_eq!(r.outcome, Outcome::Exit(0));
        assert_eq!(r.output, "16");
    }

    #[test]
    fn every_text_word_changes_under_program_encryption() {
        let image = flexprot_asm::assemble_or_panic(SRC);
        let out = encrypt_text(&image, &EncryptConfig::whole_program(0xFEED)).unwrap();
        let changed = image
            .text
            .iter()
            .zip(&out.image.text)
            .filter(|(a, b)| a != b)
            .count();
        // The keystream is never zero for all words in practice.
        assert!(changed >= image.text.len() - 1);
    }

    #[test]
    fn running_ciphertext_without_monitor_fails() {
        let image = flexprot_asm::assemble_or_panic(SRC);
        let out = encrypt_text(&image, &EncryptConfig::whole_program(0xFEED)).unwrap();
        let config = SimConfig {
            max_instructions: 100_000,
            ..SimConfig::default()
        };
        let r = Machine::new(&out.image, config).run();
        assert_ne!(r.outcome, Outcome::Exit(0));
    }

    #[test]
    fn scope_limits_encryption_to_named_functions() {
        let image = flexprot_asm::assemble_or_panic(SRC);
        let mut scope = BTreeSet::new();
        scope.insert("sq".to_owned());
        let config = EncryptConfig {
            granularity: Granularity::Function,
            scope: Some(scope),
            ..EncryptConfig::whole_program(0xFEED)
        };
        let out = encrypt_text(&image, &config).unwrap();
        let sq = image.symbol("sq").unwrap();
        // main's words are untouched.
        for (i, (&a, &b)) in image.text.iter().zip(&out.image.text).enumerate() {
            let addr = image.addr_of_index(i);
            if addr < sq {
                assert_eq!(a, b, "unscoped word at {addr:#x} changed");
            }
        }
        // sq's words did change.
        let sq_index = image.text_index_of(sq).unwrap();
        assert_ne!(image.text[sq_index..], out.image.text[sq_index..]);
        // And it still runs with the monitor.
        let r =
            Machine::with_monitor(&out.image, SimConfig::default(), encrypted_secmon(&out)).run();
        assert_eq!(r.outcome, Outcome::Exit(0));
        assert_eq!(r.output, "16");
    }

    #[test]
    fn block_granularity_uses_distinct_keys() {
        let image = flexprot_asm::assemble_or_panic(SRC);
        let config = EncryptConfig {
            granularity: Granularity::Block,
            ..EncryptConfig::whole_program(0xFEED)
        };
        let out = encrypt_text(&image, &config).unwrap();
        let keys: BTreeSet<u64> = out.regions.regions().iter().map(|r| r.key).collect();
        assert!(keys.len() > 1);
        assert_eq!(
            out.regions.regions().len(),
            Cfg::recover(&image).unwrap().blocks.len()
        );
    }
}
