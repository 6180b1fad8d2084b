//! Static analysis from the attacker's chair: the metrics a reverse
//! engineer's first-pass tooling would compute on a shipped binary.
//!
//! These quantify *stealth* (how visibly protected a binary is) and
//! *diversity* (how different two protections of the same program look),
//! feeding experiments T5 and T6.

use flexprot_isa::{Image, Inst, Reg};

/// Number of runs of ≥ `min_run` consecutive decodable instructions that
/// write `$zero` — the attacker's guard-site scanner. On a stealthy binary
/// this should count ≈ 0 even when guards are present.
pub fn guard_like_runs(image: &Image, min_run: usize) -> usize {
    let mut runs = 0;
    let mut current = 0usize;
    for &word in &image.text {
        let guardish = match Inst::decode(word) {
            Ok(inst) if inst != Inst::NOP => {
                inst.def() == Some(Reg::ZERO) && !inst.is_control_transfer()
            }
            _ => false,
        };
        if guardish {
            current += 1;
        } else {
            if current >= min_run {
                runs += 1;
            }
            current = 0;
        }
    }
    if current >= min_run {
        runs += 1;
    }
    runs
}

/// Shannon entropy of the text segment in bits per byte. Plaintext RISC
/// code sits well below 8 (field structure, common opcodes); a keystream
/// ciphertext approaches 8.
pub fn text_entropy_bits(image: &Image) -> f64 {
    let mut counts = [0u64; 256];
    let mut total = 0u64;
    for &word in &image.text {
        for byte in word.to_le_bytes() {
            counts[byte as usize] += 1;
            total += 1;
        }
    }
    if total == 0 {
        return 0.0;
    }
    counts
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| {
            let p = c as f64 / total as f64;
            -p * p.log2()
        })
        .sum()
}

/// Fraction of text words that fail to decode — a quick "is this even
/// code?" signal.
pub fn undecodable_fraction(image: &Image) -> f64 {
    if image.text.is_empty() {
        return 0.0;
    }
    let bad = image
        .text
        .iter()
        .filter(|&&w| Inst::decode(w).is_err())
        .count();
    bad as f64 / image.text.len() as f64
}

/// Fraction of differing words between two images (by position, up to the
/// shorter length, plus any length difference counted as differing).
pub fn word_diversity(a: &Image, b: &Image) -> f64 {
    let common = a.text.len().min(b.text.len());
    let longer = a.text.len().max(b.text.len());
    if longer == 0 {
        return 0.0;
    }
    let differing = a.text.iter().zip(&b.text).filter(|(x, y)| x != y).count() + (longer - common);
    differing as f64 / longer as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexprot_core::{protect, EncryptConfig, GuardConfig, ProtectionConfig};

    fn sample() -> Image {
        flexprot_workloads::by_name("rle").expect("kernel").image()
    }

    #[test]
    fn unprotected_code_has_no_guard_runs() {
        assert_eq!(guard_like_runs(&sample(), 4), 0);
    }

    #[test]
    fn guarded_plaintext_is_visibly_guarded() {
        let image = sample();
        let config = ProtectionConfig::new().with_guards(GuardConfig::with_density(1.0));
        let protected = protect(&image, &config, None).unwrap();
        let runs = guard_like_runs(&protected.image, 4);
        assert!(
            runs >= protected.report.guards_inserted / 2,
            "expected visible runs, found {runs} of {}",
            protected.report.guards_inserted
        );
    }

    #[test]
    fn encryption_hides_the_guards() {
        let image = sample();
        let config = ProtectionConfig::new()
            .with_guards(GuardConfig::with_density(1.0))
            .with_encryption(EncryptConfig::whole_program(0xCAFE));
        let protected = protect(&image, &config, None).unwrap();
        assert!(guard_like_runs(&protected.image, 4) <= 1);
    }

    #[test]
    fn ciphertext_entropy_exceeds_plaintext() {
        let image = sample();
        let plain_entropy = text_entropy_bits(&image);
        let config = ProtectionConfig::new().with_encryption(EncryptConfig::whole_program(0xCAFE));
        let protected = protect(&image, &config, None).unwrap();
        let cipher_entropy = text_entropy_bits(&protected.image);
        assert!(
            cipher_entropy > plain_entropy + 0.5,
            "plain {plain_entropy:.2} vs cipher {cipher_entropy:.2}"
        );
        assert!(cipher_entropy > 6.0);
    }

    #[test]
    fn undecodable_fraction_separates_cipher_from_plain() {
        let image = sample();
        assert_eq!(undecodable_fraction(&image), 0.0);
        let config = ProtectionConfig::new().with_encryption(EncryptConfig::whole_program(0xCAFE));
        let protected = protect(&image, &config, None).unwrap();
        assert!(undecodable_fraction(&protected.image) > 0.2);
    }

    #[test]
    fn reseeding_diversifies_guarded_binaries() {
        let image = sample();
        let protect_with = |seed: u64| {
            let config = ProtectionConfig::new().with_guards(GuardConfig {
                seed,
                key: seed.rotate_left(7),
                ..GuardConfig::with_density(0.5)
            });
            protect(&image, &config, None).unwrap().image
        };
        let a = protect_with(1);
        let b = protect_with(2);
        assert!(word_diversity(&a, &b) > 0.1);
        assert_eq!(word_diversity(&a, &a), 0.0);
    }

    #[test]
    fn rekeying_diversifies_ciphertext_completely() {
        let image = sample();
        let enc = |key: u64| {
            let config = ProtectionConfig::new().with_encryption(EncryptConfig::whole_program(key));
            protect(&image, &config, None).unwrap().image
        };
        assert!(word_diversity(&enc(1), &enc(2)) > 0.95);
    }
}
