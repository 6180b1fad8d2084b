//! [`SecMonConfig`]: what the toolchain provisions into the hardware.
//!
//! The configuration is the *hardware half* of the protection contract.
//! The software half — guard instructions and encrypted text — travels in
//! the binary itself. Keeping the signature values in the binary (rather
//! than in the hardware) is the key flexibility property: re-protecting a
//! program does not require re-synthesising the monitor, only reloading
//! this small table.

use std::collections::{BTreeMap, BTreeSet};

use crate::cipher::RegionTable;
use crate::decrypt::DecryptModel;
use crate::guard::SIG_SYMBOLS;

/// One guard site: the address of the first guard instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GuardSite {
    /// Number of guard instructions at the site.
    pub symbols: u32,
    /// Post-guard words also covered by the signature: after collecting the
    /// symbols, the monitor keeps hashing this many committed words (the
    /// block terminator) before comparing. This closes the classic
    /// branch-patch hole — the conditional branch itself is signed.
    pub tail: u32,
}

impl Default for GuardSite {
    fn default() -> GuardSite {
        GuardSite {
            symbols: SIG_SYMBOLS,
            tail: 0,
        }
    }
}

/// An address range `[start, end)` whose executed instructions count toward
/// the guard-spacing bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProtectedRange {
    /// First protected byte address.
    pub start: u32,
    /// One past the last protected byte address.
    pub end: u32,
}

impl ProtectedRange {
    /// Whether `addr` falls inside the range.
    pub fn contains(&self, addr: u32) -> bool {
        addr >= self.start && addr < self.end
    }
}

/// Full secure-monitor configuration.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SecMonConfig {
    /// Key for the window hash.
    pub guard_key: u64,
    /// Guard sites: first-guard-word address → site descriptor.
    pub sites: BTreeMap<u32, GuardSite>,
    /// Window start addresses (guarded block leaders). The hash resets when
    /// one commits, in addition to resetting on every pc discontinuity.
    pub window_starts: BTreeSet<u32>,
    /// Ranges whose executed instructions count toward the spacing bound.
    pub protected: Vec<ProtectedRange>,
    /// Maximum instructions executed inside protected ranges between guard
    /// checks; `None` disables spacing enforcement.
    pub spacing_bound: Option<u64>,
    /// Protected function entries. A pc discontinuity landing on one resets
    /// the spacing counter, so calls (including recursion) into protected
    /// functions do not accumulate across frames. An attacker cannot abuse
    /// this without inserting semantically visible control transfers.
    pub reset_points: BTreeSet<u32>,
    /// Encrypted text regions and their keys.
    pub regions: RegionTable,
    /// Decryption-unit latency model.
    pub decrypt: DecryptModel,
    /// Abort simulation on the first tamper event (true, the default) or
    /// log events and continue (for detection-latency studies).
    pub halt_on_tamper: bool,
}

impl SecMonConfig {
    /// A configuration with no guards and no encryption — a transparent
    /// monitor useful as an experimental control.
    pub fn transparent() -> SecMonConfig {
        SecMonConfig {
            halt_on_tamper: true,
            decrypt: DecryptModel::free(),
            ..SecMonConfig::default()
        }
    }

    /// Whether `addr` is inside a protected (spacing-counted) range.
    pub fn in_protected(&self, addr: u32) -> bool {
        self.protected.iter().any(|r| r.contains(addr))
    }

    /// Total number of guard sites.
    pub fn site_count(&self) -> usize {
        self.sites.len()
    }

    /// The hash-window start for a guard site: the nearest registered
    /// window start at or before the site (equal when the block body is
    /// empty). This is the rule the hardware applies when it decides
    /// where a rolling window began; static analyses must use the same
    /// one.
    pub fn window_of(&self, site_addr: u32) -> Option<u32> {
        self.window_starts.range(..=site_addr).next_back().copied()
    }

    /// The full hashed interval of a guard site, as a half-open byte
    /// address range `[start, end)`: the window body from
    /// [`window_of`](Self::window_of) through the guard symbols and the
    /// signed tail. `None` when `site_addr` is not a registered site, no
    /// window start precedes it, or the sequence runs past the end of the
    /// address space (a hostile site length).
    pub fn window_interval(&self, site_addr: u32) -> Option<(u32, u32)> {
        let site = self.sites.get(&site_addr)?;
        let start = self.window_of(site_addr)?;
        let end = u64::from(site_addr) + 4 * (u64::from(site.symbols) + u64::from(site.tail));
        Some((start, u32::try_from(end).ok()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transparent_config_is_inert() {
        let c = SecMonConfig::transparent();
        assert_eq!(c.site_count(), 0);
        assert!(c.regions.is_empty());
        assert!(!c.in_protected(0x0040_0000));
        assert!(c.halt_on_tamper);
    }

    #[test]
    fn protected_range_membership() {
        let c = SecMonConfig {
            protected: vec![ProtectedRange {
                start: 0x100,
                end: 0x200,
            }],
            ..SecMonConfig::transparent()
        };
        assert!(c.in_protected(0x100));
        assert!(c.in_protected(0x1FF));
        assert!(!c.in_protected(0x200));
        assert!(!c.in_protected(0xFF));
    }

    #[test]
    fn default_site_uses_sig_symbols() {
        assert_eq!(GuardSite::default().symbols, SIG_SYMBOLS);
    }

    #[test]
    fn window_of_picks_the_nearest_start_at_or_before_the_site() {
        let mut c = SecMonConfig::transparent();
        c.window_starts.extend([0x100, 0x140, 0x200]);
        c.sites.insert(0x150, GuardSite::default());
        c.sites.insert(0x140, GuardSite::default());
        assert_eq!(c.window_of(0x150), Some(0x140));
        assert_eq!(c.window_of(0x140), Some(0x140), "empty body: start == site");
        assert_eq!(c.window_of(0x0FF), None);
    }

    #[test]
    fn window_interval_spans_body_symbols_and_tail() {
        let mut c = SecMonConfig::transparent();
        c.window_starts.extend([0x100, 0x200]);
        c.sites.insert(
            0x120,
            GuardSite {
                symbols: SIG_SYMBOLS,
                tail: 2,
            },
        );
        // body [0x100, 0x120), 4 symbols + 2 tail words = 24 bytes.
        assert_eq!(c.window_interval(0x120), Some((0x100, 0x138)));
        assert_eq!(c.window_interval(0x200), None, "not a site");
        c.sites.insert(0x080, GuardSite::default());
        assert_eq!(c.window_interval(0x080), None, "no window start before it");
    }
}
