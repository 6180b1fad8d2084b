//! Binary (de)serialization of monitor configurations — the `FPM1`
//! container that a deployment would flash into the FPGA alongside the
//! protected binary.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::cipher::{EncRegion, RegionTable};
use crate::decrypt::DecryptModel;
use crate::schedule::{GuardSite, ProtectedRange, SecMonConfig};

const MAGIC: &[u8; 4] = b"FPM1";

/// Error returned when parsing an `FPM1` container fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigFormatError {
    /// Wrong magic bytes.
    BadMagic,
    /// Input ended early.
    Truncated,
    /// A length field exceeds the remaining input.
    BadLength,
    /// Trailing bytes after the last field.
    TrailingBytes,
    /// The region table violates its invariants (overlap/alignment).
    BadRegions,
    /// A guard site at this address has no guard symbols: there is no
    /// signature to check.
    EmptyGuardSite(u32),
    /// A decrypt-unit latency field (`cycles_per_word` or `startup`)
    /// exceeds [`DecryptModel::MAX_CYCLES`].
    DecryptLatency {
        /// The field's name.
        field: &'static str,
        /// The refused value.
        cycles: u64,
    },
}

impl fmt::Display for ConfigFormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigFormatError::BadMagic => f.write_str("not an FPM1 monitor config (bad magic)"),
            ConfigFormatError::Truncated => f.write_str("truncated FPM1 config"),
            ConfigFormatError::BadLength => f.write_str("implausible length field"),
            ConfigFormatError::TrailingBytes => f.write_str("trailing bytes after config"),
            ConfigFormatError::BadRegions => f.write_str("invalid encrypted-region table"),
            ConfigFormatError::EmptyGuardSite(addr) => {
                write!(f, "guard site {addr:#010x} has no guard symbols")
            }
            ConfigFormatError::DecryptLatency { field, cycles } => write!(
                f,
                "decrypt {field} of {cycles} cycles exceeds the ceiling of {} cycles",
                DecryptModel::MAX_CYCLES
            ),
        }
    }
}

impl std::error::Error for ConfigFormatError {}

struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], ConfigFormatError> {
        if self.data.len() - self.pos < n {
            return Err(ConfigFormatError::Truncated);
        }
        let slice = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, ConfigFormatError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, ConfigFormatError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, ConfigFormatError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn count(&mut self, min_elem_size: usize) -> Result<usize, ConfigFormatError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem_size) > self.data.len() - self.pos {
            return Err(ConfigFormatError::BadLength);
        }
        Ok(n)
    }
}

impl SecMonConfig {
    /// Serializes to the `FPM1` container.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&self.guard_key.to_le_bytes());
        out.extend_from_slice(&(self.sites.len() as u32).to_le_bytes());
        for (&addr, site) in &self.sites {
            out.extend_from_slice(&addr.to_le_bytes());
            out.extend_from_slice(&site.symbols.to_le_bytes());
            out.extend_from_slice(&site.tail.to_le_bytes());
        }
        out.extend_from_slice(&(self.window_starts.len() as u32).to_le_bytes());
        for &addr in &self.window_starts {
            out.extend_from_slice(&addr.to_le_bytes());
        }
        out.extend_from_slice(&(self.protected.len() as u32).to_le_bytes());
        for range in &self.protected {
            out.extend_from_slice(&range.start.to_le_bytes());
            out.extend_from_slice(&range.end.to_le_bytes());
        }
        out.push(u8::from(self.spacing_bound.is_some()));
        out.extend_from_slice(&self.spacing_bound.unwrap_or(0).to_le_bytes());
        out.extend_from_slice(&(self.reset_points.len() as u32).to_le_bytes());
        for &addr in &self.reset_points {
            out.extend_from_slice(&addr.to_le_bytes());
        }
        out.extend_from_slice(&(self.regions.regions().len() as u32).to_le_bytes());
        for region in self.regions.regions() {
            out.extend_from_slice(&region.start.to_le_bytes());
            out.extend_from_slice(&region.end.to_le_bytes());
            out.extend_from_slice(&region.key.to_le_bytes());
        }
        out.extend_from_slice(&self.decrypt.cycles_per_word.to_le_bytes());
        out.extend_from_slice(&self.decrypt.startup.to_le_bytes());
        out.push(u8::from(self.decrypt.pipelined));
        out.push(u8::from(self.halt_on_tamper));
        out
    }

    /// Parses an `FPM1` container.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigFormatError`] on malformed input; never panics on
    /// untrusted bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<SecMonConfig, ConfigFormatError> {
        let mut r = Reader {
            data: bytes,
            pos: 0,
        };
        if r.take(4)? != MAGIC {
            return Err(ConfigFormatError::BadMagic);
        }
        let guard_key = r.u64()?;
        let n_sites = r.count(12)?;
        let mut sites = BTreeMap::new();
        for _ in 0..n_sites {
            let addr = r.u32()?;
            let symbols = r.u32()?;
            let tail = r.u32()?;
            if symbols == 0 {
                return Err(ConfigFormatError::EmptyGuardSite(addr));
            }
            sites.insert(addr, GuardSite { symbols, tail });
        }
        let n_ws = r.count(4)?;
        let mut window_starts = BTreeSet::new();
        for _ in 0..n_ws {
            window_starts.insert(r.u32()?);
        }
        let n_prot = r.count(8)?;
        let mut protected = Vec::with_capacity(n_prot);
        for _ in 0..n_prot {
            protected.push(ProtectedRange {
                start: r.u32()?,
                end: r.u32()?,
            });
        }
        let has_bound = r.u8()? != 0;
        let bound = r.u64()?;
        let n_rp = r.count(4)?;
        let mut reset_points = BTreeSet::new();
        for _ in 0..n_rp {
            reset_points.insert(r.u32()?);
        }
        let n_regions = r.count(16)?;
        let mut regions = Vec::with_capacity(n_regions);
        for _ in 0..n_regions {
            regions.push(EncRegion {
                start: r.u32()?,
                end: r.u32()?,
                key: r.u64()?,
            });
        }
        let mut latency = |field| {
            let cycles = r.u64()?;
            if cycles > DecryptModel::MAX_CYCLES {
                return Err(ConfigFormatError::DecryptLatency { field, cycles });
            }
            Ok(cycles)
        };
        let decrypt = DecryptModel {
            cycles_per_word: latency("cycles_per_word")?,
            startup: latency("startup")?,
            pipelined: r.u8()? != 0,
        };
        let halt_on_tamper = r.u8()? != 0;
        if r.pos != bytes.len() {
            return Err(ConfigFormatError::TrailingBytes);
        }
        let regions = RegionTable::try_new(regions).map_err(|_| ConfigFormatError::BadRegions)?;
        Ok(SecMonConfig {
            guard_key,
            sites,
            window_starts,
            protected,
            spacing_bound: has_bound.then_some(bound),
            reset_points,
            regions,
            decrypt,
            halt_on_tamper,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SecMonConfig {
        let mut sites = BTreeMap::new();
        sites.insert(
            0x0040_0010,
            GuardSite {
                symbols: 4,
                tail: 1,
            },
        );
        sites.insert(
            0x0040_0080,
            GuardSite {
                symbols: 4,
                tail: 0,
            },
        );
        let mut window_starts = BTreeSet::new();
        window_starts.insert(0x0040_0000);
        let mut reset_points = BTreeSet::new();
        reset_points.insert(0x0040_0000);
        SecMonConfig {
            guard_key: 0xDEAD_BEEF_1234_5678,
            sites,
            window_starts,
            protected: vec![ProtectedRange {
                start: 0x0040_0000,
                end: 0x0040_1000,
            }],
            spacing_bound: Some(99),
            reset_points,
            regions: RegionTable::new(vec![EncRegion {
                start: 0x0040_0000,
                end: 0x0040_0100,
                key: 42,
            }]),
            decrypt: DecryptModel {
                cycles_per_word: 3,
                startup: 5,
                pipelined: false,
            },
            halt_on_tamper: true,
        }
    }

    #[test]
    fn round_trip_preserves_everything() {
        let config = sample();
        assert_eq!(SecMonConfig::from_bytes(&config.to_bytes()), Ok(config));
    }

    #[test]
    fn transparent_config_round_trips() {
        let config = SecMonConfig::transparent();
        assert_eq!(SecMonConfig::from_bytes(&config.to_bytes()), Ok(config));
    }

    #[test]
    fn none_spacing_round_trips() {
        let mut config = sample();
        config.spacing_bound = None;
        assert_eq!(SecMonConfig::from_bytes(&config.to_bytes()), Ok(config));
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[3] = b'9';
        assert_eq!(
            SecMonConfig::from_bytes(&bytes),
            Err(ConfigFormatError::BadMagic)
        );
    }

    #[test]
    fn every_truncation_rejected() {
        let bytes = sample().to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                SecMonConfig::from_bytes(&bytes[..cut]).is_err(),
                "accepted a {cut}-byte prefix"
            );
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = sample().to_bytes();
        bytes.push(1);
        assert_eq!(
            SecMonConfig::from_bytes(&bytes),
            Err(ConfigFormatError::TrailingBytes)
        );
    }

    #[test]
    fn site_without_symbols_rejected() {
        let mut config = sample();
        config.sites.insert(
            0x0040_0040,
            GuardSite {
                symbols: 0,
                tail: 3,
            },
        );
        let err = SecMonConfig::from_bytes(&config.to_bytes()).unwrap_err();
        assert_eq!(err, ConfigFormatError::EmptyGuardSite(0x0040_0040));
        assert_eq!(
            err.to_string(),
            "guard site 0x00400040 has no guard symbols"
        );
    }

    #[test]
    fn overlapping_regions_rejected_not_panicking() {
        let mut config = sample();
        // Build bytes manually with overlapping regions by serializing two
        // identical regions.
        let region = *config.regions.regions().first().unwrap();
        config.regions = RegionTable::default();
        let mut bytes = config.to_bytes();
        // Patch the region count (it sits right before decrypt fields:
        // 16 decrypt bytes + 2 flag bytes from the end, minus region data).
        let insert_at = bytes.len() - (8 + 8 + 1 + 1) - 4;
        bytes[insert_at..insert_at + 4].copy_from_slice(&2u32.to_le_bytes());
        let mut region_bytes = Vec::new();
        for _ in 0..2 {
            region_bytes.extend_from_slice(&region.start.to_le_bytes());
            region_bytes.extend_from_slice(&region.end.to_le_bytes());
            region_bytes.extend_from_slice(&region.key.to_le_bytes());
        }
        let tail_start = insert_at + 4;
        bytes.splice(tail_start..tail_start, region_bytes);
        assert_eq!(
            SecMonConfig::from_bytes(&bytes),
            Err(ConfigFormatError::BadRegions)
        );
    }
}
