//! Set-associative LRU cache timing model.
//!
//! The cache tracks tags only — data always lives in [`crate::mem::Memory`] —
//! because the simulator separates *functional* behaviour from *timing*.
//! That split is what lets the secure monitor implement decryption as a pure
//! per-word transform while its latency is charged on the miss path, exactly
//! where the FPGA sits.

/// Geometry of one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes. Must be a multiple of `line_bytes * ways`.
    pub size_bytes: u32,
    /// Line size in bytes (power of two, ≥ 4).
    pub line_bytes: u32,
    /// Associativity.
    pub ways: u32,
}

impl CacheConfig {
    /// A 4 KiB, 32-byte-line, 2-way cache — the baseline I-cache of the
    /// experiments.
    pub fn default_icache() -> CacheConfig {
        CacheConfig {
            size_bytes: 4096,
            line_bytes: 32,
            ways: 2,
        }
    }

    /// An 8 KiB, 32-byte-line, 4-way cache — the baseline D-cache.
    pub fn default_dcache() -> CacheConfig {
        CacheConfig {
            size_bytes: 8192,
            line_bytes: 32,
            ways: 4,
        }
    }

    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> u32 {
        self.size_bytes / (self.line_bytes * self.ways)
    }

    /// Words per line.
    pub fn line_words(&self) -> u32 {
        self.line_bytes / 4
    }

    /// Validates the geometry.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if !self.line_bytes.is_power_of_two() || self.line_bytes < 4 {
            return Err(format!(
                "line size {} must be a power of two >= 4",
                self.line_bytes
            ));
        }
        if self.ways == 0 {
            return Err("associativity must be at least 1".to_owned());
        }
        // In 64 bits: a hostile associativity must not wrap the product.
        let set_bytes = u64::from(self.line_bytes) * u64::from(self.ways);
        if self.size_bytes == 0 || !u64::from(self.size_bytes).is_multiple_of(set_bytes) {
            return Err(format!(
                "size {} is not a multiple of line*ways = {set_bytes}",
                self.size_bytes
            ));
        }
        if !self.sets().is_power_of_two() {
            return Err(format!("set count {} must be a power of two", self.sets()));
        }
        Ok(())
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Way {
    valid: bool,
    dirty: bool,
    tag: u32,
    lru: u64,
}

/// What an access did, as reported by [`Cache::access`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Whether the line was already resident.
    pub hit: bool,
    /// Base address of a dirty line that was evicted to make room, if any.
    pub writeback: Option<u32>,
    /// Base address of the accessed line.
    pub line_addr: u32,
}

/// A set-associative, write-back, write-allocate cache with LRU replacement.
///
/// # Example
///
/// ```
/// use flexprot_sim::{Cache, CacheConfig};
///
/// let mut cache = Cache::new(CacheConfig { size_bytes: 64, line_bytes: 16, ways: 2 });
/// assert!(!cache.access(0x100, false).hit);
/// assert!(cache.access(0x104, false).hit); // same line
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    ways: Vec<Way>,
    tick: u64,
    /// `log2(line_bytes)`: an address shifted right by this is its line
    /// number.
    line_shift: u32,
    /// `log2(sets)`: the line-number bits that select the set.
    set_bits: u32,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`CacheConfig::validate`]).
    pub fn new(config: CacheConfig) -> Cache {
        if let Err(msg) = config.validate() {
            panic!("invalid cache config: {msg}");
        }
        // `validate` guarantees both are powers of two.
        Cache {
            config,
            ways: vec![Way::default(); (config.sets() * config.ways) as usize],
            tick: 0,
            line_shift: config.line_bytes.trailing_zeros(),
            set_bits: config.sets().trailing_zeros(),
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    fn set_index(&self, addr: u32) -> usize {
        ((addr >> self.line_shift) & ((1 << self.set_bits) - 1)) as usize
    }

    fn tag(&self, addr: u32) -> u32 {
        addr >> (self.line_shift + self.set_bits)
    }

    fn line_addr(&self, addr: u32) -> u32 {
        addr & !(self.config.line_bytes - 1)
    }

    /// Performs one access (lookup + fill on miss).
    ///
    /// `write` marks the line dirty; a later eviction of a dirty line
    /// reports a writeback.
    pub fn access(&mut self, addr: u32, write: bool) -> Access {
        self.tick += 1;
        let set = self.set_index(addr);
        let tag = self.tag(addr);
        let ways = self.config.ways as usize;
        let base = set * ways;
        let slots = &mut self.ways[base..base + ways];

        if let Some(way) = slots.iter_mut().find(|w| w.valid && w.tag == tag) {
            way.lru = self.tick;
            way.dirty |= write;
            return Access {
                hit: true,
                writeback: None,
                line_addr: self.line_addr(addr),
            };
        }

        // Miss: pick invalid way, else LRU.
        let victim = slots
            .iter_mut()
            .min_by_key(|w| if w.valid { w.lru + 1 } else { 0 })
            .expect("at least one way");
        let writeback = (victim.valid && victim.dirty).then(|| {
            // Reconstruct the victim's base address from its tag and set.
            ((victim.tag << self.set_bits) | set as u32) << self.line_shift
        });
        *victim = Way {
            valid: true,
            dirty: write,
            tag,
            lru: self.tick,
        };
        Access {
            hit: false,
            writeback,
            line_addr: self.line_addr(addr),
        }
    }

    /// Invalidates every line (e.g. after external code modification).
    pub fn flush(&mut self) {
        for way in &mut self.ways {
            *way = Way::default();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets, 2 ways, 16-byte lines.
        Cache::new(CacheConfig {
            size_bytes: 64,
            line_bytes: 16,
            ways: 2,
        })
    }

    #[test]
    fn spatial_locality_hits_within_line() {
        let mut c = tiny();
        assert!(!c.access(0x1000, false).hit);
        for off in (0..16).step_by(4) {
            assert!(c.access(0x1000 + off, false).hit);
        }
        assert!(!c.access(0x1010, false).hit);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Three lines mapping to set 0 (line addr multiples of 32).
        c.access(0x000, false);
        c.access(0x020, false);
        c.access(0x000, false); // refresh line 0
        let a = c.access(0x040, false); // evicts 0x020
        assert!(!a.hit);
        assert!(c.access(0x000, false).hit);
        assert!(!c.access(0x020, false).hit);
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = tiny();
        c.access(0x000, true);
        c.access(0x020, false);
        let a = c.access(0x040, false); // evicts dirty 0x000
        assert_eq!(a.writeback, Some(0x000));
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut c = tiny();
        c.access(0x000, false);
        c.access(0x020, false);
        assert_eq!(c.access(0x040, false).writeback, None);
    }

    #[test]
    fn writeback_address_reconstruction() {
        let mut c = tiny();
        // Set 1 lines: addresses with bit 4 set (line 16..32), stride 32.
        c.access(0x1010, true);
        c.access(0x2010, false);
        let a = c.access(0x3010, false);
        assert_eq!(a.writeback, Some(0x1010 & !15));
    }

    #[test]
    fn flush_invalidates_everything() {
        let mut c = tiny();
        c.access(0x100, false);
        c.flush();
        assert!(!c.access(0x100, false).hit);
    }

    #[test]
    fn shift_indexing_matches_division() {
        // The precomputed shifts must place every address exactly where
        // dividing by the line size and the set count does, and a dirty
        // victim's writeback address must be its line base.
        let mut rng = flexprot_isa::Rng64::new(0xCAC4E);
        for (size_bytes, line_bytes, ways) in
            [(64, 16, 2), (256, 32, 1), (4096, 32, 2), (8192, 4, 8)]
        {
            let config = CacheConfig {
                size_bytes,
                line_bytes,
                ways,
            };
            let sets = config.sets();
            for _ in 0..512 {
                let mut c = Cache::new(config);
                let addr = rng.next_u32();
                assert_eq!(c.set_index(addr), ((addr / line_bytes) % sets) as usize);
                assert_eq!(c.tag(addr), addr / line_bytes / sets);
                let line = addr & !(line_bytes - 1);
                let first = c.access(addr, true);
                assert_eq!(first.line_addr, line);
                assert!(c.access(line + line_bytes - 1, false).hit);
                // Fill the set with other lines until `line` is evicted.
                let stride = line_bytes.wrapping_mul(sets);
                let evicted = (1..=ways)
                    .map(|k| c.access(line.wrapping_add(k.wrapping_mul(stride)), false))
                    .find_map(|a| a.writeback);
                assert_eq!(evicted, Some(line), "{config:?} at {addr:#010x}");
            }
        }
    }

    #[test]
    fn config_validation() {
        assert!(CacheConfig {
            size_bytes: 64,
            line_bytes: 16,
            ways: 2
        }
        .validate()
        .is_ok());
        assert!(CacheConfig {
            size_bytes: 60,
            line_bytes: 16,
            ways: 2
        }
        .validate()
        .is_err());
        assert!(CacheConfig {
            size_bytes: 64,
            line_bytes: 12,
            ways: 2
        }
        .validate()
        .is_err());
        assert!(CacheConfig {
            size_bytes: 64,
            line_bytes: 16,
            ways: 0
        }
        .validate()
        .is_err());
        // 3 sets: not a power of two.
        assert!(CacheConfig {
            size_bytes: 96,
            line_bytes: 16,
            ways: 2
        }
        .validate()
        .is_err());
        // line * ways is 2^32 bytes, which wraps to 0 in 32 bits.
        assert!(CacheConfig {
            size_bytes: 4096,
            line_bytes: 32,
            ways: 1 << 27
        }
        .validate()
        .is_err());
    }

    #[test]
    fn default_geometries_are_valid() {
        assert!(CacheConfig::default_icache().validate().is_ok());
        assert!(CacheConfig::default_dcache().validate().is_ok());
    }
}
