//! Flat, sparse, little-endian byte-addressable memory.

use flexprot_isa::Image;

const PAGE_BITS: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_BITS;
/// Address bits that pick a page within one directory.
const DIR_BITS: u32 = 10;
const DIR_PAGES: usize = 1 << DIR_BITS;
/// Directories covering the 32-bit address space.
const DIRS: usize = 1 << (32 - PAGE_BITS - DIR_BITS);

type Page = [u8; PAGE_SIZE];
type Dir = [Option<Box<Page>>; DIR_PAGES];

/// Sparse memory backed by 4 KiB pages allocated on first touch.
///
/// Reads from never-written locations return zero, mimicking zero-initialised
/// RAM. All accesses are little-endian. Pages are found through a two-level
/// table indexed by address bits, like a hardware page table: no hashing,
/// so no address pattern a simulated program chooses can make lookups
/// slower. An access that stays inside one page (every aligned one) looks
/// its page up once.
///
/// # Example
///
/// ```
/// use flexprot_sim::mem::Memory;
///
/// let mut mem = Memory::new();
/// mem.write_u32(0x1000, 0xDEAD_BEEF);
/// assert_eq!(mem.read_u32(0x1000), 0xDEAD_BEEF);
/// assert_eq!(mem.read_u16(0x1000), 0xBEEF);
/// assert_eq!(mem.read_u8(0x1003), 0xDE);
/// assert_eq!(mem.read_u32(0x9999_0000), 0);
/// ```
#[derive(Debug, Clone)]
pub struct Memory {
    dirs: Box<[Option<Box<Dir>>; DIRS]>,
}

impl Default for Memory {
    fn default() -> Memory {
        Memory {
            dirs: Box::new([const { None }; DIRS]),
        }
    }
}

impl Memory {
    /// Creates an empty (all-zero) memory.
    pub fn new() -> Memory {
        Memory::default()
    }

    /// Creates a memory pre-loaded with an image's text and data segments.
    pub fn load(image: &Image) -> Memory {
        let mut mem = Memory::new();
        mem.store_segments(image);
        mem
    }

    fn page(&self, addr: u32) -> Option<&Page> {
        let dir = self.dirs[(addr >> (PAGE_BITS + DIR_BITS)) as usize].as_ref()?;
        dir[(addr >> PAGE_BITS) as usize % DIR_PAGES].as_deref()
    }

    fn page_mut(&mut self, addr: u32) -> &mut Page {
        let dir = self.dirs[(addr >> (PAGE_BITS + DIR_BITS)) as usize]
            .get_or_insert_with(|| Box::new([const { None }; DIR_PAGES]));
        dir[(addr >> PAGE_BITS) as usize % DIR_PAGES]
            .get_or_insert_with(|| Box::new([0; PAGE_SIZE]))
    }

    fn pages_mut(&mut self) -> impl Iterator<Item = &mut Box<Page>> {
        self.dirs
            .iter_mut()
            .flatten()
            .flat_map(|dir| dir.iter_mut().flatten())
    }

    /// Reads `N` bytes from `addr` on, wrapping at the top of the address
    /// space: one page lookup when they share a page, else byte by byte.
    fn read_bytes<const N: usize>(&self, addr: u32) -> [u8; N] {
        let offset = addr as usize & (PAGE_SIZE - 1);
        if offset + N <= PAGE_SIZE {
            return self.page(addr).map_or([0; N], |page| {
                page[offset..offset + N].try_into().expect("N bytes")
            });
        }
        std::array::from_fn(|i| self.read_u8(addr.wrapping_add(i as u32)))
    }

    /// Writes `len` bytes taken from `bytes` from `addr` on, one page at a
    /// time, wrapping at the top of the address space.
    fn store(&mut self, mut addr: u32, mut len: usize, bytes: impl IntoIterator<Item = u8>) {
        let mut bytes = bytes.into_iter();
        while len > 0 {
            let offset = addr as usize & (PAGE_SIZE - 1);
            let n = len.min(PAGE_SIZE - offset);
            for (dst, byte) in self.page_mut(addr)[offset..offset + n]
                .iter_mut()
                .zip(&mut bytes)
            {
                *dst = byte;
            }
            addr = addr.wrapping_add(n as u32);
            len -= n;
        }
    }

    fn store_segments(&mut self, image: &Image) {
        let text = image.text.iter().flat_map(|word| word.to_le_bytes());
        self.store(image.text_base, 4 * image.text.len(), text);
        let data = image.data.iter().copied();
        self.store(image.data_base, image.data.len(), data);
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u32) -> u8 {
        self.page(addr)
            .map_or(0, |p| p[(addr as usize) & (PAGE_SIZE - 1)])
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u32, value: u8) {
        self.page_mut(addr)[(addr as usize) & (PAGE_SIZE - 1)] = value;
    }

    /// Reads a little-endian halfword. The address may be unaligned; the
    /// caller enforces alignment policy.
    pub fn read_u16(&self, addr: u32) -> u16 {
        u16::from_le_bytes(self.read_bytes(addr))
    }

    /// Writes a little-endian halfword.
    pub fn write_u16(&mut self, addr: u32, value: u16) {
        self.store(addr, 2, value.to_le_bytes());
    }

    /// Reads a little-endian word.
    pub fn read_u32(&self, addr: u32) -> u32 {
        u32::from_le_bytes(self.read_bytes(addr))
    }

    /// Writes a little-endian word.
    pub fn write_u32(&mut self, addr: u32, value: u32) {
        self.store(addr, 4, value.to_le_bytes());
    }

    /// Reads a NUL-terminated string of at most `max_len` bytes.
    pub fn read_cstr(&self, addr: u32, max_len: usize) -> Vec<u8> {
        let mut out = Vec::new();
        for i in 0..max_len {
            let byte = self.read_u8(addr.wrapping_add(i as u32));
            if byte == 0 {
                break;
            }
            out.push(byte);
        }
        out
    }

    /// Zeroes every resident page in place and reloads `image`'s segments —
    /// functionally identical to a fresh [`Memory::load`], but page
    /// allocations from the previous run are reused instead of freed and
    /// reallocated. Batch drivers lean on this to run many images through
    /// one machine.
    pub fn reset(&mut self, image: &Image) {
        for page in self.pages_mut() {
            **page = [0; PAGE_SIZE];
        }
        self.store_segments(image);
    }

    /// Number of resident pages, for footprint diagnostics.
    pub fn resident_pages(&self) -> usize {
        let dirs = self.dirs.iter().flatten();
        dirs.map(|dir| dir.iter().flatten().count()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexprot_isa::Image;

    #[test]
    fn unwritten_memory_reads_zero() {
        let mem = Memory::new();
        assert_eq!(mem.read_u8(0), 0);
        assert_eq!(mem.read_u32(0xFFFF_FFFC), 0);
        assert_eq!(mem.resident_pages(), 0);
    }

    #[test]
    fn word_round_trip_across_page_boundary() {
        let mut mem = Memory::new();
        let addr = (1 << PAGE_BITS) - 2;
        mem.write_u32(addr, 0x1122_3344);
        assert_eq!(mem.read_u32(addr), 0x1122_3344);
        assert_eq!(mem.resident_pages(), 2);
    }

    #[test]
    fn halfword_endianness() {
        let mut mem = Memory::new();
        mem.write_u16(0x100, 0xABCD);
        assert_eq!(mem.read_u8(0x100), 0xCD);
        assert_eq!(mem.read_u8(0x101), 0xAB);
    }

    #[test]
    fn load_places_segments() {
        let mut img = Image::from_text(vec![0x1234_5678]);
        img.data = vec![9, 8, 7];
        let mem = Memory::load(&img);
        assert_eq!(mem.read_u32(img.text_base), 0x1234_5678);
        assert_eq!(mem.read_u8(img.data_base), 9);
        assert_eq!(mem.read_u8(img.data_base + 2), 7);
    }

    #[test]
    fn reset_reuses_pages_and_matches_fresh_load() {
        let mut img = Image::from_text(vec![0xAABB_CCDD]);
        img.data = vec![1, 2, 3];
        let mut mem = Memory::load(&img);
        // Dirty some unrelated memory (the stack, say) before resetting.
        mem.write_u32(0x7FFF_F000, 0xDEAD_BEEF);
        let pages_before = mem.resident_pages();
        mem.reset(&img);
        assert_eq!(mem.resident_pages(), pages_before, "allocations reused");
        let fresh = Memory::load(&img);
        assert_eq!(mem.read_u32(img.text_base), fresh.read_u32(img.text_base));
        assert_eq!(mem.read_u8(img.data_base + 2), 3);
        assert_eq!(mem.read_u32(0x7FFF_F000), 0, "stale state cleared");
    }

    #[test]
    fn word_paths_equal_byte_composition() {
        // Random addresses, a quarter of them within 4 bytes of a page
        // boundary (or of the top of the address space), so the one-lookup
        // path and the byte-by-byte path are both taken.
        let mut rng = flexprot_isa::Rng64::new(0x3E3_0001);
        let mut mem = Memory::new();
        let pick = |rng: &mut flexprot_isa::Rng64| {
            let addr = rng.next_u32();
            if rng.chance(0.25) {
                (addr | (PAGE_SIZE as u32 - 1)).wrapping_sub(rng.below(4) as u32)
            } else {
                addr
            }
        };
        for _ in 0..4096 {
            let addr = pick(&mut rng);
            let bytes = |mem: &Memory, n: u32| -> Vec<u8> {
                (0..n).map(|i| mem.read_u8(addr.wrapping_add(i))).collect()
            };
            let value = rng.next_u32();
            match rng.below(3) {
                0 => mem.write_u32(addr, value),
                1 => mem.write_u16(addr, value as u16),
                _ => mem.write_u8(addr, value as u8),
            }
            assert_eq!(mem.read_u32(addr).to_le_bytes()[..], bytes(&mem, 4)[..]);
            assert_eq!(mem.read_u16(addr).to_le_bytes()[..], bytes(&mem, 2)[..]);
            let probe = pick(&mut rng);
            let composed = (0..4).fold(0u32, |word, i| {
                word | u32::from(mem.read_u8(probe.wrapping_add(i))) << (8 * i)
            });
            assert_eq!(mem.read_u32(probe), composed, "probe {probe:#010x}");
        }
    }

    #[test]
    fn reset_equals_load_across_page_boundaries() {
        // Segments that straddle page boundaries at odd offsets.
        let mut img = Image::from_text((0..3000u32).map(|i| i.wrapping_mul(0x0101_0101)).collect());
        img.text_base = 0x0040_0FF8;
        img.data_base = 0x1001_0FFD;
        img.data = (0..5000).map(|i| i as u8).collect();
        let fresh = Memory::load(&img);
        let mut other = Image::from_text(vec![7; 1500]);
        other.data = vec![0xEE; 9000];
        let mut mem = Memory::load(&other);
        mem.write_u32(0x7FFF_EFFC, 0xDEAD_BEEF);
        mem.reset(&img);
        for (i, &word) in img.text.iter().enumerate() {
            let addr = img.text_base + 4 * i as u32;
            assert_eq!(fresh.read_u32(addr), word);
            assert_eq!(mem.read_u32(addr), word);
        }
        for (i, &byte) in img.data.iter().enumerate() {
            let addr = img.data_base + i as u32;
            assert_eq!((fresh.read_u8(addr), mem.read_u8(addr)), (byte, byte));
        }
        for page in 0..1u32 << (32 - PAGE_BITS) {
            let addr = page << PAGE_BITS;
            let contents = |m: &Memory| m.page(addr).map_or([0; PAGE_SIZE], |p| *p);
            assert!(contents(&fresh) == contents(&mem), "page {addr:#010x}");
        }
        assert_eq!(mem.read_u32(0x7FFF_EFFC), 0, "stale state cleared");
    }

    #[test]
    fn cstr_stops_at_nul_and_cap() {
        let mut mem = Memory::new();
        for (i, b) in b"hello\0world".iter().enumerate() {
            mem.write_u8(0x200 + i as u32, *b);
        }
        assert_eq!(mem.read_cstr(0x200, 64), b"hello");
        assert_eq!(mem.read_cstr(0x200, 3), b"hel");
    }
}
