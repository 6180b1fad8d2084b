//! The program image: segments, symbols and relocations.
//!
//! An [`Image`] is the unit of exchange across the whole codesign toolchain:
//! the assembler produces one, the protection passes rewrite one, attacks
//! mutate one, and the simulator loads one.
//!
//! The crucial feature for a *rewriting* toolchain is the relocation table.
//! Every address-bearing field that the assembler emitted is recorded as a
//! [`Reloc`], so a later pass that moves code (e.g. register-guard insertion)
//! can re-patch every jump target, branch offset and `lui`/`ori` address pair
//! after re-layout. This mirrors real codesign/link-time protection tools,
//! which deliberately keep relocation metadata alive past linking.

use std::collections::BTreeMap;
use std::fmt;

use crate::inst::{DecodeError, Inst};
use crate::layout::{DATA_BASE, TEXT_BASE, WORD_BYTES};

/// Identifies which segment an address belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Segment {
    /// Executable code.
    Text,
    /// Static data.
    Data,
}

impl fmt::Display for Segment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Segment::Text => "text",
            Segment::Data => "data",
        })
    }
}

/// The kind of address-bearing instruction field a relocation patches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RelocKind {
    /// Upper 16 bits of an absolute address, in a `lui` immediate.
    Hi16,
    /// Lower 16 bits of an absolute address, in an `ori`/`addi`/load/store
    /// immediate.
    Lo16,
    /// 26-bit word-index target of `j`/`jal`.
    Jump26,
    /// 16-bit signed PC-relative word offset of a conditional branch.
    Branch16,
}

impl fmt::Display for RelocKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RelocKind::Hi16 => "HI16",
            RelocKind::Lo16 => "LO16",
            RelocKind::Jump26 => "J26",
            RelocKind::Branch16 => "BR16",
        })
    }
}

/// One relocation record: "text word `text_index` contains a `kind` field
/// referring to absolute address `target`".
///
/// `target` is the *original* absolute byte address the field refers to.
/// After a rewriting pass relocates code, targets inside the text segment
/// are remapped through the pass's address map and the field re-encoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Reloc {
    /// Index of the patched word within the text segment.
    pub text_index: usize,
    /// Which field of that word is patched.
    pub kind: RelocKind,
    /// Absolute byte address the field refers to.
    pub target: u32,
}

/// A loadable, rewritable SP32 program.
///
/// # Example
///
/// ```
/// use flexprot_isa::{Image, Inst, Reg};
///
/// let image = Image::from_text(vec![
///     Inst::Addi { rt: Reg::V0, rs: Reg::ZERO, imm: 10 }.encode(), // exit service
///     Inst::Syscall.encode(),
/// ]);
/// assert_eq!(image.text.len(), 2);
/// assert_eq!(image.entry, image.text_base);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Image {
    /// Address of the first instruction to execute.
    pub entry: u32,
    /// Base address of the text segment.
    pub text_base: u32,
    /// Text segment contents, one encoded instruction per word.
    pub text: Vec<u32>,
    /// Base address of the data segment.
    pub data_base: u32,
    /// Data segment contents (byte-addressed, little-endian words).
    pub data: Vec<u8>,
    /// Symbol table: label name → absolute address.
    pub symbols: BTreeMap<String, u32>,
    /// Relocation records for every address-bearing text field.
    pub relocs: Vec<Reloc>,
}

impl Image {
    /// Creates an image holding only the given text words at the default
    /// [`TEXT_BASE`], with the entry at the first word.
    pub fn from_text(text: Vec<u32>) -> Image {
        Image {
            entry: TEXT_BASE,
            text_base: TEXT_BASE,
            text,
            data_base: DATA_BASE,
            data: Vec::new(),
            symbols: BTreeMap::new(),
            relocs: Vec::new(),
        }
    }

    /// The byte address one past the last text word.
    pub fn text_end(&self) -> u32 {
        self.text_base + (self.text.len() as u32) * WORD_BYTES
    }

    /// Whether `addr` falls inside the text segment.
    pub fn contains_text_addr(&self, addr: u32) -> bool {
        addr >= self.text_base && addr < self.text_end()
    }

    /// Converts a text byte address to its word index.
    ///
    /// Returns `None` when the address is unaligned or out of range.
    pub fn text_index_of(&self, addr: u32) -> Option<usize> {
        if !self.contains_text_addr(addr) || !addr.is_multiple_of(WORD_BYTES) {
            return None;
        }
        Some(((addr - self.text_base) / WORD_BYTES) as usize)
    }

    /// Converts a text word index to its byte address.
    pub fn addr_of_index(&self, index: usize) -> u32 {
        self.text_base + (index as u32) * WORD_BYTES
    }

    /// Looks up a symbol's address.
    pub fn symbol(&self, name: &str) -> Option<u32> {
        self.symbols.get(name).copied()
    }

    /// Word indices that every control-flow recovery must treat as
    /// basic-block leaders regardless of instruction semantics: the first
    /// text word, the entry point, and every symbol that lands in text
    /// (symbols are potential indirect-branch targets). Sorted, deduplicated,
    /// empty for an empty text segment.
    pub fn anchor_indices(&self) -> Vec<usize> {
        if self.text.is_empty() {
            return Vec::new();
        }
        let mut anchors = vec![0];
        anchors.extend(self.text_index_of(self.entry));
        anchors.extend(self.symbols.values().filter_map(|&a| self.text_index_of(a)));
        anchors.sort_unstable();
        anchors.dedup();
        anchors
    }

    /// Decodes every text word, yielding `(address, result)` pairs.
    pub fn decode_text(&self) -> impl Iterator<Item = (u32, Result<Inst, DecodeError>)> + '_ {
        self.text
            .iter()
            .enumerate()
            .map(|(i, &w)| (self.addr_of_index(i), Inst::decode(w)))
    }

    /// Disassembles the text segment into assembler-compatible lines,
    /// rendering undecodable words as `.word` directives.
    pub fn disassemble(&self) -> String {
        let mut rev: BTreeMap<u32, Vec<&str>> = BTreeMap::new();
        for (name, &addr) in &self.symbols {
            rev.entry(addr).or_default().push(name);
        }
        let mut out = String::new();
        for (addr, decoded) in self.decode_text() {
            if let Some(names) = rev.get(&addr) {
                for name in names {
                    out.push_str(name);
                    out.push_str(":\n");
                }
            }
            match decoded {
                Ok(inst) => out.push_str(&format!("    {inst:<40} # {addr:#010x}\n")),
                Err(_) => {
                    let word = self.text[self.text_index_of(addr).expect("in range")];
                    out.push_str(&format!(
                        "    .word {word:#010x}{:<21} # {addr:#010x}\n",
                        ""
                    ))
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::Reg;

    fn tiny_image() -> Image {
        let mut img = Image::from_text(vec![
            Inst::Addi {
                rt: Reg::V0,
                rs: Reg::ZERO,
                imm: 10,
            }
            .encode(),
            Inst::Syscall.encode(),
        ]);
        img.symbols.insert("main".to_owned(), img.text_base);
        img
    }

    #[test]
    fn address_index_round_trip() {
        let img = tiny_image();
        for i in 0..img.text.len() {
            let addr = img.addr_of_index(i);
            assert_eq!(img.text_index_of(addr), Some(i));
        }
    }

    #[test]
    fn bounds_and_alignment_rejected() {
        let img = tiny_image();
        assert_eq!(img.text_index_of(img.text_base - 4), None);
        assert_eq!(img.text_index_of(img.text_end()), None);
        assert_eq!(img.text_index_of(img.text_base + 1), None);
        assert!(img.contains_text_addr(img.text_base));
        assert!(!img.contains_text_addr(img.text_end()));
    }

    #[test]
    fn disassembly_contains_labels_and_mnemonics() {
        let disasm = tiny_image().disassemble();
        assert!(disasm.contains("main:"));
        assert!(disasm.contains("addi $v0, $zero, 10"));
        assert!(disasm.contains("syscall"));
    }

    #[test]
    fn disassembly_renders_bad_words_as_data() {
        let mut img = tiny_image();
        img.text.push(0xFFFF_FFFF);
        assert!(img.disassemble().contains(".word 0xffffffff"));
    }
}
