//! Binary (de)serialization of program images — the `FPX1` container.
//!
//! The toolchain's CLI binaries exchange images as files; the format is a
//! deliberately simple little-endian container:
//!
//! ```text
//! "FPX1"                          magic
//! u32 entry, text_base, data_base
//! u32 text_words   then that many u32 text words
//! u32 data_bytes   then that many bytes
//! u32 n_symbols    then { u32 len, bytes name, u32 addr }*
//! u32 n_relocs     then { u32 text_index, u8 kind, u32 target }*
//! ```

use std::fmt;

use crate::image::{Image, Reloc, RelocKind, Segment};

const MAGIC: &[u8; 4] = b"FPX1";

/// Error returned when parsing an `FPX1` container fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ImageFormatError {
    /// The magic bytes are wrong — not an FPX1 file.
    BadMagic,
    /// The data ended before a declared field.
    Truncated,
    /// A declared length is implausibly large for the remaining input.
    BadLength,
    /// A symbol name is not valid UTF-8.
    BadSymbolName,
    /// An unknown relocation-kind tag.
    BadRelocKind(u8),
    /// Trailing bytes after the last field.
    TrailingBytes,
    /// A segment runs past the end of the 32-bit address space.
    SegmentWraps(Segment),
}

impl fmt::Display for ImageFormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImageFormatError::BadMagic => f.write_str("not an FPX1 image (bad magic)"),
            ImageFormatError::Truncated => f.write_str("truncated FPX1 image"),
            ImageFormatError::BadLength => f.write_str("implausible length field"),
            ImageFormatError::BadSymbolName => f.write_str("symbol name is not valid UTF-8"),
            ImageFormatError::BadRelocKind(k) => write!(f, "unknown relocation kind {k}"),
            ImageFormatError::TrailingBytes => f.write_str("trailing bytes after image"),
            ImageFormatError::SegmentWraps(s) => {
                write!(f, "{s} segment runs past the end of the address space")
            }
        }
    }
}

impl std::error::Error for ImageFormatError {}

impl From<ReadError> for ImageFormatError {
    fn from(e: ReadError) -> Self {
        match e {
            ReadError::Truncated => ImageFormatError::Truncated,
            ReadError::BadLength => ImageFormatError::BadLength,
        }
    }
}

/// Why a [`Reader`] refused a field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadError {
    /// The input ended before the field.
    Truncated,
    /// A declared count cannot fit in the remaining input.
    BadLength,
}

/// A bounds-checked little-endian cursor over an untrusted container,
/// shared by the `FPX1` and `FPM1` decoders. No read panics or allocates.
#[derive(Debug)]
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Reader { data, pos: 0 }
    }

    /// Whether every byte has been read.
    pub fn at_end(&self) -> bool {
        self.pos == self.data.len()
    }

    /// The next `n` bytes.
    ///
    /// # Errors
    ///
    /// [`ReadError::Truncated`] when fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], ReadError> {
        if self.data.len() - self.pos < n {
            return Err(ReadError::Truncated);
        }
        let slice = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// One byte.
    ///
    /// # Errors
    ///
    /// [`ReadError::Truncated`] at the end of the input.
    pub fn u8(&mut self) -> Result<u8, ReadError> {
        Ok(self.take(1)?[0])
    }

    /// A little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`ReadError::Truncated`] when fewer than 4 bytes remain.
    pub fn u32(&mut self) -> Result<u32, ReadError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    /// A little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`ReadError::Truncated`] when fewer than 8 bytes remain.
    pub fn u64(&mut self) -> Result<u64, ReadError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// A `u32` element count that must plausibly fit in the remaining
    /// bytes, with each element at least `min_elem_size` bytes.
    ///
    /// # Errors
    ///
    /// [`ReadError::Truncated`] when the count itself is cut off,
    /// [`ReadError::BadLength`] when the elements cannot fit.
    pub fn count(&mut self, min_elem_size: usize) -> Result<usize, ReadError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem_size) > self.data.len() - self.pos {
            return Err(ReadError::BadLength);
        }
        Ok(n)
    }
}

fn reloc_kind_tag(kind: RelocKind) -> u8 {
    match kind {
        RelocKind::Hi16 => 0,
        RelocKind::Lo16 => 1,
        RelocKind::Jump26 => 2,
        RelocKind::Branch16 => 3,
    }
}

fn reloc_kind_from_tag(tag: u8) -> Result<RelocKind, ImageFormatError> {
    Ok(match tag {
        0 => RelocKind::Hi16,
        1 => RelocKind::Lo16,
        2 => RelocKind::Jump26,
        3 => RelocKind::Branch16,
        other => return Err(ImageFormatError::BadRelocKind(other)),
    })
}

impl Image {
    /// Serializes to the `FPX1` container.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.text.len() * 4 + self.data.len());
        out.extend_from_slice(MAGIC);
        for v in [self.entry, self.text_base, self.data_base] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&(self.text.len() as u32).to_le_bytes());
        for &w in &self.text {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out.extend_from_slice(&(self.data.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.data);
        out.extend_from_slice(&(self.symbols.len() as u32).to_le_bytes());
        for (name, &addr) in &self.symbols {
            out.extend_from_slice(&(name.len() as u32).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(&addr.to_le_bytes());
        }
        out.extend_from_slice(&(self.relocs.len() as u32).to_le_bytes());
        for r in &self.relocs {
            out.extend_from_slice(&(r.text_index as u32).to_le_bytes());
            out.push(reloc_kind_tag(r.kind));
            out.extend_from_slice(&r.target.to_le_bytes());
        }
        out
    }

    /// Parses an `FPX1` container.
    ///
    /// # Errors
    ///
    /// Returns an [`ImageFormatError`] for malformed input; never panics on
    /// untrusted bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Image, ImageFormatError> {
        let mut r = Reader::new(bytes);
        if r.take(4)? != MAGIC {
            return Err(ImageFormatError::BadMagic);
        }
        let entry = r.u32()?;
        let text_base = r.u32()?;
        let data_base = r.u32()?;
        let text_words = r.count(4)?;
        let mut text = Vec::with_capacity(text_words);
        for _ in 0..text_words {
            text.push(r.u32()?);
        }
        let data_bytes = r.count(1)?;
        let data = r.take(data_bytes)?.to_vec();
        let n_symbols = r.count(8)?;
        let mut symbols = std::collections::BTreeMap::new();
        for _ in 0..n_symbols {
            let len = r.count(1)?;
            let name = std::str::from_utf8(r.take(len)?)
                .map_err(|_| ImageFormatError::BadSymbolName)?
                .to_owned();
            let addr = r.u32()?;
            symbols.insert(name, addr);
        }
        let n_relocs = r.count(9)?;
        let mut relocs = Vec::with_capacity(n_relocs);
        for _ in 0..n_relocs {
            let text_index = r.u32()? as usize;
            let kind = reloc_kind_from_tag(r.u8()?)?;
            let target = r.u32()?;
            relocs.push(Reloc {
                text_index,
                kind,
                target,
            });
        }
        if !r.at_end() {
            return Err(ImageFormatError::TrailingBytes);
        }
        for (segment, base, bytes) in [
            (Segment::Text, text_base, 4 * text.len()),
            (Segment::Data, data_base, data.len()),
        ] {
            if u64::from(base) + bytes as u64 > u64::from(u32::MAX) {
                return Err(ImageFormatError::SegmentWraps(segment));
            }
        }
        Ok(Image {
            entry,
            text_base,
            text,
            data_base,
            data,
            symbols,
            relocs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Inst;
    use crate::reg::Reg;

    fn sample() -> Image {
        let mut image = Image::from_text(vec![
            Inst::Addi {
                rt: Reg::V0,
                rs: Reg::ZERO,
                imm: 10,
            }
            .encode(),
            Inst::Syscall.encode(),
            Inst::Jal { target: 0x10_0000 }.encode(),
        ]);
        image.data = vec![1, 2, 3, 4, 5];
        image.symbols.insert("main".into(), image.text_base);
        image.symbols.insert("data0".into(), image.data_base);
        image.relocs.push(Reloc {
            text_index: 2,
            kind: RelocKind::Jump26,
            target: 0x0040_0000,
        });
        image
    }

    #[test]
    fn round_trip_preserves_everything() {
        let image = sample();
        let bytes = image.to_bytes();
        assert_eq!(Image::from_bytes(&bytes), Ok(image));
    }

    #[test]
    fn empty_image_round_trips() {
        let image = Image::from_text(Vec::new());
        assert_eq!(Image::from_bytes(&image.to_bytes()), Ok(image));
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[0] = b'X';
        assert_eq!(Image::from_bytes(&bytes), Err(ImageFormatError::BadMagic));
    }

    #[test]
    fn truncation_rejected_at_every_length() {
        let bytes = sample().to_bytes();
        for cut in 0..bytes.len() {
            let err = Image::from_bytes(&bytes[..cut]);
            assert!(err.is_err(), "accepted a {cut}-byte prefix");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = sample().to_bytes();
        bytes.push(0);
        assert_eq!(
            Image::from_bytes(&bytes),
            Err(ImageFormatError::TrailingBytes)
        );
    }

    #[test]
    fn absurd_counts_rejected_without_allocation() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"FPX1");
        bytes.extend_from_slice(&[0; 12]); // entry, bases
        bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // text_words
        assert_eq!(Image::from_bytes(&bytes), Err(ImageFormatError::BadLength));
    }

    #[test]
    fn bad_reloc_kind_rejected() {
        let image = sample();
        let mut bytes = image.to_bytes();
        // The reloc kind byte is 4 bytes from the end (kind, then target).
        let pos = bytes.len() - 5;
        bytes[pos] = 9;
        assert_eq!(
            Image::from_bytes(&bytes),
            Err(ImageFormatError::BadRelocKind(9))
        );
    }
}
