//! Text watches: pausing a run just before it first fetches chosen words.
//!
//! A build that differs from a pristine one in a few text words runs state
//! for state like it until it first reads one of them: the fetch of the
//! word, or a load, store or print-string syscall that touches it. The
//! I-cache fill of the word's line reads it too, but only into the
//! decoded-line store, which [`crate::Machine::poke_text`] drops; fill
//! timing never depends on the words filled.
//!
//! [`crate::Machine::run_watched`] runs the pristine build under a
//! [`TextWatch`] that arms the patched words, and pauses before the first
//! fetch of each. A patched run can then be forked from the paused
//! machine instead of re-running the shared prefix. A data access that
//! touches an armed word first is recorded, not paused at: from there on
//! the two builds may differ, so a patch holding that word needs a run of
//! its own.

/// The armed text words of a watched run.
#[derive(Debug, Clone, Default)]
pub struct TextWatch {
    base: u32,
    armed: Vec<bool>,
    touched: Vec<usize>,
}

impl TextWatch {
    /// A watch over the `words` text words from `text_base`, none armed.
    pub fn new(text_base: u32, words: usize) -> TextWatch {
        TextWatch {
            base: text_base,
            armed: vec![false; words],
            touched: Vec::new(),
        }
    }

    /// Arms text word `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` lies past the watched words.
    pub fn arm(&mut self, index: usize) {
        self.armed[index] = true;
    }

    /// The armed words that data accesses touched before any fetch of
    /// them, since the last call. Each was disarmed when touched.
    pub fn take_touched(&mut self) -> Vec<usize> {
        std::mem::take(&mut self.touched)
    }

    /// Disarms the word at the text address `pc`; whether it was armed.
    pub(crate) fn fetch(&mut self, pc: u32) -> bool {
        let index = (pc.wrapping_sub(self.base) / 4) as usize;
        self.armed.get_mut(index).is_some_and(std::mem::take)
    }

    /// Records and disarms every armed word the `len` bytes from `addr`
    /// overlap, wrapping at the top of the address space like memory.
    pub(crate) fn touch(&mut self, addr: u32, len: u32) {
        const SPACE: u64 = 1 << 32;
        let end = u64::from(addr) + u64::from(len);
        self.touch_span(u64::from(addr), end.min(SPACE));
        if end > SPACE {
            self.touch_span(0, end - SPACE);
        }
    }

    fn touch_span(&mut self, start: u64, end: u64) {
        let base = u64::from(self.base);
        let first = (start.saturating_sub(base) / 4) as usize;
        let last = end
            .saturating_sub(base)
            .div_ceil(4)
            .min(self.armed.len() as u64) as usize;
        for index in first..last {
            if std::mem::take(&mut self.armed[index]) {
                self.touched.push(index);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fetch_disarms_only_armed_words() {
        let mut watch = TextWatch::new(0x100, 4);
        watch.arm(2);
        assert!(!watch.fetch(0x104));
        assert!(watch.fetch(0x108));
        assert!(!watch.fetch(0x108), "a pause disarms its word");
        assert!(!watch.fetch(0x0FC) && !watch.fetch(0x110), "outside text");
    }

    #[test]
    fn touch_records_every_overlapped_armed_word_once() {
        let mut watch = TextWatch::new(0x100, 4);
        for index in 0..4 {
            watch.arm(index);
        }
        watch.touch(0x0FE, 3); // the last bytes below text and word 0
        watch.touch(0x107, 2); // across words 1 and 2
        watch.touch(0x100, 4); // word 0 again: already disarmed
        assert_eq!(watch.take_touched(), vec![0, 1, 2]);
        assert!(watch.take_touched().is_empty());
        watch.touch(0x10C, 0);
        assert!(
            watch.take_touched().is_empty(),
            "an empty span touches nothing"
        );
        assert!(watch.fetch(0x10C));
    }

    #[test]
    fn touch_wraps_at_the_top_of_the_address_space() {
        let mut watch = TextWatch::new(0, 2);
        watch.arm(1);
        watch.touch(u32::MAX - 1, 8);
        assert_eq!(watch.take_touched(), vec![1]);
    }
}
