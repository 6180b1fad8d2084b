//! Execution profiles: the feedback half of the codesign loop.
//!
//! The "flexible" in flexible protection is profile-driven: the toolchain
//! first runs the unprotected program on representative inputs, then uses
//! per-block execution counts and per-line I-cache miss counts to decide
//! where protection is affordable. The counts come from a profiling
//! [`FetchMonitor`] attached to that run: it sits where the protection
//! hardware sits, counting committed instructions and I-cache fills, and
//! changes nothing about the run.

use std::collections::BTreeMap;

use flexprot_isa::Image;
use flexprot_sim::{FetchMonitor, Machine, Outcome, RunResult, SimConfig, TamperEvent};

use crate::cfg::Block;

/// A baseline execution profile of an unprotected program.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    /// Committed-instruction count per text word, indexed like
    /// [`Image::text`].
    exec_counts: Vec<u64>,
    /// I-cache fill count per line base address.
    miss_fills: BTreeMap<u32, u64>,
    /// Total committed instructions.
    pub instructions: u64,
    /// Total cycles.
    pub cycles: u64,
}

/// The profiling monitor: counts commits per text word and fills per
/// I-cache line, and neither transforms nor delays anything.
#[derive(Debug, Default)]
struct Profiler {
    text_base: u32,
    exec_counts: Vec<u64>,
    miss_fills: BTreeMap<u32, u64>,
}

impl FetchMonitor for Profiler {
    fn bind_text(&mut self, text_base: u32, text_end: u32) {
        let words = (text_end.saturating_sub(text_base) / 4) as usize;
        *self = Profiler {
            text_base,
            exec_counts: vec![0; words],
            miss_fills: BTreeMap::new(),
        };
    }

    fn fill_penalty(&mut self, line_addr: u32, _line_words: u32) -> u64 {
        *self.miss_fills.entry(line_addr).or_insert(0) += 1;
        0
    }

    fn observe_commit(&mut self, pc: u32, _word: u32, _sequential: bool) -> Option<TamperEvent> {
        self.exec_counts[((pc - self.text_base) / 4) as usize] += 1;
        None
    }
}

impl Profile {
    /// Profiles `image` by running it unprotected under a profiling
    /// monitor. Returns the profile together with the run result so
    /// callers can validate output and outcome.
    pub fn collect(image: &Image, config: &SimConfig) -> (Profile, RunResult) {
        let mut machine = Machine::with_monitor(image, config.clone(), Profiler::default());
        let result = machine.run();
        let profiler = std::mem::take(machine.monitor_mut());
        let profile = Profile {
            exec_counts: profiler.exec_counts,
            miss_fills: profiler.miss_fills,
            instructions: result.stats.instructions,
            cycles: result.stats.cycles,
        };
        (profile, result)
    }

    /// Like [`Profile::collect`], panicking unless the program exits
    /// cleanly — profiles of crashing programs are garbage.
    ///
    /// # Panics
    ///
    /// Panics when the baseline run does not end in `Exit(0)`.
    pub fn collect_clean(image: &Image, config: &SimConfig) -> Profile {
        let (profile, result) = Profile::collect(image, config);
        assert!(
            result.outcome == Outcome::Exit(0),
            "baseline run did not exit cleanly: {:?}",
            result.outcome
        );
        profile
    }

    /// How many times `block` was entered (execution count of its leader).
    pub fn block_entries(&self, block: &Block) -> u64 {
        self.exec_counts.get(block.start).copied().unwrap_or(0)
    }

    /// Total I-cache miss fills whose line base falls in `[start, end)`.
    pub fn miss_fills_in(&self, start: u32, end: u32) -> u64 {
        self.miss_fills
            .range(start..end.max(start))
            .map(|(_, n)| n)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::Cfg;

    fn sample() -> (Image, Profile) {
        let image = flexprot_asm::assemble_or_panic(
            r#"
main:   li   $t0, 5
loop:   addi $t0, $t0, -1
        bgtz $t0, loop
        li   $v0, 10
        syscall
"#,
        );
        let profile = Profile::collect_clean(&image, &SimConfig::default());
        (image, profile)
    }

    #[test]
    fn collect_counts_commits_per_word_and_fills_per_line() {
        let (image, profile) = sample();
        let count_at = |pc| profile.exec_counts[image.text_index_of(pc).unwrap()];
        assert_eq!(count_at(image.symbol("loop").unwrap()), 5);
        assert_eq!(count_at(image.entry), 1);
        assert_eq!(
            profile.exec_counts.iter().sum::<u64>(),
            profile.instructions
        );
        assert_eq!(profile.instructions, 1 + 5 * 2 + 2);
        assert!(!profile.miss_fills.is_empty());
    }

    #[test]
    fn profiling_leaves_the_run_unchanged() {
        let (image, _) = sample();
        let (_, profiled) = Profile::collect(&image, &SimConfig::default());
        assert_eq!(profiled, Machine::new(&image, SimConfig::default()).run());
    }

    #[test]
    fn block_entries_uses_leader() {
        let (image, profile) = sample();
        let cfg = Cfg::recover(&image).unwrap();
        let entries: Vec<u64> = cfg
            .blocks
            .iter()
            .map(|b| profile.block_entries(b))
            .collect();
        // Blocks: [main], [loop], [exit]; the loop block runs 5 times.
        assert_eq!(entries, vec![1, 5, 1]);
    }

    #[test]
    fn miss_fills_in_covers_whole_text() {
        let (image, profile) = sample();
        assert!(profile.miss_fills_in(image.text_base, image.text_end()) >= 1);
        assert_eq!(profile.miss_fills_in(0, 0x100), 0);
        assert_eq!(profile.miss_fills_in(image.text_end(), image.text_base), 0);
    }

    #[test]
    #[should_panic(expected = "did not exit cleanly")]
    fn collect_clean_rejects_crashes() {
        let image = flexprot_asm::assemble_or_panic("main: break\n");
        Profile::collect_clean(&image, &SimConfig::default());
    }
}
