//! Forward guard-coverage analysis and the static tamper-surface map.
//!
//! For each guard site that passed structural verification, the rolling
//! MAC provably covers a contiguous word interval: the straight-line
//! window body, the guard symbols themselves (their register-operand
//! fields *are* the signature, so any edit breaks the comparison), and
//! the signed tail words after the symbols.  Because verified windows are
//! straight-line by construction, the forward "which windows cover this
//! word" analysis collapses to interval marking — the abstract state
//! (the set of open windows) changes only at window starts and check
//! sites and never merges across control-flow joins.  The genuinely
//! iterative analyses (liveness, reachability depth, dominators) live in
//! the sibling modules on top of [`crate::dataflow`].
//!
//! A word with no covering window and no cipher region over it is
//! **tamper surface**: an attacker can edit it without perturbing any
//! hardware-checked hash.  The [`SurfaceMap`] ranks those words by how
//! attractive they are — words on every terminating path first (block
//! post-dominates the entry), then by breadth-first depth from the entry.

use flexprot_isa::Image;
use flexprot_secmon::SecMonConfig;
use flexprot_trace::json::{self, JsonWriter};

use crate::cfg::Cfg;
use crate::dataflow::{self, Analysis, Direction};
use crate::domtree::{self, DomTree};
use crate::flow::Flow;

/// One guard site's hash window, resolved to word indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GuardWindow {
    /// Address of the first guard symbol word.
    pub site_addr: u32,
    /// Word index where the rolling hash starts absorbing.
    pub start: usize,
    /// Word index of the first guard symbol.
    pub site: usize,
    /// Number of guard symbol words.
    pub symbols: usize,
    /// Signed tail words hashed after the symbols (the block terminator).
    pub tail: usize,
    /// Whether the structural checks passed (guard shape, straight-line
    /// window, no mid-window entries) — the precondition for the checksum
    /// proof, independent of whether the signature actually matched.
    pub structural: bool,
    /// Whether every structural and cryptographic check passed; only
    /// sound windows contribute coverage.
    pub sound: bool,
}

impl GuardWindow {
    /// One past the last covered word index.
    pub fn end(&self) -> usize {
        self.site + self.symbols + self.tail
    }

    /// Whether the window's MAC covers word `index`.
    pub fn covers(&self, index: usize) -> bool {
        self.start <= index && index < self.end()
    }
}

/// Per-word coverage facts derived from the verified guard windows.
#[derive(Debug, Clone)]
pub struct Coverage {
    /// Every resolved window, sound or not, in site-address order.
    pub windows: Vec<GuardWindow>,
    /// Per word: indices into `windows` of the sound windows covering it.
    pub covered_by: Vec<Vec<u16>>,
    /// Per word: a sound guard check completes on every path from the
    /// entry to the word (block-level dominator approximation: either an
    /// earlier check in the same block, or a check in a strict dominator
    /// block).
    pub dominated: Vec<bool>,
}

/// Derives per-word coverage from `windows` over the given flow graph.
///
/// `doms` is the dominator tree of `cfg` when the entry block is known;
/// without it the domination facts degrade to same-block checks only.
pub fn analyze(
    flow: &Flow,
    cfg: &Cfg,
    doms: Option<&DomTree>,
    windows: Vec<GuardWindow>,
) -> Coverage {
    let len = flow.decoded.len();
    let mut covered_by: Vec<Vec<u16>> = vec![Vec::new(); len];
    for (k, w) in windows.iter().enumerate() {
        if !w.sound {
            continue;
        }
        for slot in &mut covered_by[w.start..w.end().min(len)] {
            slot.push(k as u16);
        }
    }

    // Earliest word index at which a sound check has completed, per block:
    // the monitor compares only after the last signed tail word streams by.
    let mut check_done: Vec<Option<usize>> = vec![None; cfg.blocks.len()];
    for w in &windows {
        if !w.sound || w.site >= len {
            continue;
        }
        let b = cfg.block_of[w.site];
        let done = w.end();
        if done <= cfg.blocks[b].end {
            check_done[b] = Some(check_done[b].map_or(done, |d| d.min(done)));
        }
    }
    // A block inherits "some dominator completed a check" along its idom
    // chain — the chain *is* the set of strict dominators.
    let mut ancestor_check = vec![false; cfg.blocks.len()];
    if let Some(doms) = doms {
        // Process in a dominator-respecting order by walking chains with
        // memoisation (the idom chain is acyclic).
        for b in 0..cfg.blocks.len() {
            let mut chain = Vec::new();
            let mut x = b;
            let inherited = loop {
                if ancestor_check[x] {
                    break true;
                }
                match doms.idom[x] {
                    Some(p) => {
                        chain.push(x);
                        if check_done[p].is_some() {
                            break true;
                        }
                        x = p;
                    }
                    None => break false,
                }
            };
            if inherited {
                for c in chain {
                    ancestor_check[c] = true;
                }
            }
        }
    }
    let mut dominated = vec![false; len];
    for (i, d) in dominated.iter_mut().enumerate() {
        let b = cfg.block_of.get(i).copied().unwrap_or(0);
        *d = ancestor_check.get(b).copied().unwrap_or(false)
            || check_done
                .get(b)
                .copied()
                .flatten()
                .is_some_and(|done| done <= i);
    }

    Coverage {
        windows,
        covered_by,
        dominated,
    }
}

/// One uncovered word in the ranked tamper surface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SurfaceEntry {
    /// Word address.
    pub addr: u32,
    /// Reachable from the entry or a symbol.
    pub reachable: bool,
    /// Minimum number of flow edges from the entry (`None` = no static
    /// path).
    pub depth: Option<u32>,
    /// The word's block post-dominates the entry block: every terminating
    /// run executes it.
    pub must_execute: bool,
}

/// The machine-readable static tamper-surface map (`flexprot-surface-v1`).
#[derive(Debug, Clone)]
pub struct SurfaceMap {
    /// Total text words analysed.
    pub text_words: usize,
    /// Number of sound guard windows.
    pub sound_windows: usize,
    /// Per word: covered by at least one sound window.
    pub covered: Vec<bool>,
    /// Per word: inside a keyed cipher region.
    pub encrypted: Vec<bool>,
    /// Per word: reachable from the entry or a symbol.
    pub reachable: Vec<bool>,
    /// Uncovered, unencrypted words, most attractive targets first.
    pub entries: Vec<SurfaceEntry>,
}

impl SurfaceMap {
    /// Number of tamper-surface words.
    pub fn surface_words(&self) -> usize {
        self.entries.len()
    }

    /// Number of words covered by a sound window.
    pub fn covered_words(&self) -> usize {
        self.covered.iter().filter(|&&c| c).count()
    }

    /// Number of words inside cipher regions.
    pub fn encrypted_words(&self) -> usize {
        self.encrypted.iter().filter(|&&e| e).count()
    }

    /// Whether every reachable word is covered or encrypted.
    pub fn full_reachable_coverage(&self) -> bool {
        self.entries.iter().all(|e| !e.reachable)
    }

    /// Renders the map as a stable JSON document (`flexprot-surface-v1`).
    pub fn to_json(&self) -> String {
        json::object(|w| {
            w.key("schema").str("flexprot-surface-v1");
            w.key("text_words").num(self.text_words);
            w.key("sound_windows").num(self.sound_windows);
            w.key("covered_words").num(self.covered_words());
            w.key("encrypted_words").num(self.encrypted_words());
            w.key("surface_words").num(self.surface_words());
            w.key("entries").array(|w| {
                for e in &self.entries {
                    w.object(|w| {
                        w.key("addr").hex(e.addr);
                        w.key("reachable").bool(e.reachable);
                        w.key("depth").opt(e.depth, JsonWriter::num);
                        w.key("must_execute").bool(e.must_execute);
                    });
                }
            });
        })
    }
}

/// Forward minimum-depth analysis: lattice `Option<u32>` ordered with
/// `None` (no path) below every `Some`, and `Some(a) ⊑ Some(b)` iff
/// `b ≤ a` — joins take the minimum, so facts only ever improve and
/// chains are bounded by the shortest-path depth.
struct MinDepth;

impl Analysis for MinDepth {
    type Fact = Option<u32>;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn bottom(&self) -> Option<u32> {
        None
    }

    fn join(&self, into: &mut Option<u32>, from: &Option<u32>) -> bool {
        match (*into, *from) {
            (_, None) => false,
            (None, Some(f)) => {
                *into = Some(f);
                true
            }
            (Some(i), Some(f)) => {
                if f < i {
                    *into = Some(f);
                    true
                } else {
                    false
                }
            }
        }
    }

    fn transfer(&self, _node: usize, input: &Option<u32>) -> Option<u32> {
        input.map(|d| d.saturating_add(1))
    }
}

/// Builds the ranked tamper-surface map for `image` under `config`.
pub fn surface_map(
    image: &Image,
    config: &SecMonConfig,
    flow: &Flow,
    cfg: &Cfg,
    coverage: &Coverage,
) -> SurfaceMap {
    let len = flow.decoded.len();
    let covered: Vec<bool> = (0..len)
        .map(|i| !coverage.covered_by[i].is_empty())
        .collect();
    let encrypted: Vec<bool> = (0..len)
        .map(|i| config.regions.lookup(image.addr_of_index(i)).is_some())
        .collect();

    // Minimum flow depth from the entry and every symbol landing pad.
    let seeds: Vec<(usize, Option<u32>)> = flow.roots().map(|i| (i, Some(0))).collect();
    let depth = dataflow::solve(&MinDepth, &flow.succ_index, &seeds).input;

    // Must-execute blocks: post-dominate the entry block.
    let must_execute_block: Vec<bool> = match cfg.entry {
        Some(entry_block) if !cfg.blocks.is_empty() => {
            let (pdt, _) = domtree::post_dominators(&cfg.succs);
            (0..cfg.blocks.len())
                .map(|b| pdt.dominates(b, entry_block))
                .collect()
        }
        _ => vec![false; cfg.blocks.len()],
    };

    let mut entries: Vec<SurfaceEntry> = (0..len)
        .filter(|&i| !covered[i] && !encrypted[i])
        .map(|i| SurfaceEntry {
            addr: image.addr_of_index(i),
            reachable: flow.reachable[i],
            depth: depth[i],
            must_execute: cfg.block_of.get(i).is_some_and(|&b| must_execute_block[b]),
        })
        .collect();
    entries.sort_by_key(|e| {
        (
            !e.must_execute,
            !e.reachable,
            e.depth.unwrap_or(u32::MAX),
            e.addr,
        )
    });

    SurfaceMap {
        text_words: len,
        sound_windows: coverage.windows.iter().filter(|w| w.sound).count(),
        covered,
        encrypted,
        reachable: flow.reachable.clone(),
        entries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(start: usize, site: usize, symbols: usize, tail: usize, sound: bool) -> GuardWindow {
        GuardWindow {
            site_addr: 0x0040_0000 + 4 * site as u32,
            start,
            site,
            symbols,
            tail,
            structural: sound,
            sound,
        }
    }

    #[test]
    fn window_interval_arithmetic() {
        let w = window(2, 5, 2, 1, true);
        assert_eq!(w.end(), 8);
        assert!(w.covers(2) && w.covers(7));
        assert!(!w.covers(1) && !w.covers(8));
    }

    #[test]
    fn only_sound_windows_contribute_coverage() {
        let image = flexprot_asm::assemble_or_panic(
            "main: li $t0, 1\n li $t1, 2\n li $t2, 3\n li $v0, 10\n syscall\n",
        );
        let flow = Flow::recover(&image, &image.text.clone());
        let cfg = Cfg::build(&image, &flow);
        let cov = analyze(
            &flow,
            &cfg,
            None,
            vec![window(0, 2, 1, 0, true), window(3, 4, 1, 0, false)],
        );
        assert!(!cov.covered_by[0].is_empty());
        assert!(!cov.covered_by[2].is_empty(), "symbols self-cover");
        assert!(
            cov.covered_by[3].is_empty(),
            "unsound window covers nothing"
        );
        assert!(cov.covered_by[4].is_empty());
    }

    #[test]
    fn words_after_a_completed_check_are_dominated() {
        let image = flexprot_asm::assemble_or_panic(
            "main: li $t0, 1\n li $t1, 2\n li $t2, 3\n li $v0, 10\n syscall\n",
        );
        let flow = Flow::recover(&image, &image.text.clone());
        let cfg = Cfg::build(&image, &flow);
        let doms = cfg.entry.map(|e| crate::domtree::dominators(e, &cfg.succs));
        let cov = analyze(&flow, &cfg, doms.as_ref(), vec![window(0, 1, 1, 0, true)]);
        assert!(!cov.dominated[0], "before the check");
        assert!(!cov.dominated[1], "the check has not completed yet");
        assert!(cov.dominated[2] && cov.dominated[4], "after the check");
    }
}
