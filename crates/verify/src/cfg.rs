//! Basic-block partitioning of the word-level flow graph.
//!
//! The [`crate::flow`] recovery yields one node per text word; dominator
//! queries and the coverage lints want the coarser basic-block view.  A
//! block is a maximal straight-line run: every word except the last has
//! exactly one plain fall-through successor, and no word except the first
//! is the target of a non-fall-through edge, the entry point, or a
//! symbol.  Call continuations are kept as ordinary block edges — the
//! standard intraprocedural approximation (control *does* reach the
//! continuation whenever the callee returns).

use flexprot_isa::Image;

use crate::dataflow;
use crate::flow::{EdgeKind, Flow};

/// One basic block: the half-open word-index range `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BasicBlock {
    /// Index of the first word.
    pub start: usize,
    /// One past the index of the last word.
    pub end: usize,
}

/// The block-level control-flow graph.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// Blocks in address order.
    pub blocks: Vec<BasicBlock>,
    /// Word index → index of the containing block.
    pub block_of: Vec<usize>,
    /// Successor blocks per block (deduplicated).
    pub succs: Vec<Vec<usize>>,
    /// Predecessor blocks per block.
    pub preds: Vec<Vec<usize>>,
    /// Block containing the entry point, when the entry lands in text.
    pub entry: Option<usize>,
}

impl Cfg {
    /// Partitions `flow` (recovered from `image`) into basic blocks.
    pub fn build(image: &Image, flow: &Flow) -> Cfg {
        let len = flow.decoded.len();
        if len == 0 {
            return Cfg {
                blocks: Vec::new(),
                block_of: Vec::new(),
                succs: Vec::new(),
                preds: Vec::new(),
                entry: None,
            };
        }

        // Leaders: the shared anchor set (first word, entry, in-text
        // symbols), every target of a non-plain edge, and the word after
        // any block-ending word.
        let mut leader = vec![false; len];
        for i in image.anchor_indices() {
            if i < len {
                leader[i] = true;
            }
        }
        // A word continues its block only when it decodes to a plain
        // (non-control-transfer) instruction whose sole successor is the
        // next word via a fall-through edge.
        let plain_fall = |i: usize| -> bool {
            matches!(flow.decoded[i], Some(inst) if !inst.is_control_transfer())
                && flow.succs[i].len() == 1
                && flow.succs[i][0].to == i + 1
                && flow.succs[i][0].kind == EdgeKind::Flow
        };
        for i in 0..len {
            if plain_fall(i) {
                continue;
            }
            if i + 1 < len {
                leader[i + 1] = true;
            }
            for e in &flow.succs[i] {
                leader[e.to] = true;
            }
        }

        let mut blocks = Vec::new();
        let mut block_of = vec![0usize; len];
        let mut start = 0usize;
        for (i, is_leader) in leader
            .iter()
            .copied()
            .chain(std::iter::once(true))
            .enumerate()
            .skip(1)
        {
            if is_leader {
                let b = blocks.len();
                blocks.push(BasicBlock { start, end: i });
                for slot in &mut block_of[start..i] {
                    *slot = b;
                }
                start = i;
            }
        }

        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); blocks.len()];
        for (b, block) in blocks.iter().enumerate() {
            let last = block.end - 1;
            let mut outs: Vec<usize> = flow.succs[last].iter().map(|e| block_of[e.to]).collect();
            outs.sort_unstable();
            outs.dedup();
            succs[b] = outs;
        }
        let preds = dataflow::invert(&succs);
        let entry = flow.entry.map(|e| block_of[e]);
        Cfg {
            blocks,
            block_of,
            succs,
            preds,
            entry,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg_of(src: &str) -> (Flow, Cfg) {
        let image = flexprot_asm::assemble_or_panic(src);
        let flow = Flow::recover(&image, &image.text.clone());
        let cfg = Cfg::build(&image, &flow);
        (flow, cfg)
    }

    #[test]
    fn straight_line_is_one_block_until_the_syscall() {
        // Syscall is a control transfer for blocking purposes (it can
        // exit), so it terminates the block it ends.
        let (_, cfg) = cfg_of("main: li $t0, 1\n li $t1, 2\n li $v0, 10\n syscall\n");
        assert_eq!(cfg.blocks.len(), 1);
        assert_eq!(cfg.blocks[0], BasicBlock { start: 0, end: 4 });
        assert_eq!(cfg.entry, Some(0));
    }

    #[test]
    fn diamond_splits_into_four_blocks() {
        let (_, cfg) = cfg_of(
            r#"
main:   beq  $t0, $t1, right
left:   li   $t2, 1
        b    join
right:  li   $t2, 2
join:   li   $v0, 10
        syscall
"#,
        );
        assert_eq!(cfg.blocks.len(), 4);
        let entry = cfg.entry.unwrap();
        assert_eq!(cfg.succs[entry].len(), 2);
        // Both arms converge on the join block.
        let join = cfg.block_of[4];
        assert_eq!(cfg.preds[join].len(), 2);
    }

    #[test]
    fn call_continuation_is_a_block_edge() {
        let (_, cfg) = cfg_of(
            r#"
main:   jal  f
        li   $v0, 10
        syscall
f:      jr   $ra
"#,
        );
        let entry = cfg.entry.unwrap();
        // The call block flows to both the callee and the continuation.
        assert_eq!(cfg.succs[entry].len(), 2);
        // `jr` ends its block with no successors.
        let ret = cfg.block_of[3];
        assert!(cfg.succs[ret].is_empty());
    }

    #[test]
    fn every_word_maps_into_its_block_range() {
        let (_, cfg) = cfg_of(
            r#"
main:   beq  $t0, $t1, out
        li   $t2, 1
out:    syscall
"#,
        );
        for (w, &b) in cfg.block_of.iter().enumerate() {
            assert!(cfg.blocks[b].start <= w && w < cfg.blocks[b].end);
        }
    }
}
