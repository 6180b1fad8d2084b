//! Control-flow-graph recovery from a program image.
//!
//! The protection passes are binary passes: they see an [`Image`], not
//! source. CFG recovery finds basic-block leaders (the entry, every
//! branch/jump target, and every instruction following a control transfer —
//! calls included, because the secure monitor's hash window must be
//! straight-line), builds intra-procedural edges, groups blocks into
//! functions, and marks loop headers (targets of back edges).
//!
//! Recovery is *strict*: undecodable words or control transfers into the
//! middle of nowhere are errors, because rewriting such a binary safely is
//! impossible. This mirrors the codesign assumption that the protection
//! tool runs on toolchain-produced binaries with relocation metadata
//! intact.

use std::collections::{BTreeMap, BTreeSet};

use flexprot_isa::{Image, Inst};

use crate::error::ProtectError;

/// How a basic block ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Terminator {
    /// Control continues to the next sequential block.
    FallThrough,
    /// Conditional branch: taken target + fall-through.
    Branch { target: u32 },
    /// Unconditional direct jump.
    Jump { target: u32 },
    /// Direct call; control returns to the fall-through block.
    Call { target: u32 },
    /// Indirect jump (`jr`) — typically a return.
    IndirectJump,
    /// Indirect call (`jalr`).
    IndirectCall,
    /// `syscall` or `break`. Ends a block so that a guard can sit *before*
    /// it: an exit syscall must not escape the protected block before its
    /// signature is checked.
    System,
    /// The block ends because the next word is a leader.
    None,
}

/// One basic block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// Word index of the leader within the text segment.
    pub start: usize,
    /// Length in words (≥ 1).
    pub len: usize,
    /// How the block ends.
    pub terminator: Terminator,
    /// Indices of intra-procedural successor blocks.
    pub succs: Vec<usize>,
    /// Whether some successor edge into this block is a back edge.
    pub is_loop_header: bool,
    /// Index of the owning function.
    pub func: usize,
}

impl Block {
    /// Number of body words, i.e. words before the terminating control
    /// transfer (the whole block when it ends by fall-through/leader).
    pub fn body_len(&self) -> usize {
        match self.terminator {
            Terminator::FallThrough | Terminator::None => self.len,
            _ => self.len - 1,
        }
    }
}

/// One recovered function: a contiguous range of blocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Function {
    /// Entry address.
    pub entry: u32,
    /// One past the last byte of the function.
    pub end: u32,
    /// Symbol name, when the symbol table has one for the entry.
    pub name: Option<String>,
    /// Indices of the function's blocks, in address order.
    pub blocks: Vec<usize>,
}

/// The recovered control-flow graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cfg {
    /// Blocks in address order.
    pub blocks: Vec<Block>,
    /// Functions in address order.
    pub functions: Vec<Function>,
}

impl Cfg {
    /// Recovers the CFG of `image`.
    ///
    /// # Errors
    ///
    /// Fails when a text word does not decode or a direct control transfer
    /// targets an invalid address.
    pub fn recover(image: &Image) -> Result<Cfg, ProtectError> {
        let insts = decode_all(image)?;
        let leaders = find_leaders(image, &insts)?;
        let blocks = build_blocks(image, &insts, &leaders);
        let functions = find_functions(image, &insts, &blocks);
        let mut cfg = Cfg { blocks, functions };
        cfg.assign_functions(image);
        cfg.link_edges(image);
        cfg.mark_loop_headers();
        Ok(cfg)
    }

    fn assign_functions(&mut self, image: &Image) {
        for (bi, block) in self.blocks.iter_mut().enumerate() {
            let addr = image.addr_of_index(block.start);
            let fi = self
                .functions
                .partition_point(|f| f.entry <= addr)
                .saturating_sub(1);
            block.func = fi;
            self.functions[fi].blocks.push(bi);
        }
        for (fi, func) in self.functions.iter_mut().enumerate() {
            debug_assert!(func.blocks.iter().all(|&b| self.blocks[b].func == fi));
        }
    }

    fn link_edges(&mut self, image: &Image) {
        let starts: Vec<usize> = self.blocks.iter().map(|b| b.start).collect();
        let block_of_index =
            |index: usize| -> usize { starts.partition_point(|&s| s <= index) - 1 };
        for bi in 0..self.blocks.len() {
            let block = &self.blocks[bi];
            let next = bi + 1;
            let mut succs = Vec::new();
            match block.terminator {
                Terminator::FallThrough | Terminator::None => {
                    if next < self.blocks.len() {
                        succs.push(next);
                    }
                }
                Terminator::Branch { target } => {
                    if let Some(ti) = image.text_index_of(target) {
                        succs.push(block_of_index(ti));
                    }
                    if next < self.blocks.len() {
                        succs.push(next);
                    }
                }
                Terminator::Jump { target } => {
                    if let Some(ti) = image.text_index_of(target) {
                        succs.push(block_of_index(ti));
                    }
                }
                // Calls and syscalls: intra-procedural edge to the return
                // point only (an exit syscall simply never takes it).
                Terminator::Call { .. } | Terminator::IndirectCall | Terminator::System => {
                    if next < self.blocks.len() {
                        succs.push(next);
                    }
                }
                // Returns / computed jumps: no static successors.
                Terminator::IndirectJump => {}
            }
            succs.dedup();
            self.blocks[bi].succs = succs;
        }
    }

    fn mark_loop_headers(&mut self) {
        // Approximation suited to toolchain-generated code: an edge whose
        // target does not lie at a higher address than its source is a back
        // edge.
        let mut headers = BTreeSet::new();
        for (bi, block) in self.blocks.iter().enumerate() {
            for &succ in &block.succs {
                if self.blocks[succ].start <= block.start {
                    headers.insert(succ);
                }
            }
            let _ = bi;
        }
        for &h in &headers {
            self.blocks[h].is_loop_header = true;
        }
    }
}

fn decode_all(image: &Image) -> Result<Vec<Inst>, ProtectError> {
    image
        .decode_text()
        .map(|(addr, decoded)| {
            decoded.map_err(|_| ProtectError::UndecodableText {
                addr,
                word: image.text[image.text_index_of(addr).expect("in range")],
            })
        })
        .collect()
}

fn find_leaders(image: &Image, insts: &[Inst]) -> Result<BTreeSet<usize>, ProtectError> {
    let mut leaders = BTreeSet::new();
    if insts.is_empty() {
        return Ok(leaders);
    }
    // First word, entry point and in-text symbols — the semantic-free
    // leader set shared with `flexprot-verify`'s block partitioning.
    leaders.extend(image.anchor_indices());
    for (i, inst) in insts.iter().enumerate() {
        let addr = image.addr_of_index(i);
        let target = inst.branch_target(addr).or_else(|| inst.jump_target());
        if let Some(target) = target {
            let ti = image
                .text_index_of(target)
                .ok_or(ProtectError::BadControlTarget { addr, target })?;
            leaders.insert(ti);
        }
        if inst.is_control_transfer() && i + 1 < insts.len() {
            leaders.insert(i + 1);
        }
    }
    Ok(leaders)
}

fn build_blocks(image: &Image, insts: &[Inst], leaders: &BTreeSet<usize>) -> Vec<Block> {
    let leader_list: Vec<usize> = leaders.iter().copied().collect();
    let mut blocks = Vec::with_capacity(leader_list.len());
    for (li, &start) in leader_list.iter().enumerate() {
        let end = leader_list.get(li + 1).copied().unwrap_or(insts.len());
        let len = end - start;
        debug_assert!(len >= 1);
        let last = insts[end - 1];
        let last_addr = image.addr_of_index(end - 1);
        let terminator = match last {
            Inst::J { .. } => Terminator::Jump {
                target: last.jump_target().expect("jump has target"),
            },
            Inst::Jal { .. } => Terminator::Call {
                target: last.jump_target().expect("call has target"),
            },
            Inst::Jr { .. } => Terminator::IndirectJump,
            Inst::Jalr { .. } => Terminator::IndirectCall,
            Inst::Syscall | Inst::Break => Terminator::System,
            // `beq $r, $r, target` (the assembler's `b`) is unconditional.
            Inst::Beq { rs, rt, .. } if rs == rt => Terminator::Jump {
                target: last.branch_target(last_addr).expect("branch has target"),
            },
            _ if last.is_branch() => Terminator::Branch {
                target: last.branch_target(last_addr).expect("branch has target"),
            },
            _ => Terminator::None,
        };
        blocks.push(Block {
            start,
            len,
            terminator,
            succs: Vec::new(),
            is_loop_header: false,
            func: 0,
        });
    }
    blocks
}

fn find_functions(image: &Image, insts: &[Inst], blocks: &[Block]) -> Vec<Function> {
    let mut entries: BTreeSet<u32> = BTreeSet::new();
    entries.insert(image.text_base);
    entries.insert(image.entry);
    for inst in insts {
        if let Inst::Jal { target } = inst {
            let addr = target << 2;
            if image.contains_text_addr(addr) {
                entries.insert(addr);
            }
        }
    }
    let _ = blocks;
    let mut names: BTreeMap<u32, String> = BTreeMap::new();
    for (name, &addr) in &image.symbols {
        names.entry(addr).or_insert_with(|| name.clone());
    }
    let entry_list: Vec<u32> = entries.iter().copied().collect();
    entry_list
        .iter()
        .enumerate()
        .map(|(i, &entry)| Function {
            entry,
            end: entry_list.get(i + 1).copied().unwrap_or(image.text_end()),
            name: names.get(&entry).cloned(),
            blocks: Vec::new(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg_of(src: &str) -> (Image, Cfg) {
        let image = flexprot_asm::assemble_or_panic(src);
        let cfg = Cfg::recover(&image).expect("recovery");
        (image, cfg)
    }

    #[test]
    fn straight_line_is_one_block() {
        let (_, cfg) = cfg_of("main: li $t0, 1\n li $t1, 2\n addu $t2, $t0, $t1\n syscall\n");
        assert_eq!(cfg.blocks.len(), 1);
        assert_eq!(cfg.blocks[0].len, 4);
        assert_eq!(cfg.blocks[0].terminator, Terminator::System);
        assert_eq!(cfg.blocks[0].body_len(), 3);
        assert_eq!(cfg.functions.len(), 1);
    }

    #[test]
    fn branch_splits_blocks_and_links_edges() {
        let (_, cfg) = cfg_of(
            r#"
main:   beq $t0, $t1, yes
        li  $t2, 1
        b   end
yes:    li  $t2, 2
end:    syscall
"#,
        );
        // Blocks: [beq], [li;b], [yes: li], [end: syscall]
        assert_eq!(cfg.blocks.len(), 4);
        assert!(matches!(
            cfg.blocks[0].terminator,
            Terminator::Branch { .. }
        ));
        assert_eq!(cfg.blocks[0].succs, vec![2, 1]);
        assert_eq!(cfg.blocks[1].succs, vec![3]); // b end
        assert_eq!(cfg.blocks[2].succs, vec![3]);
        assert!(cfg.blocks[3].succs.is_empty());
    }

    #[test]
    fn call_ends_block_with_fallthrough_edge() {
        let (_, cfg) = cfg_of(
            r#"
main:   li  $a0, 1
        jal f
        li  $v0, 10
        syscall
f:      jr  $ra
"#,
        );
        // Blocks: [li;jal], [li;syscall], [f: jr]
        assert_eq!(cfg.blocks.len(), 3);
        assert!(matches!(cfg.blocks[0].terminator, Terminator::Call { .. }));
        assert_eq!(cfg.blocks[0].succs, vec![1]);
        assert_eq!(cfg.blocks[2].terminator, Terminator::IndirectJump);
        assert!(cfg.blocks[2].succs.is_empty());
    }

    #[test]
    fn functions_are_split_at_jal_targets() {
        let (image, cfg) = cfg_of(
            r#"
main:   jal f
        jal g
        syscall
f:      jr  $ra
g:      jr  $ra
"#,
        );
        assert_eq!(cfg.functions.len(), 3);
        assert_eq!(cfg.functions[0].name.as_deref(), Some("main"));
        assert_eq!(cfg.functions[1].name.as_deref(), Some("f"));
        assert_eq!(cfg.functions[2].name.as_deref(), Some("g"));
        assert_eq!(cfg.functions[1].entry, image.symbol("f").unwrap());
        // Every block belongs to the right function.
        for (fi, func) in cfg.functions.iter().enumerate() {
            for &bi in &func.blocks {
                assert_eq!(cfg.blocks[bi].func, fi);
                let addr = image.addr_of_index(cfg.blocks[bi].start);
                assert!(addr >= func.entry && addr < func.end);
            }
        }
    }

    #[test]
    fn loop_header_is_marked() {
        let (_, cfg) = cfg_of(
            r#"
main:   li   $t0, 10
loop:   addi $t0, $t0, -1
        bgtz $t0, loop
        syscall
"#,
        );
        let headers: Vec<usize> = cfg
            .blocks
            .iter()
            .enumerate()
            .filter(|(_, b)| b.is_loop_header)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(headers.len(), 1);
        // The loop body block starts at `loop`.
        assert_eq!(cfg.blocks[headers[0]].start, 1);
    }

    #[test]
    fn body_len_excludes_terminator() {
        let (_, cfg) = cfg_of(
            r#"
main:   li $t0, 1
        li $t1, 2
        b  main
"#,
        );
        assert_eq!(cfg.blocks[0].len, 3);
        assert_eq!(cfg.blocks[0].body_len(), 2);
    }

    #[test]
    fn undecodable_text_is_rejected() {
        let mut image = flexprot_asm::assemble_or_panic("main: nop\n");
        image.text.push(0xFFFF_FFFF);
        assert!(matches!(
            Cfg::recover(&image),
            Err(ProtectError::UndecodableText { .. })
        ));
    }

    #[test]
    fn wild_branch_target_is_rejected() {
        // A branch whose offset leaves the text segment.
        let image = Image::from_text(vec![
            Inst::Beq {
                rs: flexprot_isa::Reg::ZERO,
                rt: flexprot_isa::Reg::ZERO,
                off: 100,
            }
            .encode(),
            Inst::Syscall.encode(),
        ]);
        assert!(matches!(
            Cfg::recover(&image),
            Err(ProtectError::BadControlTarget { .. })
        ));
    }
}
