//! Instruction-level flow recovery from a (decrypted) protected image.
//!
//! This is an *independent* reimplementation of control-flow recovery — it
//! shares no code with the `flexprot-core` CFG builder the protection
//! passes use. Where `core` recovers basic blocks to *rewrite* them, the
//! verifier recovers a word-granular successor graph to *analyse* the
//! shipped bytes exactly as the hardware will execute them: one node per
//! text word, edges for fall-through, branch, jump and call-continuation
//! flow. Divergence between the two recoveries is precisely what the
//! N-version check is designed to surface.

use flexprot_isa::{Image, Inst};

/// How control reaches a successor word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// Fall-through or a taken transfer; the spacing counter propagates
    /// (resetting at reset points on non-sequential arrival).
    Flow,
    /// The continuation after a call: reached via the callee's return, a
    /// pc discontinuity.
    CallContinuation,
}

/// One successor edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Successor word index.
    pub to: usize,
    /// How the successor is reached.
    pub kind: EdgeKind,
}

/// The recovered instruction-level flow graph.
#[derive(Debug, Clone)]
pub struct Flow {
    /// Strict decode of each text word (`None` = undecodable).
    pub decoded: Vec<Option<Inst>>,
    /// Successor edges per word.
    pub succs: Vec<Vec<Edge>>,
    /// Whether each word is reachable from the entry or a text symbol.
    pub reachable: Vec<bool>,
    /// Direct control-transfer targets (branch/jump/call) that leave the
    /// text segment, with the address of the offending instruction.
    pub wild_targets: Vec<(u32, u32)>,
}

impl Flow {
    /// Recovers the flow graph of `text` (already decrypted) laid out at
    /// `image`'s text base.
    ///
    /// # Panics
    ///
    /// Panics if `text` and `image.text` differ in length.
    pub fn recover(image: &Image, text: &[u32]) -> Flow {
        let len = text.len();
        assert_eq!(len, image.text.len(), "text must be the image's text");

        let decoded: Vec<Option<Inst>> = text.iter().map(|&w| Inst::decode(w).ok()).collect();
        let mut succs: Vec<Vec<Edge>> = vec![Vec::new(); len];
        let mut wild_targets = Vec::new();
        for (i, inst) in decoded.iter().enumerate() {
            let Some(inst) = inst else { continue };
            let addr = image.addr_of_index(i);
            let mut push = |edges: &mut Vec<Edge>, target: u32, kind: EdgeKind| match image
                .text_index_of(target)
            {
                Some(t) => edges.push(Edge { to: t, kind }),
                None => wild_targets.push((addr, target)),
            };
            let mut edges = Vec::new();
            match inst {
                // `beq r, r` is architecturally always taken — treating it
                // as conditional would fabricate an infeasible fall-through
                // path through the spacing analysis.
                Inst::Beq { rs, rt, .. } if rs == rt => {
                    let target = inst.branch_target(addr).expect("branch target");
                    push(&mut edges, target, EdgeKind::Flow);
                }
                _ if inst.is_branch() => {
                    let target = inst.branch_target(addr).expect("branch target");
                    push(&mut edges, target, EdgeKind::Flow);
                    if i + 1 < len {
                        edges.push(Edge {
                            to: i + 1,
                            kind: EdgeKind::Flow,
                        });
                    }
                }
                Inst::J { .. } => {
                    let target = inst.jump_target().expect("jump target");
                    push(&mut edges, target, EdgeKind::Flow);
                }
                Inst::Jal { .. } => {
                    let target = inst.jump_target().expect("call target");
                    push(&mut edges, target, EdgeKind::Flow);
                    if i + 1 < len {
                        edges.push(Edge {
                            to: i + 1,
                            kind: EdgeKind::CallContinuation,
                        });
                    }
                }
                Inst::Jalr { .. } => {
                    // Indirect call: the callee is unknown but the
                    // continuation is the architectural return point.
                    if i + 1 < len {
                        edges.push(Edge {
                            to: i + 1,
                            kind: EdgeKind::CallContinuation,
                        });
                    }
                }
                // Returns and computed jumps have no static successors.
                Inst::Jr { .. } => {}
                // Everything else (ALU, memory, syscall) falls through.
                _ => {
                    if i + 1 < len {
                        edges.push(Edge {
                            to: i + 1,
                            kind: EdgeKind::Flow,
                        });
                    }
                }
            }
            edges.dedup_by_key(|e| e.to);
            succs[i] = edges;
        }

        // Reachability from the entry point and every text symbol (symbols
        // are the potential indirect-jump landing pads).
        let mut reachable = vec![false; len];
        let mut work: Vec<usize> = Vec::new();
        let root = |i: usize, work: &mut Vec<usize>, reachable: &mut Vec<bool>| {
            if !reachable[i] {
                reachable[i] = true;
                work.push(i);
            }
        };
        if let Some(e) = image.text_index_of(image.entry) {
            root(e, &mut work, &mut reachable);
        }
        for &addr in image.symbols.values() {
            if let Some(i) = image.text_index_of(addr) {
                root(i, &mut work, &mut reachable);
            }
        }
        while let Some(i) = work.pop() {
            for edge in &succs[i] {
                if !reachable[edge.to] {
                    reachable[edge.to] = true;
                    work.push(edge.to);
                }
            }
        }

        Flow {
            decoded,
            succs,
            reachable,
            wild_targets,
        }
    }

    /// Number of reachable words.
    pub fn reachable_count(&self) -> usize {
        self.reachable.iter().filter(|&&r| r).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow_of(src: &str) -> (Image, Flow) {
        let image = flexprot_asm::assemble_or_panic(src);
        let flow = Flow::recover(&image, &image.text.clone());
        (image, flow)
    }

    #[test]
    fn straight_line_chains_fall_through() {
        let (_, flow) = flow_of("main: li $t0, 1\n li $t1, 2\n syscall\n");
        assert_eq!(
            flow.succs[0],
            vec![Edge {
                to: 1,
                kind: EdgeKind::Flow
            }]
        );
        assert_eq!(
            flow.succs[1],
            vec![Edge {
                to: 2,
                kind: EdgeKind::Flow
            }]
        );
        assert!(flow.reachable.iter().all(|&r| r));
        assert!(flow.wild_targets.is_empty());
    }

    #[test]
    fn branch_has_two_edges_unconditional_one() {
        let (_, flow) = flow_of(
            r#"
main:   beq  $t0, $t1, out
        li   $t2, 1
        b    out
out:    syscall
"#,
        );
        assert_eq!(flow.succs[0].len(), 2, "conditional: taken + fall-through");
        // `b` assembles to beq $zero,$zero: unconditional, one edge.
        assert_eq!(flow.succs[2].len(), 1);
        assert_eq!(flow.succs[2][0].to, 3);
    }

    #[test]
    fn call_edges_mark_continuation() {
        let (_, flow) = flow_of(
            r#"
main:   jal  f
        syscall
f:      jr   $ra
"#,
        );
        let kinds: Vec<EdgeKind> = flow.succs[0].iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&EdgeKind::Flow), "callee entry edge");
        assert!(kinds.contains(&EdgeKind::CallContinuation));
        assert!(flow.succs[2].is_empty(), "jr has no static successors");
    }

    #[test]
    fn unreachable_tail_is_found() {
        // The word after an unconditional jump with no label is unreachable.
        let (_, flow) = flow_of(
            r#"
main:   b    end
        li   $t0, 1
end:    syscall
"#,
        );
        assert!(!flow.reachable[1]);
        assert_eq!(flow.reachable_count(), 2);
    }

    #[test]
    fn undecodable_word_has_no_edges() {
        let image = flexprot_asm::assemble_or_panic("main: nop\n nop\n");
        let mut text = image.text.clone();
        text[0] = 0xFFFF_FFFF;
        let flow = Flow::recover(&image, &text);
        assert!(flow.decoded[0].is_none());
        assert!(flow.succs[0].is_empty());
    }
}
