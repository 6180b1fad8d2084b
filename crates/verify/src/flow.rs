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
//!
//! The successor edges of all words sit in one [`Graph`]: a word has at
//! most two (a taken target and the next word), and every row is a slice
//! of one flat edge array, so recovering the flow of `n` words allocates
//! a fixed handful of arrays, not one list per word. The dataflow solver
//! reads the same edges; [`Edge`] names its target through [`Target`].

use flexprot_isa::{Image, Inst};

use crate::graph::{Graph, Target};

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

impl Target for Edge {
    fn target(self) -> usize {
        self.to
    }
}

/// The recovered instruction-level flow graph.
#[derive(Debug, Clone)]
pub struct Flow {
    /// Strict decode of each text word (`None` = undecodable).
    pub decoded: Vec<Option<Inst>>,
    /// Successor edges per word, the graph every dataflow pass solves
    /// over: `succs[i]` is word `i`'s row, the taken target first.
    pub succs: Graph<Edge>,
    /// Word index of the entry point, when it lands in text.
    pub entry: Option<usize>,
    /// Word indices of the text symbols other than the entry point, in
    /// symbol-table order: the potential indirect-jump landing pads. With
    /// `entry` they are the roots every analysis starts from.
    pub pads: Vec<usize>,
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
        let mut succs = Graph::with_capacity(len, 2 * len);
        let mut wild_targets = Vec::new();
        for (i, inst) in decoded.iter().enumerate() {
            let addr = image.addr_of_index(i);
            // The direct target, if any, and how the next word is reached.
            let (target, next) = match inst {
                None => (None, None),
                // `beq r, r` is architecturally always taken — treating it
                // as conditional would fabricate an infeasible fall-through
                // path through the spacing analysis.
                Some(inst @ Inst::Beq { rs, rt, .. }) if rs == rt => {
                    (Some(inst.branch_target(addr).expect("branch target")), None)
                }
                Some(inst) if inst.is_branch() => (
                    Some(inst.branch_target(addr).expect("branch target")),
                    Some(EdgeKind::Flow),
                ),
                Some(inst @ Inst::J { .. }) => {
                    (Some(inst.jump_target().expect("jump target")), None)
                }
                Some(inst @ Inst::Jal { .. }) => (
                    Some(inst.jump_target().expect("call target")),
                    Some(EdgeKind::CallContinuation),
                ),
                // Indirect call: the callee is unknown but the continuation
                // is the architectural return point.
                Some(Inst::Jalr { .. }) => (None, Some(EdgeKind::CallContinuation)),
                // Returns and computed jumps have no static successors.
                Some(Inst::Jr { .. }) => (None, None),
                // Everything else (ALU, memory, syscall) falls through.
                Some(_) => (None, Some(EdgeKind::Flow)),
            };
            let taken = target.and_then(|target| match image.text_index_of(target) {
                Some(to) => Some(Edge {
                    to,
                    kind: EdgeKind::Flow,
                }),
                None => {
                    wild_targets.push((addr, target));
                    None
                }
            });
            // A transfer to the next word has one edge, the taken one.
            let next = next
                .filter(|_| i + 1 < len)
                .map(|kind| Edge { to: i + 1, kind })
                .filter(|n| taken.is_none_or(|t| t.to != n.to));
            succs.push_row(taken.into_iter().chain(next));
        }

        // Reachability from the entry point and every text symbol.
        let entry = image.text_index_of(image.entry);
        let pads: Vec<usize> = image
            .symbols
            .values()
            .filter_map(|&addr| image.text_index_of(addr))
            .filter(|&i| entry != Some(i))
            .collect();
        let mut reachable = vec![false; len];
        let mut work: Vec<usize> = Vec::new();
        for &i in entry.iter().chain(&pads) {
            if !reachable[i] {
                reachable[i] = true;
                work.push(i);
            }
        }
        while let Some(i) = work.pop() {
            for e in &succs[i] {
                if !reachable[e.to] {
                    reachable[e.to] = true;
                    work.push(e.to);
                }
            }
        }

        Flow {
            decoded,
            succs,
            entry,
            pads,
            reachable,
            wild_targets,
        }
    }

    /// The analysis roots: the entry point, then every landing pad.
    pub fn roots(&self) -> impl Iterator<Item = usize> + '_ {
        self.entry.iter().chain(&self.pads).copied()
    }

    /// Number of reachable words.
    pub fn reachable_count(&self) -> usize {
        self.reachable.iter().filter(|&&r| r).count()
    }
}

/// The per-word recovery [`Flow::recover`] replaced, kept as the
/// reference of the flat one: one successor list per word.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    /// What the per-word recovery finds.
    pub(crate) struct PerWordFlow {
        pub succs: Vec<Vec<Edge>>,
        pub entry: Option<usize>,
        pub pads: Vec<usize>,
        pub reachable: Vec<bool>,
        pub wild_targets: Vec<(u32, u32)>,
    }

    pub(crate) fn recover(image: &Image, text: &[u32]) -> PerWordFlow {
        let len = text.len();
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
            let next = |kind| Edge { to: i + 1, kind };
            match inst {
                Inst::Beq { rs, rt, .. } if rs == rt => {
                    push(
                        &mut edges,
                        inst.branch_target(addr).unwrap(),
                        EdgeKind::Flow,
                    );
                }
                _ if inst.is_branch() => {
                    push(
                        &mut edges,
                        inst.branch_target(addr).unwrap(),
                        EdgeKind::Flow,
                    );
                    if i + 1 < len {
                        edges.push(next(EdgeKind::Flow));
                    }
                }
                Inst::J { .. } => push(&mut edges, inst.jump_target().unwrap(), EdgeKind::Flow),
                Inst::Jal { .. } => {
                    push(&mut edges, inst.jump_target().unwrap(), EdgeKind::Flow);
                    if i + 1 < len {
                        edges.push(next(EdgeKind::CallContinuation));
                    }
                }
                Inst::Jalr { .. } => {
                    if i + 1 < len {
                        edges.push(next(EdgeKind::CallContinuation));
                    }
                }
                Inst::Jr { .. } => {}
                _ => {
                    if i + 1 < len {
                        edges.push(next(EdgeKind::Flow));
                    }
                }
            }
            edges.dedup_by_key(|e| e.to);
            succs[i] = edges;
        }
        let succ_index: Vec<Vec<usize>> = succs
            .iter()
            .map(|es| es.iter().map(|e| e.to).collect())
            .collect();
        let entry = image.text_index_of(image.entry);
        let pads: Vec<usize> = image
            .symbols
            .values()
            .filter_map(|&addr| image.text_index_of(addr))
            .filter(|&i| entry != Some(i))
            .collect();
        let mut reachable = vec![false; len];
        let mut work: Vec<usize> = Vec::new();
        for &i in entry.iter().chain(&pads) {
            if !reachable[i] {
                reachable[i] = true;
                work.push(i);
            }
        }
        while let Some(i) = work.pop() {
            for &to in &succ_index[i] {
                if !reachable[to] {
                    reachable[to] = true;
                    work.push(to);
                }
            }
        }
        PerWordFlow {
            succs,
            entry,
            pads,
            reachable,
            wild_targets,
        }
    }

    /// Predecessor lists of `succs`, one list per node.
    pub(crate) fn invert(succs: &[Vec<usize>]) -> Vec<Vec<usize>> {
        let mut preds = vec![Vec::new(); succs.len()];
        for (i, ss) in succs.iter().enumerate() {
            for &s in ss {
                preds[s].push(i);
            }
        }
        preds
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

    /// Recovers `text` both ways and requires the same edges (targets,
    /// kinds and order), roots, reachability and wild targets, and the
    /// same predecessors from the flat and the nested inversion.
    fn assert_flows_agree(what: &str, image: &Image, text: &[u32]) {
        let flow = Flow::recover(image, text);
        let per_word = reference::recover(image, text);
        assert_eq!(flow.succs.len(), text.len(), "{what}: one row per word");
        for (i, edges) in per_word.succs.iter().enumerate() {
            assert_eq!(&flow.succs[i], &edges[..], "{what}: edges of word {i}");
        }
        assert_eq!(flow.entry, per_word.entry, "{what}: entry");
        assert_eq!(flow.pads, per_word.pads, "{what}: pads");
        assert_eq!(flow.reachable, per_word.reachable, "{what}: reachable");
        assert_eq!(flow.wild_targets, per_word.wild_targets, "{what}: wild");
        let index: Vec<Vec<usize>> = per_word
            .succs
            .iter()
            .map(|es| es.iter().map(|e| e.to).collect())
            .collect();
        let preds = flow.succs.invert();
        assert_eq!(
            preds.len(),
            text.len(),
            "{what}: one predecessor row per word"
        );
        for (i, nested) in reference::invert(&index).iter().enumerate() {
            assert_eq!(&preds[i], &nested[..], "{what}: predecessors of word {i}");
        }
    }

    #[test]
    fn flat_flow_matches_the_per_word_recovery_on_every_matrix_build() {
        let mut builds = 0;
        for (program, image) in flexprot_exec::matrix::programs() {
            for (cell, config) in flexprot_exec::matrix::cells() {
                let protected = flexprot_core::protect(&image, &config, None).unwrap();
                let shipped = crate::Shipped::new(&protected.image, &protected.secmon);
                let what = format!("{program}/{cell}");
                assert_flows_agree(&what, &protected.image, &shipped.text);
                builds += 1;
            }
        }
        assert_eq!(builds, 42);
    }

    #[test]
    fn flat_flow_matches_the_per_word_recovery_on_random_minic() {
        let mut rng = flexprot_isa::Rng64::new(0xF10A_7F10_5EED_0001);
        for case in 0..64 {
            let source = flexprot_cc::kernels::random_minic(&mut rng);
            let image = flexprot_cc::compile_to_image(&source).unwrap();
            assert_flows_agree(&format!("random-{case}"), &image, &image.text);
        }
    }

    #[test]
    fn flat_flow_matches_the_per_word_recovery_on_hostile_texts() {
        use flexprot_isa::Reg;
        let branch = |rs, off| {
            Inst::Bne {
                rs,
                rt: Reg::T1,
                off,
            }
            .encode()
        };
        let base = flexprot_isa::TEXT_BASE >> 2;
        let nop = Inst::Sll {
            rd: Reg::ZERO,
            rt: Reg::ZERO,
            sh: 0,
        }
        .encode();
        let cases: Vec<(&str, Vec<u32>)> = vec![
            ("empty text", vec![]),
            ("undecodable words", vec![0xFFFF_FFFF, nop, 0xFFFF_FFFF]),
            ("branch to itself", vec![nop, branch(Reg::T0, -1), nop]),
            ("branch to the next word", vec![branch(Reg::T0, 0), nop]),
            (
                "always-taken branch to the next word",
                vec![
                    Inst::Beq {
                        rs: Reg::T1,
                        rt: Reg::T1,
                        off: 0,
                    }
                    .encode(),
                    nop,
                ],
            ),
            (
                "call to the next word",
                vec![Inst::Jal { target: base + 1 }.encode(), nop],
            ),
            (
                "jump to the next word",
                vec![Inst::J { target: base + 1 }.encode(), nop],
            ),
            (
                "targets outside text",
                vec![
                    branch(Reg::T0, -5),
                    branch(Reg::T0, 100),
                    Inst::J { target: 0 }.encode(),
                    Inst::Jal { target: base + 99 }.encode(),
                    nop,
                ],
            ),
            ("ending in a branch", vec![nop, branch(Reg::T0, -2)]),
            (
                "ending in a call",
                vec![nop, Inst::Jal { target: base }.encode()],
            ),
            (
                "ending in an indirect call",
                vec![
                    nop,
                    Inst::Jalr {
                        rd: Reg::RA,
                        rs: Reg::T0,
                    }
                    .encode(),
                ],
            ),
        ];
        for (what, text) in cases {
            let image = Image::from_text(text.clone());
            assert_flows_agree(what, &image, &text);
        }
        // Random words: most decode, some branch into, out of or past the
        // text, and the entry and a symbol land anywhere.
        let mut rng = flexprot_isa::Rng64::new(0x0057_11E5_F10A_0001);
        for case in 0..200 {
            let len = rng.index(24);
            let text: Vec<u32> = (0..len)
                .map(|_| match rng.below(4) {
                    0 => rng.next_u32(),
                    1 => branch(Reg::T0, rng.below(64) as i16 - 32),
                    2 => Inst::J {
                        target: base + rng.below(32) as u32,
                    }
                    .encode(),
                    _ => nop,
                })
                .collect();
            let mut image = Image::from_text(text.clone());
            image.entry = image.addr_of_index(rng.index(len + 2));
            let pad = image.addr_of_index(rng.index(len + 2));
            image.symbols.insert("pad".into(), pad);
            assert_flows_agree(&format!("random words {case}"), &image, &text);
        }
    }
}
