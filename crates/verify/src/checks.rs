//! The five verification analyses.
//!
//! Each check re-derives one protection invariant from the raw image bits
//! and the monitor configuration, independently of how the toolchain
//! established it:
//!
//! 1. **Flow** — entry point, strict decodability of reachable text, wild
//!    control targets, unreachable words (`FP0xx`, `FP501`).
//! 2. **Guards** — guard-word shape and the keyed window-hash recheck
//!    (`FP1xx`).
//! 3. **Spacing** — a saturating dataflow over the instruction graph
//!    bounding the longest guard-free executed path (`FP2xx`).
//! 4. **Relocations** — field/entry agreement and target sanity (`FP3xx`).
//! 5. **Regions** — encryption-region well-formedness and coverage
//!    (`FP4xx`).

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;

use flexprot_isa::{Image, Inst, RelocKind};
use flexprot_secmon::guard::{
    decode_guard_symbol, is_guard_form, signature_from_symbols, WindowHasher,
};
use flexprot_secmon::SecMonConfig;

use crate::coverage::GuardWindow;
use crate::diag::{self, Severity};
use crate::flow::{EdgeKind, Flow};
use crate::Sink;

/// Everything the checks share: the image, the provisioned configuration,
/// the decrypted text and the recovered flow graph.
pub(crate) struct Ctx<'a> {
    pub image: &'a Image,
    pub config: &'a SecMonConfig,
    /// Text after undoing the region table — what the core executes.
    pub text: Vec<u32>,
    pub flow: Flow,
}

/// Entry point, decodability of reachable text, wild targets, dead text.
pub(crate) fn check_flow(ctx: &Ctx, sink: &mut Sink) {
    if ctx.image.text_index_of(ctx.image.entry).is_none() {
        sink.emit(
            &diag::BAD_ENTRY,
            Some(ctx.image.entry),
            format!(
                "entry point {:#010x} is not a text word address",
                ctx.image.entry
            ),
        );
    }

    for i in 0..ctx.text.len() {
        if ctx.flow.reachable[i] && ctx.flow.decoded[i].is_none() {
            sink.emit_capped(
                &diag::UNDECODABLE_TEXT,
                ctx.image.addr_of_index(i),
                format_args!("reachable word {:#010x} does not decode", ctx.text[i]),
            );
        }
    }
    sink.summarise(&diag::UNDECODABLE_TEXT, "undecodable reachable word(s)");

    for &(src, target) in &ctx.flow.wild_targets {
        let i = ctx
            .image
            .text_index_of(src)
            .expect("wild-target source is a text word");
        if ctx.flow.reachable[i] {
            sink.emit_capped(
                &diag::WILD_CONTROL_TARGET,
                src,
                format_args!("control transfer targets {target:#010x}, outside the text segment"),
            );
        }
    }
    sink.summarise(&diag::WILD_CONTROL_TARGET, "wild control target(s)");

    let unreachable = ctx.text.len() - ctx.flow.reachable_count();
    if unreachable > 0 {
        sink.emit(
            &diag::UNREACHABLE_TEXT,
            None,
            format!("{unreachable} text word(s) unreachable from the entry point and symbols"),
        );
    }
}

/// Guard-shape lint and the independent signature recheck.
///
/// For each configured site the check (a) validates the raw shape of every
/// guard word, (b) locates the window start and proves the window is
/// straight-line and only enterable at its start, then (c) recomputes the
/// keyed hash over the decrypted body and tail words — at their addresses,
/// as the hardware will — and compares it with the signature spelled by the
/// guard operand fields. Returns the number of sites whose signature was
/// recomputed, plus one [`GuardWindow`] record per site whose window
/// resolved to word indices (sound only when every check passed) — the
/// raw material of the coverage analysis.
pub(crate) fn check_guards(ctx: &Ctx, sink: &mut Sink) -> (usize, Vec<GuardWindow>) {
    let config = ctx.config;
    let len = ctx.text.len();
    let mut checked = 0usize;
    let mut windows: Vec<GuardWindow> = Vec::new();

    // Reachable direct control-transfer targets, for mid-window entry
    // detection.
    let mut direct_targets: BTreeSet<u32> = BTreeSet::new();
    for i in 0..len {
        if !ctx.flow.reachable[i] {
            continue;
        }
        let Some(inst) = ctx.flow.decoded[i] else {
            continue;
        };
        if let Some(t) = inst.branch_target(ctx.image.addr_of_index(i)) {
            direct_targets.insert(t);
        }
        if let Some(t) = inst.jump_target() {
            direct_targets.insert(t);
        }
    }

    for (&site_addr, site) in &config.sites {
        let Some(si) = ctx.image.text_index_of(site_addr) else {
            sink.emit(
                &diag::GUARD_OUT_OF_BOUNDS,
                Some(site_addr),
                "guard site address is not a text word address".to_owned(),
            );
            continue;
        };
        let symbols = site.symbols as usize;
        let total = symbols + site.tail as usize;
        if si + total > len {
            sink.emit(
                &diag::GUARD_OUT_OF_BOUNDS,
                Some(site_addr),
                format!("guard sequence of {total} word(s) runs past the end of text"),
            );
            continue;
        }

        let mut shape_ok = true;
        for k in 0..symbols {
            let word = ctx.text[si + k];
            if !is_guard_form(word) {
                sink.emit(
                    &diag::MALFORMED_GUARD,
                    Some(ctx.image.addr_of_index(si + k)),
                    format!(
                        "word {word:#010x} at guard site {site_addr:#010x} is not of guard shape"
                    ),
                );
                shape_ok = false;
            }
        }

        // The hash window starts at the nearest registered window start at
        // or before the site (equal when the block body is empty).
        let Some(window) = config.window_of(site_addr) else {
            sink.emit(
                &diag::MALFORMED_WINDOW,
                Some(site_addr),
                "no window start at or before the guard site".to_owned(),
            );
            continue;
        };
        let Some(wi) = ctx.image.text_index_of(window) else {
            sink.emit(
                &diag::MALFORMED_WINDOW,
                Some(site_addr),
                format!("window start {window:#010x} is not a text word address"),
            );
            continue;
        };
        let mut window_ok = true;
        for b in wi..si {
            if !matches!(ctx.flow.decoded[b], Some(inst) if !inst.is_control_transfer()) {
                sink.emit(
                    &diag::MALFORMED_WINDOW,
                    Some(ctx.image.addr_of_index(b)),
                    format!("window body of site {site_addr:#010x} is not straight-line code"),
                );
                window_ok = false;
                break;
            }
        }
        // The rolling hash resets at the window start; a transfer landing
        // past it leaves the digest covering only a suffix, so a legitimate
        // execution would trip the monitor.
        for &t in direct_targets.range((Bound::Excluded(window), Bound::Included(site_addr))) {
            sink.emit(
                &diag::MALFORMED_WINDOW,
                Some(t),
                format!(
                    "control transfer enters the window of site {site_addr:#010x} past its start"
                ),
            );
            window_ok = false;
        }
        let structural = shape_ok && window_ok;
        let mut sound = structural;
        if sound {
            let mut hasher = WindowHasher::new(config.guard_key);
            for b in wi..si {
                hasher.absorb(ctx.image.addr_of_index(b), ctx.text[b]);
            }
            for t in 0..site.tail as usize {
                let index = si + symbols + t;
                hasher.absorb(ctx.image.addr_of_index(index), ctx.text[index]);
            }
            let computed = hasher.digest();
            let syms: Vec<u8> = (0..symbols)
                .map(|k| decode_guard_symbol(ctx.text[si + k]))
                .collect();
            let claimed = signature_from_symbols(&syms);
            checked += 1;
            if claimed != computed {
                sink.emit(
                    &diag::SIGNATURE_MISMATCH,
                    Some(site_addr),
                    format!(
                        "embedded signature {claimed:#010x} != recomputed window hash {computed:#010x}"
                    ),
                );
                sound = false;
            }
        }
        windows.push(GuardWindow {
            site_addr,
            start: wi,
            site: si,
            symbols,
            tail: site.tail as usize,
            structural,
            sound,
        });
    }
    (checked, windows)
}

/// Coverage lints on top of the dataflow analyses (`FP6xx`).
///
/// FP601: a guard word writing a register that is live after it corrupts
/// the very computation it protects (only `$zero`-writing guards are
/// transparent). FP602: an unreachable guard never streams past the
/// monitor, so its window is dead weight. FP603/FP604 partition the
/// uncovered reachable protected words: words with no completed dominating
/// check are outright coverage gaps, words dominated by a check are
/// editable only *after* it fires (a residual edit window).
pub(crate) fn check_coverage(
    ctx: &Ctx,
    coverage: &crate::coverage::Coverage,
    live: &crate::liveness::Liveness,
    sink: &mut Sink,
) {
    for w in &coverage.windows {
        for k in 0..w.symbols {
            let i = w.site + k;
            let Some(inst) = ctx.flow.decoded[i] else {
                continue;
            };
            let Some(r) = inst.def() else { continue };
            if r != flexprot_isa::Reg::ZERO && live.live_out_has(i, r) {
                sink.emit(
                    &diag::GUARD_CLOBBERS_LIVE,
                    Some(ctx.image.addr_of_index(i)),
                    format!(
                        "guard word at site {:#010x} overwrites {r}, which is live after it",
                        w.site_addr
                    ),
                );
            }
        }
    }

    for w in &coverage.windows {
        if w.sound && !ctx.flow.reachable[w.site] {
            sink.emit(
                &diag::DEAD_GUARD,
                Some(w.site_addr),
                "guard sequence is unreachable, so its window is never checked".to_owned(),
            );
        }
    }

    if ctx.config.sites.is_empty() {
        return;
    }
    for i in 0..ctx.text.len() {
        if !ctx.flow.reachable[i] || !coverage.covered_by[i].is_empty() {
            continue;
        }
        let addr = ctx.image.addr_of_index(i);
        if !ctx.config.in_protected(addr) {
            continue;
        }
        if coverage.dominated[i] {
            sink.emit_capped(
                &diag::POST_CHECK_WINDOW,
                addr,
                format_args!(
                    "protected word is uncovered but dominated by a completed guard check"
                ),
            );
        } else {
            sink.emit_capped(
                &diag::COVERAGE_GAP,
                addr,
                format_args!("reachable protected word is covered by no guard window"),
            );
        }
    }
    sink.summarise(&diag::COVERAGE_GAP, "uncovered word(s)");
    sink.summarise(&diag::POST_CHECK_WINDOW, "post-check word(s)");
}

/// Guard-network and checksum-proof lints (`FP7xx`).
///
/// FP703 is the only error: a [`Verdict::Mismatch`] means abstract
/// interpretation found *no* feasible valuation under which the guard's
/// embedded signature matches its window, so the guard either never
/// passes (halting every honest run) or was re-signed by an attacker —
/// and the finding carries the concrete witness word. The connectivity
/// lints are notes, not warnings: in this codesign the check schedule
/// lives in tamper-proof hardware, so a guard nobody checks still fires —
/// an unbacked guard is a hardening opportunity, not a broken contract.
pub(crate) fn check_network(
    net: &crate::guardnet::GuardNet,
    proofs: &[crate::absint::GuardProof],
    sink: &mut Sink,
) {
    use crate::absint::Verdict;
    for p in proofs {
        if let Verdict::Mismatch {
            claimed,
            computed,
            witness_addr,
        } = &p.verdict
        {
            sink.emit(
                &diag::CHECKSUM_CONSTANT_MISMATCH,
                Some(p.site_addr),
                format!(
                    "embedded signature {claimed:#010x} can never equal the window digest \
                     {computed:#010x}; witness word {witness_addr:#010x}"
                ),
            );
        }
    }

    let sound = net.sound_count();
    if sound == 0 {
        return;
    }
    for node in &net.nodes {
        if node.unchecked {
            sink.emit_capped(
                &diag::UNGUARDED_GUARD,
                node.site_addr,
                format_args!("no other guard's window covers this guard"),
            );
        } else if node.acyclic {
            sink.emit_capped(
                &diag::ACYCLIC_GUARD_CHAIN,
                node.site_addr,
                format_args!("guard is checked but belongs to no checking cycle"),
            );
        }
    }
    sink.summarise(&diag::UNGUARDED_GUARD, "unguarded guard(s)");
    sink.summarise(&diag::ACYCLIC_GUARD_CHAIN, "acyclic link(s)");

    match &net.min_cut {
        Some(cut) if cut.is_empty() && sound >= 2 => {
            sink.emit(
                &diag::MIN_CUT_WEAK_LINK,
                None,
                format!("the guard network is disconnected: {sound} guard(s) back each other up nowhere"),
            );
        }
        Some(cut) => {
            for &v in cut {
                sink.emit_capped(
                    &diag::MIN_CUT_WEAK_LINK,
                    net.nodes[v].site_addr,
                    format_args!(
                        "defeating {} guard(s) disconnects the guard network; this one is in the cut",
                        cut.len()
                    ),
                );
            }
            sink.summarise(&diag::MIN_CUT_WEAK_LINK, "cut member(s)");
        }
        None => {}
    }
}

/// Guard-coverage dataflow: the maximum value the monitor's spacing counter
/// can reach on any statically feasible path.
///
/// One node per text word; the value at a node is the largest counter with
/// which it can be entered. Guard sequences contribute nothing and reset
/// the counter (the signature check passing is verified separately);
/// non-sequential arrival at a reset point resets it; every other protected
/// word increments it. Values saturate at one past the provisioned bound
/// (or past the text length when no bound is provisioned), which both
/// guarantees termination and witnesses a violation — respectively an
/// exceeded bound ([`diag::SPACING_EXCEEDED`]) or an unguarded cycle
/// ([`diag::UNGUARDED_CYCLE`]).
///
/// Paths through indirect jumps are not tracked (their targets are
/// unknowable statically); call continuations are assumed reset, with
/// [`diag::UNRESET_CALL_RETURN`] flagging any continuation the
/// configuration fails to register. Returns the bounded maximum, when one
/// exists.
pub(crate) fn check_spacing(ctx: &Ctx, sink: &mut Sink) -> Option<u64> {
    let config = ctx.config;
    if !config.sites.is_empty() && config.spacing_bound.is_none() {
        sink.emit(
            &diag::MISSING_SPACING_BOUND,
            None,
            format!(
                "{} guard site(s) configured but no spacing bound is provisioned",
                config.sites.len()
            ),
        );
    }
    if config.protected.is_empty() {
        return None;
    }
    let len = ctx.text.len();

    for i in 0..len {
        if !ctx.flow.reachable[i] {
            continue;
        }
        if matches!(
            ctx.flow.decoded[i],
            Some(Inst::Jal { .. }) | Some(Inst::Jalr { .. })
        ) && i + 1 < len
        {
            let cont = ctx.image.addr_of_index(i + 1);
            if config.in_protected(cont) && !config.reset_points.contains(&cont) {
                sink.emit(
                    &diag::UNRESET_CALL_RETURN,
                    Some(cont),
                    "call continuation in a protected range is not a spacing reset point"
                        .to_owned(),
                );
            }
        }
    }

    // Guard sequences: site start index -> last sequence word index.
    let mut seq_end: BTreeMap<usize, usize> = BTreeMap::new();
    for (&site_addr, site) in &config.sites {
        let Some(si) = ctx.image.text_index_of(site_addr) else {
            continue;
        };
        let total = site.symbols as usize + site.tail as usize;
        if total > 0 && si + total <= len {
            seq_end.insert(si, si + total - 1);
        }
    }

    let bound = config.spacing_bound;
    let cap = match bound {
        Some(b) => b.saturating_add(1),
        None => len as u64 + 1,
    };
    let mut value: Vec<Option<u64>> = vec![None; len];
    let mut work: Vec<usize> = Vec::new();
    let push_val = |i: usize, v: u64, value: &mut Vec<Option<u64>>, work: &mut Vec<usize>| {
        let v = v.min(cap);
        if value[i].is_none_or(|old| v > old) {
            value[i] = Some(v);
            work.push(i);
        }
    };

    // Roots: the entry point and every text symbol, with a zero counter.
    if let Some(e) = ctx.image.text_index_of(ctx.image.entry) {
        push_val(e, 0, &mut value, &mut work);
    }
    for &addr in ctx.image.symbols.values() {
        if let Some(i) = ctx.image.text_index_of(addr) {
            push_val(i, 0, &mut value, &mut work);
        }
    }

    let mut exceeded: Option<u32> = None;
    let mut max_out = 0u64;
    while let Some(i) = work.pop() {
        let v = value[i].expect("queued nodes have a value");
        if let Some(&end) = seq_end.get(&i) {
            // A guard sequence: no counting while collecting, counter zero
            // after the check passes.
            for e in &ctx.flow.succs[end] {
                push_val(e.to, 0, &mut value, &mut work);
            }
            continue;
        }
        let addr = ctx.image.addr_of_index(i);
        let out = if config.in_protected(addr) {
            (v + 1).min(cap)
        } else {
            v
        };
        max_out = max_out.max(out);
        if bound.is_some_and(|b| out > b) && exceeded.is_none() {
            exceeded = Some(addr);
        }
        for e in &ctx.flow.succs[i] {
            let incoming = match e.kind {
                EdgeKind::CallContinuation => 0,
                // Sequential arrival (address adjacency, exactly the
                // hardware's criterion) keeps the counter even through a
                // reset point; any other arrival is a pc discontinuity and
                // resets at reset points.
                EdgeKind::Flow
                    if e.to != i + 1
                        && config.reset_points.contains(&ctx.image.addr_of_index(e.to)) =>
                {
                    0
                }
                EdgeKind::Flow => out,
            };
            push_val(e.to, incoming, &mut value, &mut work);
        }
    }

    match bound {
        Some(b) => match exceeded {
            Some(addr) => {
                sink.emit(
                    &diag::SPACING_EXCEEDED,
                    Some(addr),
                    format!(
                        "a guard-free path of more than {b} protected instruction(s) \
                         reaches this address"
                    ),
                );
                None
            }
            None => Some(max_out),
        },
        None => {
            if max_out >= cap {
                // Advisory when no bound is provisioned: nothing trips at
                // runtime, but guard stripping is then unbounded here.
                sink.emit_severity(
                    &diag::UNGUARDED_CYCLE,
                    Severity::Warning,
                    None,
                    "a guard-free cycle exists in a protected range (spacing unbounded)".to_owned(),
                );
                None
            } else {
                Some(max_out)
            }
        }
    }
}

/// Relocation integrity: every entry must agree with the instruction field
/// it describes, and targets must land where their kind requires.
/// Returns the number of in-bounds entries checked.
pub(crate) fn check_relocs(ctx: &Ctx, sink: &mut Sink) -> usize {
    let len = ctx.text.len();
    let mut checked = 0usize;
    let mut relocated: BTreeSet<usize> = BTreeSet::new();
    for reloc in &ctx.image.relocs {
        if reloc.text_index >= len {
            sink.emit(
                &diag::RELOC_INDEX_OOB,
                None,
                format!(
                    "relocation entry points at text index {} of {len}",
                    reloc.text_index
                ),
            );
            continue;
        }
        checked += 1;
        let addr = ctx.image.addr_of_index(reloc.text_index);
        let word = ctx.text[reloc.text_index];
        match reloc.kind {
            RelocKind::Branch16 | RelocKind::Jump26 => {
                relocated.insert(reloc.text_index);
                let field_target = match reloc.kind {
                    RelocKind::Branch16 => {
                        let off = i64::from((word & 0xFFFF) as u16 as i16);
                        u32::try_from(i64::from(addr) + 4 + 4 * off).ok()
                    }
                    _ => Some((word & 0x03FF_FFFF) << 2),
                };
                if field_target != Some(reloc.target) {
                    let resolved = field_target
                        .map(|t| format!("{t:#010x}"))
                        .unwrap_or_else(|| "out of range".to_owned());
                    sink.emit(
                        &diag::RELOC_FIELD_MISMATCH,
                        Some(addr),
                        format!(
                            "instruction field resolves to {resolved}, relocation records {:#010x}",
                            reloc.target
                        ),
                    );
                }
                if ctx.image.text_index_of(reloc.target).is_none() {
                    sink.emit(
                        &diag::RELOC_TARGET_OOB,
                        Some(addr),
                        format!(
                            "control relocation targets {:#010x}, outside the text segment",
                            reloc.target
                        ),
                    );
                }
            }
            RelocKind::Hi16 | RelocKind::Lo16 => {
                let (field, expected) = match reloc.kind {
                    RelocKind::Hi16 => (word & 0xFFFF, reloc.target >> 16),
                    _ => (word & 0xFFFF, reloc.target & 0xFFFF),
                };
                if field != expected {
                    sink.emit(
                        &diag::RELOC_FIELD_MISMATCH,
                        Some(addr),
                        format!(
                            "immediate field {field:#06x} disagrees with relocation target {:#010x}",
                            reloc.target
                        ),
                    );
                }
                if !addr_in_image(ctx.image, reloc.target) {
                    sink.emit(
                        &diag::ADDRESS_RELOC_OOB,
                        Some(addr),
                        format!(
                            "address relocation targets {:#010x}, outside text and data",
                            reloc.target
                        ),
                    );
                }
            }
        }
    }

    for i in 0..len {
        if !ctx.flow.reachable[i] || relocated.contains(&i) {
            continue;
        }
        let Some(inst) = ctx.flow.decoded[i] else {
            continue;
        };
        if inst.is_branch() || inst.is_direct_jump() {
            sink.emit(
                &diag::UNRELOCATED_CONTROL,
                Some(ctx.image.addr_of_index(i)),
                "reachable direct control transfer has no relocation entry".to_owned(),
            );
        }
    }
    checked
}

/// Whether `target` lies in the text or data segment (segment ends are
/// allowed inclusively: one-past-the-end pointers are idiomatic).
fn addr_in_image(image: &Image, target: u32) -> bool {
    let in_text = target >= image.text_base && target <= image.text_end();
    let data_end = image.data_base + image.data.len() as u32;
    let in_data = target >= image.data_base && target <= data_end;
    in_text || in_data
}

/// Encryption-region checks: well-formedness, non-overlap, containment in
/// text, and coverage of the protected ranges.
pub(crate) fn check_regions(ctx: &Ctx, sink: &mut Sink) {
    let image = ctx.image;
    let regions = ctx.config.regions.regions();
    for r in regions {
        if r.start >= r.end || r.start % 4 != 0 || r.end % 4 != 0 {
            sink.emit(
                &diag::MALFORMED_REGION,
                Some(r.start),
                format!("encrypted region {r} is empty, inverted or unaligned"),
            );
            continue;
        }
        if r.start < image.text_base || r.end > image.text_end() {
            sink.emit(
                &diag::REGION_OUTSIDE_TEXT,
                Some(r.start),
                format!(
                    "encrypted region {r} lies outside text [{:#010x}, {:#010x})",
                    image.text_base,
                    image.text_end()
                ),
            );
        }
    }
    for pair in regions.windows(2) {
        if pair[0].end > pair[1].start {
            sink.emit(
                &diag::OVERLAPPING_REGIONS,
                Some(pair[1].start),
                format!("regions {} and {} overlap", pair[0], pair[1]),
            );
        }
    }
    if regions.is_empty() {
        return;
    }
    // The range's words are `start + 4k` below `end`. A hostile range may
    // span the whole address space, so coverage is counted from its
    // overlap with the regions (sorted and disjoint), not word by word.
    for range in &ctx.config.protected {
        let start = u64::from(range.start);
        let words_below = |addr: u32| u64::from(addr).saturating_sub(start).div_ceil(4);
        let total = words_below(range.end);
        let (mut covered, mut next, mut first) = (0, 0, None);
        let first_overlap = regions.partition_point(|r| r.end <= range.start);
        for r in regions[first_overlap..]
            .iter()
            .take_while(|r| r.start < range.end)
        {
            let lo = words_below(r.start).min(total);
            let hi = words_below(r.end).min(total);
            covered += hi - lo;
            if lo > next {
                first.get_or_insert(next);
            }
            next = hi;
        }
        if next < total {
            first.get_or_insert(next);
        }
        let uncovered = total - covered;
        if uncovered > 0 {
            sink.emit(
                &diag::UNENCRYPTED_PROTECTED,
                first.map(|k| u32::try_from(start + 4 * k).expect("word lies below range.end")),
                format!(
                    "{uncovered} word(s) of protected range [{:#010x}, {:#010x}) are not encrypted",
                    range.start, range.end
                ),
            );
        }
    }
}
