//! Translation validation: prove a protect run semantics-preserving.
//!
//! The protection passes in `flexprot-core` promise that their rewrite is
//! *semantically invisible* — guard windows are architecturally inert and
//! the fetch-path cipher round-trips to the original instruction stream.
//! This module checks that promise per (baseline, protected) pair instead
//! of trusting the rewriter: it is the N-version idea of
//! [`crate::verify`] pushed from "the shipped image satisfies the
//! hardware contract" to "the shipped image computes the same function as
//! the image the user handed in".
//!
//! The validator proves three obligations:
//!
//! 1. **Alignment** ([`Obligation::Alignment`]): guard insertion only ever
//!    splices [`SIG_SYMBOLS`]-word runs between a block body and its
//!    terminator, so walking both texts in lockstep — skipping the runs
//!    the monitor schedule declares — must pair every baseline word with
//!    exactly one protected word whose instruction matches *modulo address
//!    remapping*. Control-transfer targets and address-bearing relocation
//!    fields are compared through back-translation: a protected target is
//!    normalised forward over any guard run it lands on (executing a guard
//!    run is a no-op by obligation 2, so a branch to a guard start is
//!    equivalent to a branch past it) and then mapped back to baseline
//!    coordinates. Any unpaired or mismatched word is `FP802`
//!    (`unaligned-block`) — or `FP803` when the word sits inside a cipher
//!    region, because there the plaintext reconstruction is exactly the
//!    decrypt(encrypt(·)) identity and a mismatch is a cipher fault.
//! 2. **Window transparency** ([`Obligation::Window`]): every word of
//!    every scheduled guard run must write no live architectural state.
//!    Guard-form words are inert by construction (`rd == $zero`, no
//!    memory, no control). Anything else is judged by lockstep symbolic
//!    execution on the memory-sensitive [`crate::memdom`] domain plus the
//!    [`crate::liveness`] solution of the protected flow: a write to a
//!    register live past the window, an observable syscall, a
//!    provably-taken control transfer, or a store that provably rewrites
//!    the text segment ([`crate::alias`] must-alias) is `FP801`; a store
//!    the points-to partition cannot separate from text, a provably-data
//!    store (the baseline performs no such write), or a branch whose
//!    condition the domain cannot decide is a *sound refusal*, `FP804`
//!    with a typed [`RefusalReason`], never a silent pass.
//! 3. **Cipher identity** ([`Obligation::Cipher`]): for every region of
//!    the monitor's table, applying the keystream twice must restore the
//!    stored ciphertext word-for-word (the involution half of the
//!    round-trip; the plaintext half is obligation 1). Violations are
//!    `FP803` with the offending address as witness.
//!
//! Verdicts are three-valued ([`EquivVerdict`]): `Proven`, `Inequivalent`
//! with a concrete witness address, or `Refused` with a typed
//! [`RefusalReason`] (stable snake_case `code()` for machine consumers,
//! prose `Display` for humans) — a refusal is sound (the validator does
//! not know, and says so) and is surfaced as a warning rather than an
//! error.
//!
//! [`SIG_SYMBOLS`]: flexprot_secmon::SIG_SYMBOLS

use std::collections::BTreeMap;

use flexprot_isa::{Image, Inst, Reg, Reloc, RelocKind};
use flexprot_secmon::guard::is_guard_form;
use flexprot_secmon::SecMonConfig;
use flexprot_trace::json::{self, JsonWriter};

use crate::absint::AbsVal;
use crate::alias::{self, StoreClass};
use crate::diag::{self, Finding, LintPolicy, Severity};
use crate::liveness::{self, Liveness};
use crate::memdom;
use crate::{Shipped, Sink};

/// Which proof obligation a verdict belongs to (used only for labelling).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Obligation {
    /// Lockstep CFG/word alignment modulo guard runs.
    Alignment,
    /// Guard-window transparency.
    Window,
    /// Per-region decrypt(encrypt(·)) identity.
    Cipher,
}

/// Why the transparency prover refused to decide a guard-window word.
///
/// Every variant carries a stable snake_case [`code`](Self::code) for
/// machine consumers (CSV columns, the `"code"` JSON field) and prose
/// `Display` for humans; the codes are part of the `flexprot-equiv-v1`
/// contract and must never be renamed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefusalReason {
    /// The store target is provably outside the text segment. Still a
    /// refusal: the baseline performs no such write, and data-memory
    /// equality is outside the lockstep domain — but the sharper class
    /// tells an auditor self-modification is excluded.
    StoreWritesMemory,
    /// The store's points-to set could not be separated from the text
    /// segment, so a self-rewrite cannot be excluded.
    StoreMayAliasText,
    /// The branch condition is not statically decided by the domain.
    BranchUndecided,
}

impl RefusalReason {
    /// The stable machine-readable code (snake_case, never renamed).
    pub fn code(self) -> &'static str {
        match self {
            RefusalReason::StoreWritesMemory => "store_writes_memory",
            RefusalReason::StoreMayAliasText => "store_may_alias_text",
            RefusalReason::BranchUndecided => "branch_undecided",
        }
    }
}

impl std::fmt::Display for RefusalReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let prose = match self {
            RefusalReason::StoreWritesMemory => {
                "store in guard window provably writes data memory the baseline \
                 never touches; transparency is unprovable"
            }
            RefusalReason::StoreMayAliasText => {
                "store in guard window may rewrite the text segment; \
                 self-modification cannot be excluded"
            }
            RefusalReason::BranchUndecided => {
                "branch condition in guard window is not statically decided"
            }
        };
        f.write_str(prose)
    }
}

/// The three-valued outcome of a proof obligation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EquivVerdict {
    /// The obligation holds on every static path.
    Proven,
    /// The obligation fails; `witness_addr` is a protected-image text
    /// address an auditor can inspect.
    Inequivalent {
        /// Protected text address of the first disagreement.
        witness_addr: u32,
    },
    /// The validator could not decide and honestly says so.
    Refused {
        /// Why precision ran out.
        reason: RefusalReason,
    },
}

impl EquivVerdict {
    /// Short label for CSV/JSON output.
    pub fn label(&self) -> &'static str {
        match self {
            EquivVerdict::Proven => "proven",
            EquivVerdict::Inequivalent { .. } => "inequivalent",
            EquivVerdict::Refused { .. } => "refused",
        }
    }
}

/// One guard window's transparency verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowEquiv {
    /// Address of the first guard symbol word.
    pub site_addr: u32,
    /// Transparency verdict for the run.
    pub verdict: EquivVerdict,
}

/// Counters of one validation run (rendered into `flexprot-equiv-v1`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EquivStats {
    /// Baseline text words.
    pub base_words: usize,
    /// Protected text words.
    pub prot_words: usize,
    /// Protected words belonging to scheduled guard runs.
    pub guard_words: usize,
    /// Baseline words paired with a protected word.
    pub aligned_words: usize,
    /// Baseline text symbols matched by name and address mapping.
    pub symbols_matched: usize,
    /// Guard windows proven transparent.
    pub windows_proven: usize,
    /// Guard windows proven to clobber live state.
    pub windows_inequivalent: usize,
    /// Guard windows refused (reason logged).
    pub windows_refused: usize,
    /// Cipher regions checked for the involution identity.
    pub cipher_regions: usize,
    /// Ciphertext words round-tripped.
    pub cipher_words: usize,
}

/// The product of one translation-validation run.
#[derive(Debug, Clone, PartialEq)]
pub struct EquivReport {
    /// FP8xx findings (policy severities applied).
    pub findings: Vec<Finding>,
    /// Run counters.
    pub stats: EquivStats,
    /// Per-window transparency verdicts, in site-address order.
    pub windows: Vec<WindowEquiv>,
    /// Every logged refusal: `(protected address, reason)`.
    pub refusals: Vec<(u32, RefusalReason)>,
    /// The overall verdict (worst of the three obligations).
    pub verdict: EquivVerdict,
}

impl EquivReport {
    /// Whether the transform was proven semantics-preserving with no
    /// error-severity finding (refusals keep the report clean — they are
    /// warnings — but the verdict is then [`EquivVerdict::Refused`]).
    pub fn is_clean(&self) -> bool {
        !self.findings.iter().any(|f| f.severity == Severity::Error)
    }

    /// Number of findings carrying `id`.
    pub fn count_id(&self, id: &str) -> usize {
        self.findings.iter().filter(|f| f.id == id).count()
    }

    /// Renders the stable `flexprot-equiv-v1` JSON document.
    ///
    /// Schema: `{"schema","verdict","witness","reason","code",
    /// "stats":{...},
    /// "windows":[{"site","verdict","witness","reason","code"}],
    /// "refusals":[{"addr","code","reason"}],"findings":[{"id","name",
    /// "severity","addr","message"}]}` — field order is fixed, addresses
    /// are `"0x…"` strings or `null`; `"code"` is the stable snake_case
    /// [`RefusalReason::code`] (or `null` when the verdict is not a
    /// refusal).
    pub fn to_json(&self) -> String {
        /// The `verdict`, `witness`, `reason` and `code` members of `v`.
        fn verdict_fields(w: &mut JsonWriter, v: &EquivVerdict) {
            let (witness, reason) = match v {
                EquivVerdict::Proven => (None, None),
                EquivVerdict::Inequivalent { witness_addr } => (Some(*witness_addr), None),
                EquivVerdict::Refused { reason } => (None, Some(reason)),
            };
            w.key("verdict").str(v.label());
            w.key("witness").opt(witness, JsonWriter::hex);
            w.key("reason").opt(reason, |w, r| w.str(&r.to_string()));
            w.key("code").opt(reason, |w, r| w.str(r.code()));
        }
        let s = &self.stats;
        json::object(|w| {
            w.key("schema").str("flexprot-equiv-v1");
            verdict_fields(w, &self.verdict);
            w.key("stats").object(|w| {
                w.key("base_words").num(s.base_words);
                w.key("prot_words").num(s.prot_words);
                w.key("guard_words").num(s.guard_words);
                w.key("aligned_words").num(s.aligned_words);
                w.key("symbols_matched").num(s.symbols_matched);
                w.key("windows_proven").num(s.windows_proven);
                w.key("windows_inequivalent").num(s.windows_inequivalent);
                w.key("windows_refused").num(s.windows_refused);
                w.key("cipher_regions").num(s.cipher_regions);
                w.key("cipher_words").num(s.cipher_words);
            });
            w.key("windows").array(|w| {
                for win in &self.windows {
                    w.object(|w| {
                        w.key("site").hex(win.site_addr);
                        verdict_fields(w, &win.verdict);
                    });
                }
            });
            w.key("refusals").array(|w| {
                for (addr, reason) in &self.refusals {
                    w.object(|w| {
                        w.key("addr").hex(*addr);
                        w.key("code").str(reason.code());
                        w.key("reason").str(&reason.to_string());
                    });
                }
            });
            w.key("findings")
                .array(|w| diag::write_findings(w, &self.findings));
        })
    }
}

/// Validates that `protected` preserves the semantics of `base` under the
/// monitor configuration `config`, with the default lint policy
/// ([`Shipped::validate`] on a fresh fact base).
pub fn validate(base: &Image, protected: &Image, config: &SecMonConfig) -> EquivReport {
    Shipped::new(protected, config).validate(base, &LintPolicy::default())
}

/// How one guard-window word was judged.
enum WordJudgement {
    Transparent,
    Clobber(String),
    Refused(RefusalReason),
}

impl Shipped<'_> {
    /// Validates the shipped image against `base`, the image it was built
    /// from, applying `policy` severity overrides to every finding.
    pub fn validate(&self, base: &Image, policy: &LintPolicy) -> EquivReport {
        let (protected, config, text, flow) = (self.image, self.config, &self.text, &self.flow);
        let mut sink = Sink::new(policy);
        let mut refusals: Vec<(u32, RefusalReason)> = Vec::new();
        let mut stats = EquivStats {
            base_words: base.text.len(),
            prot_words: text.len(),
            ..EquivStats::default()
        };

        // --- Obligation 1 groundwork: classify guard words and build the
        // lockstep index maps between the two texts. ---
        let mut is_guard = vec![false; text.len()];
        for (&site_addr, site) in &config.sites {
            let symbols = site.symbols as usize;
            match protected.text_index_of(site_addr) {
                Some(i) if i + symbols <= text.len() => {
                    for slot in &mut is_guard[i..i + symbols] {
                        *slot = true;
                    }
                }
                _ => sink.emit(
                    &diag::EQUIV_UNALIGNED,
                    Some(site_addr),
                    "scheduled guard run extends outside the protected text segment".to_owned(),
                ),
            }
        }
        stats.guard_words = is_guard.iter().filter(|&&g| g).count();

        // Pair every non-guard protected word with the next baseline word.
        let mut old_of_new: Vec<Option<usize>> = vec![None; text.len()];
        let mut new_of_old: Vec<usize> = Vec::with_capacity(base.text.len());
        for (j, &guard) in is_guard.iter().enumerate() {
            if !guard && new_of_old.len() < base.text.len() {
                old_of_new[j] = Some(new_of_old.len());
                new_of_old.push(j);
            }
        }
        stats.aligned_words = new_of_old.len();
        if new_of_old.len() != base.text.len() || text.len() != base.text.len() + stats.guard_words
        {
            let witness = protected.addr_of_index(text.len().min(base.text.len()));
            sink.emit(
                &diag::EQUIV_UNALIGNED,
                Some(witness),
                format!(
                    "text length mismatch: {} baseline + {} guard words != {} protected words",
                    base.text.len(),
                    stats.guard_words,
                    text.len()
                ),
            );
        }

        // Back-translation: protected address -> baseline address, skipping
        // forward over guard runs (justified by obligation 2: executing a
        // guard run before the landing word is architecturally a no-op).
        let back = |addr: u32| -> Option<u32> {
            let mut j = protected.text_index_of(addr)?;
            while j < text.len() && is_guard[j] {
                j += 1;
            }
            old_of_new
                .get(j)
                .copied()
                .flatten()
                .map(|i| base.addr_of_index(i))
        };

        // --- Obligation 1: lockstep word comparison. ---
        let base_relocs = relocs_by_index(&base.relocs);
        let prot_relocs = relocs_by_index(&protected.relocs);
        let mut misaligned: Vec<(u32, bool, String)> = Vec::new(); // (addr, in_region, detail)
        for (i, &j) in new_of_old.iter().enumerate() {
            let (wb, wp) = (base.text[i], text[j]);
            let addr_b = base.addr_of_index(i);
            let addr_p = protected.addr_of_index(j);
            if let Some(detail) = word_mismatch(
                base,
                wb,
                wp,
                addr_b,
                addr_p,
                i,
                j,
                &base_relocs,
                &prot_relocs,
                &back,
            ) {
                misaligned.push((addr_p, config.regions.lookup(addr_p).is_some(), detail));
            }
        }
        for (addr, in_region, detail) in &misaligned {
            let lint = if *in_region {
                &diag::EQUIV_CIPHER_MISMATCH
            } else {
                &diag::EQUIV_UNALIGNED
            };
            sink.emit_capped(lint, *addr, format_args!("{detail}"));
        }
        sink.summarise(&diag::EQUIV_UNALIGNED, "mismatched words");
        sink.summarise(&diag::EQUIV_CIPHER_MISMATCH, "mismatched words");

        // Entry point and symbol table must survive the remapping.
        if base.contains_text_addr(base.entry) && back(protected.entry) != Some(base.entry) {
            sink.emit(
                &diag::EQUIV_UNALIGNED,
                Some(protected.entry),
                format!(
                    "protected entry point does not map back to the baseline entry {:#010x}",
                    base.entry
                ),
            );
        }
        for (name, &addr_b) in &base.symbols {
            let mapped = match protected.symbol(name) {
                Some(addr_p) if base.contains_text_addr(addr_b) => back(addr_p) == Some(addr_b),
                Some(addr_p) => addr_p == addr_b,
                None => false,
            };
            if mapped {
                stats.symbols_matched += 1;
            } else {
                sink.emit(
                    &diag::EQUIV_UNALIGNED,
                    Some(addr_b),
                    format!("symbol `{name}` is missing or maps to the wrong baseline address"),
                );
            }
        }
        if base.data != protected.data || base.data_base != protected.data_base {
            sink.emit(
                &diag::EQUIV_UNALIGNED,
                Some(protected.data_base),
                "the protected data segment differs from the baseline".to_owned(),
            );
        }

        // --- Obligation 2: guard-window transparency on the protected flow. ---
        // Liveness runs on a sanitized flow: inert guard-form words *read*
        // the registers their operand fields spell, but the result lands in
        // `$zero`, so those reads must not keep registers alive — otherwise
        // every register a signature symbol happens to name would count as
        // clobberable state. Non-guard-form words in a window keep their real
        // semantics (they are the suspects being judged).
        let mut sanitized = flow.clone();
        for (j, &guard) in is_guard.iter().enumerate() {
            if guard && is_guard_form(text[j]) {
                sanitized.decoded[j] = Some(Inst::NOP);
            }
        }
        let live = liveness::analyze(&sanitized);
        let mut windows: Vec<WindowEquiv> = Vec::new();
        for (&site_addr, site) in &config.sites {
            let symbols = site.symbols as usize;
            let Some(start) = protected.text_index_of(site_addr) else {
                windows.push(WindowEquiv {
                    site_addr,
                    verdict: EquivVerdict::Inequivalent {
                        witness_addr: site_addr,
                    },
                });
                continue;
            };
            let mut verdict = EquivVerdict::Proven;
            for g in start..(start + symbols).min(text.len()) {
                if !flow.reachable[g] {
                    continue; // never fetched: vacuously transparent
                }
                let addr_g = protected.addr_of_index(g);
                match judge_guard_word(self, g, &live) {
                    WordJudgement::Transparent => {}
                    WordJudgement::Clobber(detail) => {
                        sink.emit(&diag::EQUIV_GUARD_CLOBBER, Some(addr_g), detail);
                        verdict = EquivVerdict::Inequivalent {
                            witness_addr: addr_g,
                        };
                        break;
                    }
                    WordJudgement::Refused(reason) => {
                        sink.emit(&diag::EQUIV_REFUSED, Some(addr_g), reason.to_string());
                        refusals.push((addr_g, reason));
                        verdict = EquivVerdict::Refused { reason };
                        break;
                    }
                }
            }
            windows.push(WindowEquiv { site_addr, verdict });
        }
        for w in &windows {
            match w.verdict {
                EquivVerdict::Proven => stats.windows_proven += 1,
                EquivVerdict::Inequivalent { .. } => stats.windows_inequivalent += 1,
                EquivVerdict::Refused { .. } => stats.windows_refused += 1,
            }
        }

        // --- Obligation 3: per-region decrypt(encrypt(·)) involution. ---
        // Only the region's aligned words inside text are checked, so the walk
        // is bounded by the text even when a hostile region spans the address
        // space.
        for region in config.regions.regions() {
            stats.cipher_regions += 1;
            let end = region.end.min(protected.text_end());
            let Some(first) = region
                .start
                .max(protected.text_base)
                .checked_next_multiple_of(4)
            else {
                continue;
            };
            for addr in (first..end).step_by(4) {
                if let Some(idx) = protected.text_index_of(addr) {
                    stats.cipher_words += 1;
                    let stored = protected.text[idx];
                    let round_trip = config
                        .regions
                        .apply(addr, config.regions.apply(addr, stored));
                    if round_trip != stored {
                        sink.emit_capped(
                            &diag::EQUIV_CIPHER_MISMATCH,
                            addr,
                            format_args!(
                                "keystream is not an involution here: \
                             {stored:#010x} round-trips to {round_trip:#010x}"
                            ),
                        );
                    }
                }
            }
        }
        sink.summarise(&diag::EQUIV_CIPHER_MISMATCH, "involution failures");

        // --- Overall verdict: worst obligation wins; errors beat refusals. ---
        let witness = sink
            .findings
            .iter()
            .find(|f| f.severity == Severity::Error)
            .map(|f| f.addr.unwrap_or(protected.text_base));
        let verdict = match (witness, refusals.first()) {
            (Some(witness_addr), _) => EquivVerdict::Inequivalent { witness_addr },
            (None, Some((_, reason))) => EquivVerdict::Refused { reason: *reason },
            (None, None) => EquivVerdict::Proven,
        };
        EquivReport {
            findings: sink.findings,
            stats,
            windows,
            refusals,
            verdict,
        }
    }
}

/// Groups relocation records by the text word they patch.
fn relocs_by_index(relocs: &[Reloc]) -> BTreeMap<usize, Vec<Reloc>> {
    let mut map: BTreeMap<usize, Vec<Reloc>> = BTreeMap::new();
    for &r in relocs {
        map.entry(r.text_index).or_default().push(r);
    }
    map
}

/// Judges one aligned word pair, returning a mismatch description or
/// `None` when the pair is equivalent modulo address remapping.
#[allow(clippy::too_many_arguments)]
fn word_mismatch(
    base: &Image,
    wb: u32,
    wp: u32,
    addr_b: u32,
    addr_p: u32,
    i: usize,
    j: usize,
    base_relocs: &BTreeMap<usize, Vec<Reloc>>,
    prot_relocs: &BTreeMap<usize, Vec<Reloc>>,
    back: &impl Fn(u32) -> Option<u32>,
) -> Option<String> {
    let (ib, ip) = (Inst::decode(wb).ok(), Inst::decode(wp).ok());
    match (ib, ip) {
        // Non-instruction data in text must be carried verbatim.
        (None, None) => (wb != wp).then(|| {
            format!("undecodable word changed: baseline {wb:#010x}, protected {wp:#010x}")
        }),
        (None, Some(_)) | (Some(_), None) => Some(format!(
            "decodability changed: baseline {wb:#010x}, protected {wp:#010x}"
        )),
        (Some(ib), Some(ip)) => {
            // Control transfers: non-target fields must be identical and
            // the protected target must back-translate to the baseline's.
            let (mask, tb, tp) = if ib.is_branch() {
                (
                    !0xFFFFu32,
                    ib.branch_target(addr_b),
                    ip.branch_target(addr_p),
                )
            } else if ib.is_direct_jump() {
                (!0x03FF_FFFFu32, ib.jump_target(), ip.jump_target())
            } else {
                // Not a direct transfer: identical encodings are
                // equivalent unless the word carries a text-address
                // relocation, which must be compared through the map.
                return non_control_mismatch(base, wb, wp, i, j, base_relocs, prot_relocs, back);
            };
            if (wb & mask) != (wp & mask) {
                return Some(format!(
                    "control instruction shape changed: baseline {wb:#010x}, protected {wp:#010x}"
                ));
            }
            let (Some(tb), Some(tp)) = (tb, tp) else {
                return Some("control target undecodable".to_owned());
            };
            let preserved = if base.contains_text_addr(tb) {
                back(tp) == Some(tb)
            } else {
                tp == tb // wild target carried verbatim (FP002's business)
            };
            (!preserved).then(|| {
                format!("control target {tp:#010x} does not map back to baseline target {tb:#010x}")
            })
        }
    }
}

/// The non-control arm of [`word_mismatch`]: plain words must be
/// identical; words patched by a text-address `HI16`/`LO16` relocation
/// must agree outside the immediate and correspond through the map.
#[allow(clippy::too_many_arguments)]
fn non_control_mismatch(
    base: &Image,
    wb: u32,
    wp: u32,
    i: usize,
    j: usize,
    base_relocs: &BTreeMap<usize, Vec<Reloc>>,
    prot_relocs: &BTreeMap<usize, Vec<Reloc>>,
    back: &impl Fn(u32) -> Option<u32>,
) -> Option<String> {
    let empty: Vec<Reloc> = Vec::new();
    let addr_relocs: Vec<&Reloc> = base_relocs
        .get(&i)
        .unwrap_or(&empty)
        .iter()
        .filter(|r| {
            matches!(r.kind, RelocKind::Hi16 | RelocKind::Lo16) && base.contains_text_addr(r.target)
        })
        .collect();
    if addr_relocs.is_empty() {
        return (wb != wp).then(|| {
            format!("instruction word changed: baseline {wb:#010x}, protected {wp:#010x}")
        });
    }
    if (wb & !0xFFFF) != (wp & !0xFFFF) {
        return Some(format!(
            "address-bearing instruction shape changed: baseline {wb:#010x}, protected {wp:#010x}"
        ));
    }
    for rb in addr_relocs {
        let partner = prot_relocs
            .get(&j)
            .and_then(|rs| rs.iter().find(|rp| rp.kind == rb.kind));
        let Some(rp) = partner else {
            return Some(format!("{} relocation lost in translation", rb.kind));
        };
        if back(rp.target) != Some(rb.target) {
            return Some(format!(
                "{} relocation target {:#010x} does not map back to {:#010x}",
                rb.kind, rp.target, rb.target
            ));
        }
    }
    None
}

/// Judges the reachable guard-window word `g` of `shipped` against the
/// transparency obligation, on the protected flow's liveness and
/// memory-sensitive value-set facts.
fn judge_guard_word(shipped: &Shipped, g: usize, live: &Liveness) -> WordJudgement {
    let (protected, text, flow) = (shipped.image, &shipped.text, &shipped.flow);
    let word = text[g];
    if is_guard_form(word) {
        return WordJudgement::Transparent; // rd == $zero, no memory, no control
    }
    let Some(inst) = flow.decoded[g] else {
        return WordJudgement::Clobber(
            "guard-window word does not decode and would fault at fetch".to_owned(),
        );
    };
    if inst.is_store() {
        // Points-to classification against the text segment: a must-alias
        // store provably rewrites fetched code (clobber with witness), a
        // may-alias store might, and even a provably-data store refuses —
        // the baseline performs no such write — but with the sharper
        // reason that rules self-modification out.
        let lo = protected.text_base;
        let hi = lo.wrapping_add(4 * text.len() as u32);
        let class = shipped
            .mem()
            .get(g)
            .and_then(|f| f.as_ref())
            .and_then(|state| alias::store_site(g, inst, state))
            .map_or(StoreClass::MayAlias, |site| {
                alias::classify(&site.target, site.size, lo, hi)
            });
        return match class {
            StoreClass::MustAlias { addr } => WordJudgement::Clobber(format!(
                "store in guard window provably rewrites the text word at {addr:#010x}"
            )),
            StoreClass::MayAlias => WordJudgement::Refused(RefusalReason::StoreMayAliasText),
            StoreClass::NoAlias => WordJudgement::Refused(RefusalReason::StoreWritesMemory),
        };
    }
    if matches!(inst, Inst::Syscall | Inst::Break) {
        return WordJudgement::Clobber(
            "syscall/break in guard window has observable effects".to_owned(),
        );
    }
    if inst.is_branch() {
        // Lockstep symbolic execution decides the condition where it can.
        return match branch_taken(inst, shipped.mem().get(g).and_then(|f| f.as_ref())) {
            Some(false) => WordJudgement::Transparent,
            Some(true) => WordJudgement::Clobber(
                "provably-taken branch in guard window diverts control flow".to_owned(),
            ),
            None => WordJudgement::Refused(RefusalReason::BranchUndecided),
        };
    }
    if inst.is_control_transfer() {
        return WordJudgement::Clobber("jump in guard window diverts control flow".to_owned());
    }
    match inst.def() {
        None | Some(Reg::ZERO) => WordJudgement::Transparent,
        Some(rd) if !live.live_out_has(g, rd) => WordJudgement::Transparent,
        Some(rd) => WordJudgement::Clobber(format!(
            "guard-window instruction overwrites live register {rd} \
             (not provably transparent)"
        )),
    }
}

/// Abstractly evaluates whether a conditional branch is taken: `Some`
/// when the memory-sensitive domain decides the condition, `None`
/// otherwise. Register contents are compared through their scalar
/// ([`crate::memdom::MemVal::as_abs`]) views, which carry values reloaded
/// from tracked stack slots — a spill/reload pair no longer loses the
/// constant the scalar-only domain used to decide with.
fn branch_taken(inst: Inst, state: Option<&memdom::MemState>) -> Option<bool> {
    use Inst::*;
    // Same-register compares correlate: the cartesian product would
    // fabricate infeasible pairs, so decide them structurally.
    match inst {
        Beq { rs, rt, .. } if rs == rt => return Some(true),
        Bne { rs, rt, .. } if rs == rt => return Some(false),
        _ => {}
    }
    let state = state?;
    let r = |reg: Reg| state.regs[reg.index() as usize].as_abs();
    let cond = match inst {
        Beq { rs, rt, .. } => r(rs).map2(&r(rt), |a, b| u32::from(a == b)),
        Bne { rs, rt, .. } => r(rs).map2(&r(rt), |a, b| u32::from(a != b)),
        Blez { rs, .. } => r(rs).map(|a| u32::from(a as i32 <= 0)),
        Bgtz { rs, .. } => r(rs).map(|a| u32::from(a as i32 > 0)),
        Bltz { rs, .. } => r(rs).map(|a| u32::from((a as i32) < 0)),
        Bgez { rs, .. } => r(rs).map(|a| u32::from(a as i32 >= 0)),
        _ => AbsVal::Top,
    };
    match cond {
        AbsVal::Const(1) => Some(true),
        AbsVal::Const(0) => Some(false),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexprot_secmon::guard::{encode_guard_inst, signature_symbols, WindowHasher};
    use flexprot_secmon::{GuardSite, SIG_SYMBOLS};

    /// Splices one signed guard run into `base` at word `site_index`
    /// (hashing every word before the site plus `tail` words after the
    /// run), like the real emitter would.
    fn splice_guard(base: &Image, site_index: usize, tail: u32) -> (Image, SecMonConfig) {
        let key = 0x1EE7;
        let mut prot = base.clone();
        for _ in 0..SIG_SYMBOLS as usize {
            prot.text.insert(site_index, 0);
        }
        let site_addr = prot.addr_of_index(site_index);
        let mut h = WindowHasher::new(key);
        for i in 0..site_index {
            h.absorb(prot.addr_of_index(i), prot.text[i]);
        }
        for t in 0..tail as usize {
            let idx = site_index + SIG_SYMBOLS as usize + t;
            h.absorb(prot.addr_of_index(idx), prot.text[idx]);
        }
        let sig = h.digest();
        for (k, sym) in signature_symbols(sig).iter().enumerate() {
            prot.text[site_index + k] = encode_guard_inst(*sym, k as u8).encode();
        }
        let mut config = SecMonConfig::transparent();
        config.guard_key = key;
        config.window_starts.insert(prot.text_base);
        config.sites.insert(
            site_addr,
            GuardSite {
                symbols: SIG_SYMBOLS,
                tail,
            },
        );
        (prot, config)
    }

    /// Hand-protects a tiny program: one guard run spliced between body
    /// and terminator, signed like the real emitter would.
    fn hand_protected() -> (Image, Image, SecMonConfig) {
        let base =
            flexprot_asm::assemble_or_panic("main: li $t0, 5\n li $t1, 6\n li $v0, 10\n syscall\n");
        let (prot, config) = splice_guard(&base, 2, 2);
        (base, prot, config)
    }

    #[test]
    fn hand_protected_image_is_proven() {
        let (base, prot, config) = hand_protected();
        let report = validate(&base, &prot, &config);
        assert_eq!(
            report.verdict,
            EquivVerdict::Proven,
            "{:?}",
            report.findings
        );
        assert!(report.is_clean());
        assert_eq!(report.stats.guard_words, SIG_SYMBOLS as usize);
        assert_eq!(report.stats.aligned_words, base.text.len());
        assert_eq!(report.stats.windows_proven, 1);
        assert!(report.refusals.is_empty());
    }

    #[test]
    fn clobbering_guard_word_is_inequivalent_with_witness() {
        let (base, mut prot, config) = hand_protected();
        // Replace guard word 1 with `addu $a0, $t0, $t1`: $a0 is live at
        // the exit syscall, so the window provably clobbers live state.
        prot.text[3] = Inst::Addu {
            rd: Reg::A0,
            rs: Reg::T0,
            rt: Reg::T1,
        }
        .encode();
        let report = validate(&base, &prot, &config);
        let witness = prot.addr_of_index(3);
        assert_eq!(
            report.verdict,
            EquivVerdict::Inequivalent {
                witness_addr: witness
            },
            "{:?}",
            report.findings
        );
        assert_eq!(report.count_id("FP801"), 1);
        assert_eq!(report.stats.windows_inequivalent, 1);
    }

    #[test]
    fn dead_register_write_in_guard_window_stays_transparent() {
        let (base, mut prot, config) = hand_protected();
        // `addu $t5, $t0, $t1`: $t5 is never read afterwards, so the
        // write is provably invisible.
        prot.text[3] = Inst::Addu {
            rd: Reg::T5,
            rs: Reg::T0,
            rt: Reg::T1,
        }
        .encode();
        let report = validate(&base, &prot, &config);
        assert_eq!(
            report.verdict,
            EquivVerdict::Proven,
            "{:?}",
            report.findings
        );
    }

    #[test]
    fn store_in_guard_window_is_a_logged_refusal() {
        let (base, mut prot, config) = hand_protected();
        prot.text[3] = Inst::Sw {
            rt: Reg::T0,
            off: 0,
            base: Reg::SP,
        }
        .encode();
        let report = validate(&base, &prot, &config);
        // $sp-relative: the points-to partition proves the store never
        // touches text, so the refusal carries the sharper data-write
        // reason rather than the may-alias one.
        assert_eq!(
            report.verdict,
            EquivVerdict::Refused {
                reason: RefusalReason::StoreWritesMemory
            },
            "{:?}",
            report.verdict
        );
        assert_eq!(
            report.refusals,
            vec![(prot.addr_of_index(3), RefusalReason::StoreWritesMemory)]
        );
        assert_eq!(report.count_id("FP804"), 1);
        assert!(report.is_clean(), "a refusal is a warning, not an error");
        let json = report.to_json();
        assert!(
            json.contains("\"code\":\"store_writes_memory\""),
            "typed code must survive into the JSON: {json}"
        );
    }

    #[test]
    fn store_rewriting_text_is_inequivalent_not_refused() {
        // `lui $t2, 0x40` pins $t2 at the text base, so the spliced
        // store provably rewrites fetched code — the memory-sensitive
        // judge upgrades what used to be a blanket refusal to a clobber.
        let base = flexprot_asm::assemble_or_panic(
            "main: lui $t2, 0x40\n li $t1, 6\n li $v0, 10\n syscall\n",
        );
        let (mut prot, config) = splice_guard(&base, 2, 2);
        prot.text[3] = Inst::Sw {
            rt: Reg::ZERO,
            off: 0,
            base: Reg::T2,
        }
        .encode();
        let report = validate(&base, &prot, &config);
        assert_eq!(report.count_id("FP801"), 1, "{:?}", report.findings);
        assert!(
            matches!(report.verdict, EquivVerdict::Inequivalent { .. }),
            "{:?}",
            report.verdict
        );
        assert!(report.refusals.is_empty());
    }

    #[test]
    fn branch_decided_through_a_tracked_stack_slot_is_proven() {
        // The scalar domain loses the reloaded constant ($t1 would be
        // Top after the `lw`); the memory domain carries 5 through the
        // tracked slot, decides `bne $t0, $t1` not-taken, and proves the
        // window instead of refusing it.
        let base = flexprot_asm::assemble_or_panic(
            "main: li $t0, 5\n sw $t0, -4($sp)\n lw $t1, -4($sp)\n li $v0, 10\n syscall\n",
        );
        let (mut prot, config) = splice_guard(&base, 3, 2);
        prot.text[4] = Inst::Bne {
            rs: Reg::T0,
            rt: Reg::T1,
            off: 1,
        }
        .encode();
        let report = validate(&base, &prot, &config);
        assert_eq!(
            report.verdict,
            EquivVerdict::Proven,
            "{:?}",
            report.findings
        );
        assert!(report.refusals.is_empty());
    }

    #[test]
    fn mutated_aligned_word_is_unaligned_block() {
        let (base, mut prot, config) = hand_protected();
        prot.text[0] ^= 1 << 16; // li $t0, 5 -> different immediate... rt field
        let report = validate(&base, &prot, &config);
        assert_eq!(report.count_id("FP802"), 1, "{:?}", report.findings);
        assert_eq!(
            report.verdict,
            EquivVerdict::Inequivalent {
                witness_addr: prot.text_base
            }
        );
    }

    #[test]
    fn branch_offsets_are_compared_by_target_not_bits() {
        // A backward branch over the guard run keeps its baseline offset
        // bits only if the emitter forgot to re-encode it — the validator
        // must flag the stale offset even though the words are identical.
        let base = flexprot_asm::assemble_or_panic(
            "main: li $t0, 2\nloop: addi $t0, $t0, -1\n bgtz $t0, loop\n li $v0, 10\n syscall\n",
        );
        let (_, prot, config) = {
            // Hand-splice a guard run between `addi` and `bgtz` WITHOUT
            // fixing the branch: its target now lands mid-run and maps
            // back to the wrong baseline word.
            let mut prot = base.clone();
            for _ in 0..SIG_SYMBOLS as usize {
                prot.text.insert(2, Inst::NOP.encode());
            }
            let site_addr = prot.addr_of_index(2);
            let mut config = SecMonConfig::transparent();
            config.sites.insert(
                site_addr,
                GuardSite {
                    symbols: SIG_SYMBOLS,
                    tail: 0,
                },
            );
            (base.clone(), prot, config)
        };
        let report = validate(&base, &prot, &config);
        assert!(
            report.count_id("FP802") > 0,
            "stale branch offset must be caught: {:?}",
            report.findings
        );
    }

    #[test]
    fn json_schema_keys_are_stable() {
        let (base, prot, config) = hand_protected();
        let json = validate(&base, &prot, &config).to_json();
        for key in [
            "\"schema\":\"flexprot-equiv-v1\"",
            "\"verdict\":\"proven\"",
            "\"code\":null",
            "\"stats\"",
            "\"guard_words\"",
            "\"windows\"",
            "\"refusals\"",
            "\"findings\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }
}
