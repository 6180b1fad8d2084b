//! `flexprot-verify` — independent static verification of protected images.
//!
//! The protection toolchain (`flexprot-core`) *constructs* guarded,
//! encrypted images; this crate *proves* them, by re-deriving every
//! protection invariant from nothing but the shipped image and the
//! monitor configuration that will be provisioned into the hardware. The
//! two implementations share the ISA definition and the hardware contract
//! (the window hash, the guard encoding, the keystream — all in
//! `flexprot-secmon`) but none of the rewriting machinery: control-flow
//! recovery, the spacing dataflow and every structural check here are
//! written from the raw bits up, so a bug on either side of the N-version
//! pair surfaces as a finding instead of cancelling out.
//!
//! [`verify`] runs six analyses (see [`checks`](crate::checks) — flow,
//! guards, spacing, relocations, regions, coverage) and returns a
//! [`Report`] of [`Finding`]s with stable lint IDs (`fplint --lints`
//! enumerates them). An image is *clean* when no finding has
//! [`Severity::Error`]; policies ([`LintPolicy`]) can promote or demote
//! individual lints.
//!
//! The coverage analyses run on a worklist dataflow framework
//! ([`dataflow`]) instantiated for backward register liveness
//! ([`liveness`]), minimum reachability depth, and basic-block dominators
//! ([`domtree`] over [`cfg`]). On top of them [`analyze`] also produces a
//! [`SurfaceMap`] — the ranked list of text words no guard window or
//! cipher region covers, i.e. the static tamper surface.
//!
//! ```
//! use flexprot_verify::{verify, Severity};
//! # use flexprot_secmon::SecMonConfig;
//! let image = flexprot_asm::assemble("main: li $v0, 10\n syscall\n")?;
//! let report = verify(&image, &SecMonConfig::transparent());
//! assert!(report.is_clean());
//! assert_eq!(report.count(Severity::Error), 0);
//! # Ok::<(), flexprot_asm::AsmError>(())
//! ```

pub mod absint;
pub mod alias;
pub mod cfg;
mod checks;
pub mod coverage;
pub mod dataflow;
pub mod diag;
pub mod domtree;
pub mod equiv;
pub mod flow;
pub mod guardnet;
pub mod liveness;
pub mod memdom;
pub mod taint;

pub use absint::{AbsHasher, AbsVal, GuardProof, UnprovenReason, Verdict};
pub use alias::StoreClass;
pub use cfg::{BasicBlock, Cfg};
pub use coverage::{Coverage, GuardWindow, SurfaceEntry, SurfaceMap};
pub use diag::{lint_by_id, Finding, Lint, LintPolicy, Report, Severity, VerifyStats, LINTS};
pub use domtree::DomTree;
pub use equiv::{EquivReport, EquivStats, EquivVerdict, RefusalReason, WindowEquiv};
pub use flow::{Edge, EdgeKind, Flow};
pub use guardnet::{GuardNet, NetNode, WeakLink};
pub use liveness::Liveness;
pub use taint::{TaintState, TaintStats};

use std::fmt;

use flexprot_isa::Image;
use flexprot_secmon::SecMonConfig;

/// Bulk lints report at most this many individual findings before
/// summarising the rest (see [`Sink::emit_capped`]).
const MAX_PER_LINT: usize = 8;

/// Collects findings, applying the policy's severity overrides at emission.
pub(crate) struct Sink<'p> {
    policy: &'p LintPolicy,
    findings: Vec<Finding>,
    /// Findings seen per capped lint id since its last summary.
    capped: Vec<(&'static str, usize)>,
}

impl<'p> Sink<'p> {
    fn new(policy: &'p LintPolicy) -> Sink<'p> {
        Sink {
            policy,
            findings: Vec::new(),
            capped: Vec::new(),
        }
    }

    fn emit(&mut self, lint: &'static Lint, addr: Option<u32>, message: String) {
        self.emit_severity(lint, lint.default_severity, addr, message);
    }

    /// Emits one finding of bulk `lint`, or only counts it once
    /// [`MAX_PER_LINT`] findings of that lint are out; [`Sink::summarise`]
    /// reports the overflow.
    fn emit_capped(&mut self, lint: &'static Lint, addr: u32, message: fmt::Arguments<'_>) {
        let seen = match self.capped.iter_mut().find(|(id, _)| *id == lint.id) {
            Some((_, seen)) => {
                *seen += 1;
                *seen
            }
            None => {
                self.capped.push((lint.id, 1));
                1
            }
        };
        if seen <= MAX_PER_LINT {
            self.emit(lint, Some(addr), message.to_string());
        }
    }

    /// Closes a batch of [`Sink::emit_capped`] findings of `lint`: the ones
    /// past the cap become a single "... and N more <noun>" finding, and the
    /// count restarts.
    fn summarise(&mut self, lint: &'static Lint, noun: &str) {
        let Some(i) = self.capped.iter().position(|(id, _)| *id == lint.id) else {
            return;
        };
        let more = self.capped.swap_remove(i).1.saturating_sub(MAX_PER_LINT);
        if more > 0 {
            let message = if noun.is_empty() {
                format!("... and {more} more")
            } else {
                format!("... and {more} more {noun}")
            };
            self.emit(lint, None, message);
        }
    }

    fn emit_severity(
        &mut self,
        lint: &'static Lint,
        chosen: Severity,
        addr: Option<u32>,
        message: String,
    ) {
        self.findings.push(Finding {
            id: lint.id,
            name: lint.name,
            severity: self.policy.effective(lint, chosen),
            addr,
            message,
        });
    }
}

/// The text segment after undoing the configured encryption regions —
/// the plaintext the core will execute.
pub fn decrypt_text(image: &Image, config: &SecMonConfig) -> Vec<u32> {
    image
        .text
        .iter()
        .enumerate()
        .map(|(i, &word)| config.regions.apply(image.addr_of_index(i), word))
        .collect()
}

/// Everything one analysis pass produces: the lint report, the static
/// tamper-surface map, the per-word coverage facts, the guard network
/// and the checksum proofs — all derived from the same flow recovery.
#[derive(Debug, Clone)]
pub struct Verification {
    /// Findings and statistics.
    pub report: Report,
    /// Ranked uncovered words (`flexprot-surface-v1`).
    pub surface: SurfaceMap,
    /// Per-word guard-coverage facts (window list included).
    pub coverage: Coverage,
    /// The who-checks-whom guard network (`flexprot-guardnet-v1`).
    pub guardnet: GuardNet,
    /// One abstract checksum proof per guard window.
    pub proofs: Vec<GuardProof>,
}

impl Verification {
    /// Renders the guard network and proofs as `flexprot-guardnet-v1`.
    pub fn guardnet_json(&self) -> String {
        guardnet::to_json(&self.guardnet, &self.proofs)
    }
}

/// Verifies `image` against `config` under the default lint policy.
pub fn verify(image: &Image, config: &SecMonConfig) -> Report {
    analyze(image, config, &LintPolicy::default()).report
}

/// Runs every analysis once under `policy`, returning the report, the
/// surface map and the rest of the [`Verification`] ([`verify`] is the
/// report under the default policy).
pub fn analyze(image: &Image, config: &SecMonConfig, policy: &LintPolicy) -> Verification {
    analyze_with_options(image, config, policy, false)
}

/// [`analyze`] plus, when `taint` is set, the key-flow analysis
/// ([`taint::check_taint`]): FP9xx findings land in the report and the
/// run counters in [`VerifyStats::taint`].
pub fn analyze_with_options(
    image: &Image,
    config: &SecMonConfig,
    policy: &LintPolicy,
    taint: bool,
) -> Verification {
    let text = decrypt_text(image, config);
    let flow = Flow::recover(image, &text);
    let ctx = checks::Ctx {
        image,
        config,
        text,
        flow,
    };
    let mut sink = Sink::new(policy);
    checks::check_flow(&ctx, &mut sink);
    let (sites_checked, windows) = checks::check_guards(&ctx, &mut sink);
    let max_spacing = checks::check_spacing(&ctx, &mut sink);
    let relocs_checked = checks::check_relocs(&ctx, &mut sink);
    checks::check_regions(&ctx, &mut sink);

    let cfg = Cfg::build(image, &ctx.flow);
    let doms = cfg
        .entry
        .map(|entry| domtree::dominators(entry, &cfg.succs));
    let live = liveness::analyze(&ctx.flow);
    let cov = coverage::analyze(&ctx.flow, &cfg, doms.as_ref(), windows);
    checks::check_coverage(&ctx, &cov, &live, &mut sink);
    let surface = coverage::surface_map(image, config, &ctx.flow, &cfg, &cov);

    // Abstract interpretation: the memory-sensitive value-set analysis
    // (pointer provenance + tracked stack frame) feeds the per-guard
    // checksum proofs; the window list feeds the guard network.
    let mem = memdom::analyze_memory(image, &ctx.flow);
    let proofs = absint::prove_guards(image, config, &ctx.text, &ctx.flow, &mem, &cov.windows);
    let net = guardnet::build(&cov.windows);
    checks::check_network(&net, &proofs, &mut sink);
    let taint_stats = taint.then(|| taint::check_taint(image, config, &ctx.flow, &mem, &mut sink));

    let report = Report {
        stats: VerifyStats {
            text_words: ctx.text.len(),
            reachable_words: ctx.flow.reachable_count(),
            sites_checked,
            relocs_checked,
            max_spacing,
            sound_windows: surface.sound_windows,
            covered_words: surface.covered_words(),
            surface_words: surface.surface_words(),
            guard_edges: net.edges,
            proven_constants: proofs
                .iter()
                .filter(|p| matches!(p.verdict, absint::Verdict::Proven { .. }))
                .count(),
            taint: taint_stats,
        },
        findings: sink.findings,
    };
    Verification {
        report,
        surface,
        coverage: cov,
        guardnet: net,
        proofs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capped_lints_summarise_their_overflow_and_restart() {
        let policy = LintPolicy::default();
        let mut sink = Sink::new(&policy);
        for addr in 0..11 {
            sink.emit_capped(&diag::COVERAGE_GAP, addr, format_args!("gap"));
            sink.emit_capped(&diag::TAINT_KEY_STORE, addr, format_args!("store"));
        }
        sink.summarise(&diag::COVERAGE_GAP, "uncovered word(s)");
        sink.summarise(&diag::TAINT_KEY_STORE, "");
        // Below the cap nothing is summarised, and the count restarted.
        sink.emit_capped(&diag::COVERAGE_GAP, 99, format_args!("gap"));
        sink.summarise(&diag::COVERAGE_GAP, "uncovered word(s)");
        let messages: Vec<&str> = sink.findings.iter().map(|f| f.message.as_str()).collect();
        assert_eq!(messages.len(), 2 * MAX_PER_LINT + 3);
        assert_eq!(
            messages[2 * MAX_PER_LINT..],
            ["... and 3 more uncovered word(s)", "... and 3 more", "gap"]
        );
        assert_eq!(sink.findings[2 * MAX_PER_LINT].addr, None);
    }
}
