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
//! Every analysis starts from one fact base per image, [`Shipped`]: the
//! decrypted text and the recovered [`Flow`], derived by [`Shipped::new`],
//! and the [`memdom`] value-set facts, built once on first use by the
//! checksum proofs, the key-flow analysis or translation validation.
//! [`Shipped::analyze`] runs the lint checks (flow, guards, spacing,
//! relocations, regions, coverage, guard network and, on request,
//! key-flow [`taint`]) and returns a [`Verification`]: a [`Report`] of
//! [`Finding`]s with stable lint IDs (`fplint --lints` enumerates them),
//! the tamper-surface [`SurfaceMap`], the guard network and the checksum
//! proofs. [`Shipped::flags`] answers only whether that report would hold
//! an error: it runs the same checks in the same order but stops at the
//! first structural check (flow, guards, spacing, relocations, regions)
//! that reports one, before the memory facts are needed.
//! [`Shipped::validate`] translation-validates the image against its
//! baseline ([`equiv`]). An image is *clean* when no finding has
//! [`Severity::Error`]; policies ([`LintPolicy`]) can promote or demote
//! individual lints. [`verify`], [`analyze`], [`analyze_with_options`]
//! and [`equiv::validate`] build a fresh fact base for one consumer.
//!
//! The iterative analyses run on a worklist dataflow framework
//! ([`dataflow`]) instantiated for backward register liveness
//! ([`liveness`]), minimum reachability depth, the value-set domains and
//! basic-block dominators ([`domtree`] over [`mod@cfg`]).
//!
//! ```
//! use flexprot_verify::{LintPolicy, Severity, Shipped};
//! # use flexprot_secmon::SecMonConfig;
//! let image = flexprot_asm::assemble("main: li $v0, 10\n syscall\n")?;
//! let config = SecMonConfig::transparent();
//! let shipped = Shipped::new(&image, &config);
//! let report = shipped.analyze(&LintPolicy::default(), false).report;
//! assert!(report.is_clean());
//! assert_eq!(report.count(Severity::Error), 0);
//! assert!(shipped.validate(&image, &LintPolicy::default()).is_clean());
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
pub mod graph;
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
pub use graph::Graph;
pub use guardnet::{GuardNet, NetNode, WeakLink};
pub use liveness::Liveness;
pub use taint::{TaintState, TaintStats};

use std::cell::OnceCell;
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
    /// Whether a caller that only needs the verdict stops at the first
    /// error (see [`Sink::go_on`]).
    stop_at_error: bool,
}

impl<'p> Sink<'p> {
    fn new(policy: &'p LintPolicy) -> Sink<'p> {
        Sink {
            policy,
            findings: Vec::new(),
            capped: Vec::new(),
            stop_at_error: false,
        }
    }

    /// A sink whose [`Sink::go_on`] says stop once it holds an error.
    fn stopping(policy: &'p LintPolicy) -> Sink<'p> {
        Sink {
            stop_at_error: true,
            ..Sink::new(policy)
        }
    }

    /// `None` when this sink stops at errors and already holds one, so a
    /// sequence of checks can end with `?`.
    fn go_on(&self) -> Option<()> {
        let stop =
            self.stop_at_error && self.findings.iter().any(|f| f.severity == Severity::Error);
        (!stop).then_some(())
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

/// The facts every analysis of one shipped image reads, each derived at
/// most once: the decrypted text and its recovered flow graph, built by
/// [`Shipped::new`], and the memory-sensitive value-set facts, built the
/// first time an analysis reads them. The lint checks, the key-flow
/// analysis, the checksum proofs and translation validation all start
/// from here.
#[derive(Debug)]
pub struct Shipped<'a> {
    /// The shipped image.
    pub(crate) image: &'a Image,
    /// The monitor configuration provisioned with it.
    pub(crate) config: &'a SecMonConfig,
    /// Text after undoing the region table — what the core executes.
    pub(crate) text: Vec<u32>,
    /// The instruction-level flow graph of `text`.
    pub(crate) flow: Flow,
    /// The memory facts at the chain heads ([`memdom::analyze_memory`]),
    /// once [`Shipped::mem`] has built them.
    mem: OnceCell<memdom::MemFacts>,
}

/// What the structural checks hand the rest of the analysis.
struct Structural {
    sites_checked: usize,
    windows: Vec<GuardWindow>,
    max_spacing: Option<u64>,
    relocs_checked: usize,
}

impl<'a> Shipped<'a> {
    /// Decrypts `image` under `config` and recovers its flow.
    pub fn new(image: &'a Image, config: &'a SecMonConfig) -> Shipped<'a> {
        let text = decrypt_text(image, config);
        let flow = Flow::recover(image, &text);
        Shipped {
            image,
            config,
            text,
            flow,
            mem: OnceCell::new(),
        }
    }

    /// The memory-sensitive value-set facts, built on first use.
    pub(crate) fn mem(&self) -> &memdom::MemFacts {
        self.mem
            .get_or_init(|| memdom::analyze_memory(self.image, &self.flow))
    }

    /// Runs every lint check under `policy`, returning the report, the
    /// surface map and the rest of the [`Verification`]. With `taint` set
    /// the key-flow analysis runs too: FP9xx findings land in the report
    /// and the run counters in [`VerifyStats::taint`].
    pub fn analyze(&self, policy: &LintPolicy, taint: bool) -> Verification {
        let mut sink = Sink::new(policy);
        let structural = self
            .structural(&mut sink)
            .expect("only a stopping sink cuts the structural checks short");
        self.semantic(sink, structural, taint)
    }

    /// Whether [`Shipped::analyze`] without the key-flow analysis would
    /// report an error under `policy`, that is
    /// `!self.analyze(policy, false).report.is_clean()`.
    ///
    /// Findings are only ever added and their severity is fixed when they
    /// are emitted, so the first error decides the answer: the checks run
    /// in the order `analyze` runs them and stop after the first structural
    /// check that reports an error, before the control-flow, coverage and
    /// value-set analyses (and the memory facts) are built.
    pub fn flags(&self, policy: &LintPolicy) -> bool {
        let mut sink = Sink::stopping(policy);
        match self.structural(&mut sink) {
            None => true,
            Some(structural) => !self.semantic(sink, structural, false).report.is_clean(),
        }
    }

    /// The structural checks — flow, guards, spacing, relocations and
    /// regions — which read only the text and the flow. `None` when a
    /// stopping sink has an error after one of them.
    fn structural(&self, sink: &mut Sink) -> Option<Structural> {
        checks::check_flow(self, sink);
        sink.go_on()?;
        let (sites_checked, windows) = checks::check_guards(self, sink);
        sink.go_on()?;
        let max_spacing = checks::check_spacing(self, sink);
        sink.go_on()?;
        let relocs_checked = checks::check_relocs(self, sink);
        sink.go_on()?;
        checks::check_regions(self, sink);
        sink.go_on()?;
        Some(Structural {
            sites_checked,
            windows,
            max_spacing,
            relocs_checked,
        })
    }

    /// The checks after the structural ones: control-flow graph,
    /// dominators, liveness and coverage, the checksum proofs on the
    /// memory facts, the guard network and, with `taint` set, key flow.
    fn semantic(&self, mut sink: Sink, structural: Structural, taint: bool) -> Verification {
        let (image, config, text, flow) = (self.image, self.config, &self.text, &self.flow);
        let cfg = Cfg::build(image, flow);
        let doms = cfg
            .entry
            .map(|entry| domtree::dominators(entry, &cfg.succs));
        let live = liveness::analyze(flow);
        let cov = coverage::analyze(flow, &cfg, doms.as_ref(), structural.windows);
        checks::check_coverage(self, &cov, &live, &mut sink);
        let surface = coverage::surface_map(image, config, flow, &cfg, &cov);

        // Abstract interpretation: the memory-sensitive value-set facts
        // (pointer provenance + tracked stack frame) feed the per-guard
        // checksum proofs; the window list feeds the guard network.
        let proofs = absint::prove_guards(image, config, text, flow, self.mem(), &cov.windows);
        let net = guardnet::build(&cov.windows);
        checks::check_network(&net, &proofs, &mut sink);
        let taint_stats = taint.then(|| taint::check_taint(self, &mut sink));

        let report = Report {
            stats: VerifyStats {
                text_words: text.len(),
                reachable_words: flow.reachable_count(),
                sites_checked: structural.sites_checked,
                relocs_checked: structural.relocs_checked,
                max_spacing: structural.max_spacing,
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
}

/// Verifies `image` against `config` under the default lint policy.
pub fn verify(image: &Image, config: &SecMonConfig) -> Report {
    analyze(image, config, &LintPolicy::default()).report
}

/// [`Shipped::analyze`] without the key-flow analysis, on a fresh fact
/// base.
pub fn analyze(image: &Image, config: &SecMonConfig, policy: &LintPolicy) -> Verification {
    analyze_with_options(image, config, policy, false)
}

/// [`Shipped::analyze`] on a fresh fact base.
pub fn analyze_with_options(
    image: &Image,
    config: &SecMonConfig,
    policy: &LintPolicy,
    taint: bool,
) -> Verification {
    Shipped::new(image, config).analyze(policy, taint)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexprot_core::{protect, GuardConfig, ProtectionConfig};

    #[test]
    fn memory_facts_are_built_on_first_use_and_only_once() {
        let base = flexprot_asm::assemble_or_panic(
            "main: li $t0, 5\n li $t1, 6\n addu $a0, $t0, $t1\n li $v0, 1\n syscall\n \
             li $v0, 10\n syscall\n",
        );
        let config = ProtectionConfig::new().with_guards(GuardConfig::with_density(1.0));
        let protected = protect(&base, &config, None).unwrap();
        let (image, secmon) = (&protected.image, &protected.secmon);

        // A broken signature ends the verdict in the structural checks.
        let mut mutant = image.clone();
        let site = *secmon.sites.keys().next().unwrap();
        mutant.text[image.text_index_of(site).unwrap() - 1] ^= 1 << 5;
        let shipped = Shipped::new(&mutant, secmon);
        assert!(shipped.flags(&LintPolicy::default()));
        assert!(shipped.mem.get().is_none(), "flags built the memory facts");

        // The full analysis builds them, and validation reads the same ones.
        assert!(!shipped
            .analyze(&LintPolicy::default(), false)
            .report
            .is_clean());
        let built: *const memdom::MemFacts =
            shipped.mem.get().expect("analyze builds the memory facts");
        shipped.validate(&base, &LintPolicy::default());
        assert!(std::ptr::eq(shipped.mem(), built));
    }

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
