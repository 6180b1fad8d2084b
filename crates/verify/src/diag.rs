//! The diagnostics engine: stable lint IDs, severities, findings, policy
//! overrides and rendering.
//!
//! Every check in this crate reports through a [`Finding`] carrying one of
//! the registered [`Lint`] IDs. IDs are stable across releases — scripts and
//! CI gates may match on them — so new checks take new IDs and retired
//! checks leave their ID reserved.

use std::collections::BTreeSet;
use std::fmt;

use flexprot_trace::json::{self, JsonWriter};

/// How serious a finding is.
///
/// Only [`Severity::Error`] findings make a verification fail (non-zero
/// `fplint` exit); warnings and notes are informational unless promoted via
/// a [`LintPolicy`] deny list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational; never fails a verification.
    Note,
    /// Suspicious but possibly intentional; does not fail a verification.
    Warning,
    /// A protection-contract violation.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// One registered lint: stable ID, short name, default severity and a
/// one-line description.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lint {
    /// Stable identifier, e.g. `"FP102"`.
    pub id: &'static str,
    /// Short kebab-case name, e.g. `"signature-mismatch"`.
    pub name: &'static str,
    /// Severity applied unless a policy overrides it.
    pub default_severity: Severity,
    /// One-line description for `fplint --lints`.
    pub description: &'static str,
}

macro_rules! lints {
    ($($konst:ident = ($id:literal, $name:literal, $sev:ident, $desc:literal);)*) => {
        $(pub(crate) const $konst: Lint = Lint {
            id: $id,
            name: $name,
            default_severity: Severity::$sev,
            description: $desc,
        };)*
        /// Every registered lint, in ID order.
        pub const LINTS: &[Lint] = &[$($konst),*];
    };
}

lints! {
    UNDECODABLE_TEXT = ("FP001", "undecodable-reachable-text", Error,
        "a reachable text word does not decode as a valid SP32 instruction");
    WILD_CONTROL_TARGET = ("FP002", "wild-control-target", Error,
        "a reachable branch or jump targets an address outside the text segment");
    BAD_ENTRY = ("FP003", "bad-entry-point", Error,
        "the image entry point is not a valid text address");
    MALFORMED_GUARD = ("FP101", "malformed-guard-word", Error,
        "a word at a configured guard site is not a well-formed guard instruction");
    SIGNATURE_MISMATCH = ("FP102", "signature-mismatch", Error,
        "the signature embedded at a guard site disagrees with the recomputed window hash");
    GUARD_OUT_OF_BOUNDS = ("FP103", "guard-sequence-out-of-bounds", Error,
        "a configured guard sequence extends past the end of the text segment");
    MALFORMED_WINDOW = ("FP104", "malformed-guard-window", Error,
        "a guard site has no usable window start or its window is not straight-line");
    UNGUARDED_CYCLE = ("FP201", "unguarded-cycle", Error,
        "a cycle in a protected range contains no guard check, so the spacing counter is unbounded");
    SPACING_EXCEEDED = ("FP202", "spacing-bound-exceeded", Error,
        "some guard-free path exceeds the provisioned spacing bound");
    MISSING_SPACING_BOUND = ("FP203", "missing-spacing-bound", Warning,
        "guards are configured but no spacing bound is provisioned, so guard stripping is not bounded");
    UNRESET_CALL_RETURN = ("FP204", "unreset-call-return", Warning,
        "a call continuation inside a protected range is not a spacing reset point");
    RELOC_FIELD_MISMATCH = ("FP301", "reloc-field-mismatch", Error,
        "an instruction field disagrees with its relocation entry");
    RELOC_TARGET_OOB = ("FP302", "reloc-target-out-of-bounds", Error,
        "a control-flow relocation targets an address outside the text segment");
    UNRELOCATED_CONTROL = ("FP303", "unrelocated-control-transfer", Warning,
        "a reachable direct branch or jump carries no relocation entry");
    RELOC_INDEX_OOB = ("FP304", "reloc-index-out-of-bounds", Error,
        "a relocation entry points past the end of the text segment");
    ADDRESS_RELOC_OOB = ("FP305", "address-reloc-outside-image", Warning,
        "a hi16/lo16 relocation targets an address outside the text and data segments");
    MALFORMED_REGION = ("FP401", "malformed-region", Error,
        "an encrypted region is empty, inverted or not word-aligned");
    OVERLAPPING_REGIONS = ("FP402", "overlapping-regions", Error,
        "two encrypted regions overlap");
    REGION_OUTSIDE_TEXT = ("FP403", "region-outside-text", Error,
        "an encrypted region lies outside the text segment");
    UNENCRYPTED_PROTECTED = ("FP404", "protected-range-not-encrypted", Note,
        "encryption is configured but a guarded range is not fully covered by it");
    UNREACHABLE_TEXT = ("FP501", "unreachable-text", Note,
        "a text word is unreachable from the entry point and every symbol");
    GUARD_CLOBBERS_LIVE = ("FP601", "guard-clobbers-live-register", Error,
        "a guard-site word overwrites a register that is live after the site");
    DEAD_GUARD = ("FP602", "dead-guard", Warning,
        "a guard sequence is unreachable, so its window never streams past the monitor");
    COVERAGE_GAP = ("FP603", "coverage-gap", Warning,
        "a reachable protected word is covered by no guard window and no dominating check");
    POST_CHECK_WINDOW = ("FP604", "post-check-edit-window", Note,
        "a reachable protected word is uncovered but dominated by a completed guard check");
    UNGUARDED_GUARD = ("FP701", "unguarded-guard", Note,
        "a sound guard's window is covered by no other guard, so defeating it defeats nothing else");
    ACYCLIC_GUARD_CHAIN = ("FP702", "acyclic-guard-chain", Note,
        "a guard is checked but sits in no checking cycle, so the chain unravels from its root");
    CHECKSUM_CONSTANT_MISMATCH = ("FP703", "checksum-constant-mismatch", Error,
        "abstract interpretation proves a guard's embedded signature never matches its window");
    MIN_CUT_WEAK_LINK = ("FP704", "min-cut-weak-link", Note,
        "the guard belongs to a minimum cut of the guard network (or the network is disconnected)");
    EQUIV_GUARD_CLOBBER = ("FP801", "guard-clobbers-live-reg", Error,
        "translation validation: a guard-window instruction writes live architectural state");
    EQUIV_UNALIGNED = ("FP802", "unaligned-block", Error,
        "translation validation: a protected block cannot be aligned with its baseline block");
    EQUIV_CIPHER_MISMATCH = ("FP803", "cipher-roundtrip-mismatch", Error,
        "translation validation: decrypting an encrypted word does not restore the baseline instruction");
    EQUIV_REFUSED = ("FP804", "refused-window", Warning,
        "translation validation refused to judge a guard window; the refusal reason is logged");
    TAINT_KEY_STORE = ("FP901", "key-material-store", Error,
        "key-derived data (a ciphertext read) flows to a store outside every encrypted region");
    TAINT_KEY_SYSCALL = ("FP902", "key-material-syscall", Error,
        "key-derived data reaches a syscall operand register and escapes through the environment");
    TAINT_KEY_DEPENDENT = ("FP903", "key-dependent-control", Warning,
        "a branch condition or memory address depends on key-derived data (a side channel)");
    TAINT_UNRESOLVED_READ = ("FP904", "unresolved-ciphertext-read", Warning,
        "a load may read an encrypted region but its address is unresolved; taint tracking is approximate");
}

/// Looks up a lint by its stable ID or short name.
pub fn lint_by_id(key: &str) -> Option<&'static Lint> {
    LINTS.iter().find(|l| l.id == key || l.name == key)
}

/// One diagnostic produced by a verification run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Stable lint ID (see [`LINTS`]).
    pub id: &'static str,
    /// Short lint name.
    pub name: &'static str,
    /// Effective severity (default, possibly overridden by a policy).
    pub severity: Severity,
    /// Text address the finding anchors to, when one exists.
    pub addr: Option<u32>,
    /// Human-readable detail.
    pub message: String,
}

/// Writes `findings` as the `{"id","name","severity","addr","message"}`
/// array elements shared by the lint and equiv documents.
pub(crate) fn write_findings(w: &mut JsonWriter, findings: &[Finding]) {
    for f in findings {
        w.object(|w| {
            w.key("id").str(f.id);
            w.key("name").str(f.name);
            w.key("severity").str(&f.severity.to_string());
            w.key("addr").opt(f.addr, JsonWriter::hex);
            w.key("message").str(&f.message);
        });
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.addr {
            Some(addr) => write!(
                f,
                "{}: [{}] {addr:#010x}: {} ({})",
                self.severity, self.id, self.message, self.name
            ),
            None => write!(
                f,
                "{}: [{}] {} ({})",
                self.severity, self.id, self.message, self.name
            ),
        }
    }
}

/// Promotion/demotion overrides applied after the checks run.
///
/// `deny` promotes a lint to [`Severity::Error`]; `allow` demotes it to
/// [`Severity::Note`]. `deny` wins when both name the same lint. Entries
/// may use either the stable ID (`FP203`) or the short name
/// (`missing-spacing-bound`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LintPolicy {
    deny: BTreeSet<String>,
    allow: BTreeSet<String>,
}

impl LintPolicy {
    /// Builds a policy from deny/allow lists.
    ///
    /// # Errors
    ///
    /// Reports the first entry that names no registered lint.
    pub fn new<S: AsRef<str>>(deny: &[S], allow: &[S]) -> Result<LintPolicy, String> {
        let mut policy = LintPolicy::default();
        for key in deny {
            let lint = lint_by_id(key.as_ref())
                .ok_or_else(|| format!("unknown lint `{}`", key.as_ref()))?;
            policy.deny.insert(lint.id.to_owned());
        }
        for key in allow {
            let lint = lint_by_id(key.as_ref())
                .ok_or_else(|| format!("unknown lint `{}`", key.as_ref()))?;
            policy.allow.insert(lint.id.to_owned());
        }
        Ok(policy)
    }

    /// The severity of `lint` under this policy, given the severity the
    /// check itself chose.
    pub fn effective(&self, lint: &Lint, chosen: Severity) -> Severity {
        if self.deny.contains(lint.id) {
            Severity::Error
        } else if self.allow.contains(lint.id) {
            Severity::Note
        } else {
            chosen
        }
    }
}

/// Summary statistics of one verification run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerifyStats {
    /// Words in the (decrypted) text segment.
    pub text_words: usize,
    /// Words reachable from the entry point and the symbol table.
    pub reachable_words: usize,
    /// Guard sites whose signature was recomputed.
    pub sites_checked: usize,
    /// Relocation entries checked.
    pub relocs_checked: usize,
    /// Maximum statically possible spacing-counter value, when the
    /// spacing analysis ran and found the counter bounded.
    pub max_spacing: Option<u64>,
    /// Guard windows that passed every structural and cryptographic check.
    pub sound_windows: usize,
    /// Text words covered by at least one sound guard window.
    pub covered_words: usize,
    /// Text words covered by no sound window and no cipher region — the
    /// static tamper surface.
    pub surface_words: usize,
    /// Check edges between distinct sound guards in the guard network.
    pub guard_edges: usize,
    /// Guards whose embedded signature the abstract interpreter proved
    /// consistent with the text it covers.
    pub proven_constants: usize,
    /// Key-flow counters, when the taint analysis ran (`fplint --taint`).
    pub taint: Option<crate::taint::TaintStats>,
}

/// The product of a verification run: findings plus statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// All findings, in check order.
    pub findings: Vec<Finding>,
    /// Run statistics.
    pub stats: VerifyStats,
}

impl Report {
    /// Number of findings at `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == severity)
            .count()
    }

    /// Whether the image passed (no error-severity findings).
    pub fn is_clean(&self) -> bool {
        self.count(Severity::Error) == 0
    }

    /// Findings carrying the given lint ID.
    pub fn with_id<'a>(&'a self, id: &'a str) -> impl Iterator<Item = &'a Finding> {
        self.findings.iter().filter(move |f| f.id == id)
    }

    /// Renders the human-readable report.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for finding in &self.findings {
            out.push_str(&finding.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "{} error(s), {} warning(s), {} note(s); \
             {} text words ({} reachable), {} guard site(s), {} relocation(s); \
             {} sound window(s) covering {} word(s), {} on the tamper surface; \
             {} guard-network edge(s), {} proven constant(s)",
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Note),
            self.stats.text_words,
            self.stats.reachable_words,
            self.stats.sites_checked,
            self.stats.relocs_checked,
            self.stats.sound_windows,
            self.stats.covered_words,
            self.stats.surface_words,
            self.stats.guard_edges,
            self.stats.proven_constants,
        ));
        if let Some(max) = self.stats.max_spacing {
            out.push_str(&format!("; max guard-free path {max}"));
        }
        if let Some(t) = &self.stats.taint {
            out.push_str(&format!(
                "; key flow: {} source(s), {} tainted store(s), {} tainted syscall(s), \
                 {} key-dependent, {} unresolved read(s)",
                t.sources,
                t.tainted_stores,
                t.tainted_syscalls,
                t.key_dependent,
                t.unresolved_reads,
            ));
        }
        out.push('\n');
        out
    }

    /// Renders the report as a stable JSON document (`flexprot-lint-v1`).
    ///
    /// Schema: `{"schema","clean","stats":{...},"findings":[{"id","name",
    /// "severity","addr","message"}]}` with `addr` a `"0x…"` string or
    /// `null`.  Field order is fixed; consumers may rely on it. When the
    /// key-flow analysis ran, `stats` additionally carries
    /// `"taint":{"sources","tainted_stores","tainted_syscalls",
    /// "key_dependent","unresolved_reads"}` (`"taint":null` otherwise).
    pub fn render_json(&self) -> String {
        let s = &self.stats;
        json::object(|w| {
            w.key("schema").str("flexprot-lint-v1");
            w.key("clean").bool(self.is_clean());
            w.key("stats").object(|w| {
                w.key("text_words").num(s.text_words);
                w.key("reachable_words").num(s.reachable_words);
                w.key("sites_checked").num(s.sites_checked);
                w.key("relocs_checked").num(s.relocs_checked);
                w.key("max_spacing").opt(s.max_spacing, JsonWriter::num);
                w.key("sound_windows").num(s.sound_windows);
                w.key("covered_words").num(s.covered_words);
                w.key("surface_words").num(s.surface_words);
                w.key("guard_edges").num(s.guard_edges);
                w.key("proven_constants").num(s.proven_constants);
                w.key("taint").opt(s.taint, |w, t| {
                    w.object(|w| {
                        w.key("sources").num(t.sources);
                        w.key("tainted_stores").num(t.tainted_stores);
                        w.key("tainted_syscalls").num(t.tainted_syscalls);
                        w.key("key_dependent").num(t.key_dependent);
                        w.key("unresolved_reads").num(t.unresolved_reads);
                    })
                });
            });
            w.key("findings")
                .array(|w| write_findings(w, &self.findings));
        })
    }

    /// Renders the findings as CSV (`id,name,severity,addr,message`).
    pub fn render_csv(&self) -> String {
        let mut out = String::from("id,name,severity,addr,message\n");
        for f in &self.findings {
            let addr = f.addr.map(|a| format!("{a:#010x}")).unwrap_or_default();
            let message = f.message.replace('"', "\"\"");
            out.push_str(&format!(
                "{},{},{},{addr},\"{message}\"\n",
                f.id, f.name, f.severity
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_sorted() {
        for pair in LINTS.windows(2) {
            assert!(pair[0].id < pair[1].id, "{} vs {}", pair[0].id, pair[1].id);
        }
    }

    #[test]
    fn lookup_by_id_and_name() {
        assert_eq!(lint_by_id("FP102").unwrap().name, "signature-mismatch");
        assert_eq!(lint_by_id("signature-mismatch").unwrap().id, "FP102");
        assert!(lint_by_id("FP999").is_none());
    }

    #[test]
    fn policy_promotes_and_demotes() {
        let policy = LintPolicy::new(&["FP203"], &["unreachable-text"]).unwrap();
        assert_eq!(
            policy.effective(&MISSING_SPACING_BOUND, Severity::Warning),
            Severity::Error
        );
        assert_eq!(
            policy.effective(&UNREACHABLE_TEXT, Severity::Note),
            Severity::Note
        );
        assert_eq!(
            policy.effective(&SIGNATURE_MISMATCH, Severity::Error),
            Severity::Error
        );
        assert!(LintPolicy::new(&["FP999"], &[]).is_err());
    }

    #[test]
    fn deny_beats_allow() {
        let policy = LintPolicy::new(&["FP501"], &["FP501"]).unwrap();
        assert_eq!(
            policy.effective(&UNREACHABLE_TEXT, Severity::Note),
            Severity::Error
        );
    }

    #[test]
    fn every_registered_lint_resolves_by_id_and_name_in_policies() {
        for lint in LINTS {
            assert_eq!(lint_by_id(lint.id).unwrap().id, lint.id);
            assert_eq!(lint_by_id(lint.name).unwrap().id, lint.id, "{}", lint.name);
            // `--deny <id>` and `--deny <name>` must build identical
            // policies with identical effect, for every lint.
            let by_id = LintPolicy::new(&[lint.id], &[]).unwrap();
            let by_name = LintPolicy::new(&[lint.name], &[]).unwrap();
            assert_eq!(by_id, by_name, "{}", lint.id);
            assert_eq!(
                by_id.effective(lint, lint.default_severity),
                Severity::Error
            );
            let allow = LintPolicy::new::<&str>(&[], &[lint.name]).unwrap();
            assert_eq!(allow.effective(lint, lint.default_severity), Severity::Note);
        }
    }

    #[test]
    fn json_rendering_is_stable_and_escaped() {
        let report = Report {
            findings: vec![Finding {
                id: "FP102",
                name: "signature-mismatch",
                severity: Severity::Error,
                addr: Some(0x0040_0010),
                message: "claimed \"1\"\ncomputed 2".to_owned(),
            }],
            stats: VerifyStats::default(),
        };
        let json = report.render_json();
        assert!(
            json.starts_with("{\"schema\":\"flexprot-lint-v1\""),
            "{json}"
        );
        assert!(json.contains("\"clean\":false"), "{json}");
        assert!(json.contains("\"addr\":\"0x00400010\""), "{json}");
        assert!(json.contains("claimed \\\"1\\\"\\ncomputed 2"), "{json}");
        assert!(json.contains("\"max_spacing\":null"), "{json}");
    }

    #[test]
    fn report_rendering() {
        let report = Report {
            findings: vec![Finding {
                id: "FP102",
                name: "signature-mismatch",
                severity: Severity::Error,
                addr: Some(0x0040_0010),
                message: "claimed 1 computed 2".to_owned(),
            }],
            stats: VerifyStats::default(),
        };
        assert!(!report.is_clean());
        let human = report.render_human();
        assert!(human.contains("FP102"), "{human}");
        assert!(human.contains("0x00400010"), "{human}");
        let csv = report.render_csv();
        assert!(csv.starts_with("id,name,"), "{csv}");
        assert!(
            csv.contains("FP102,signature-mismatch,error,0x00400010"),
            "{csv}"
        );
    }
}
