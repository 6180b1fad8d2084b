//! Cross-crate integration: a run's metrics document, built by the
//! simulator and monitor from their own counters (`Machine::metrics`),
//! must reconcile **exactly** with the JSONL event stream of the same
//! run, with the simulator's `Stats`, and with the protection
//! toolchain's static story.

use std::collections::BTreeSet;

use flexprot::core::{protect, EncryptConfig, GuardConfig, Protected, ProtectionConfig};
use flexprot::sim::{Outcome, RunResult, SimConfig};
use flexprot::trace::json::{self, Value};
use flexprot::trace::{Metrics, Recorder, METRICS_SCHEMA};

/// A straight-line program: no branches, no calls, so every guard window
/// runs exactly once — `guard_checks_passed` must equal the static site
/// count recorded in the monitor configuration.
const STRAIGHT_LINE: &str = r#"
main:   li   $t0, 21
        add  $t1, $t0, $t0
        sub  $t2, $t1, $t0
        xor  $t3, $t1, $t2
        sll  $t4, $t3, 1
        or   $a0, $t4, $t3
        andi $a0, $a0, 0xFF
        li   $v0, 1
        syscall
        li   $v0, 10
        syscall
"#;

/// A loopy program: sites repeat, so total checks exceed distinct sites.
const LOOPY: &str = r#"
main:   li   $s0, 25
        li   $s1, 0
loop:   addu $s1, $s1, $s0
        addi $s0, $s0, -1
        bgtz $s0, loop
        move $a0, $s1
        li   $v0, 1
        syscall
        li   $v0, 10
        syscall
"#;

/// Counts a JSONL trace into a metrics registry, event kind by event
/// kind: what each event says happened, independently of the counters
/// the run kept.
fn metrics_from_trace(lines: &[String]) -> Metrics {
    let mut m = Metrics::new();
    let mut sites_passed = BTreeSet::new();
    for line in lines {
        let event = json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        let num = |key: &str| event.get(key).and_then(Value::as_u64).unwrap();
        let flag = |key: &str| matches!(event.get(key), Some(Value::Bool(true)));
        match event.get("ev").and_then(Value::as_str).unwrap() {
            "fetch" => {
                m.add("icache_accesses", 1);
                m.tally("icache_misses", u64::from(!flag("hit")));
            }
            "icache_fill" => {
                let (fill, stall) = (num("fill_cycles"), num("decrypt_cycles"));
                m.add("miss_fill_cycles", fill);
                m.add("decrypt_stall_cycles", stall);
                m.observe("icache_fill_cycles", fill);
                if stall > 0 {
                    m.observe("decrypt_stall_cycles", stall);
                }
            }
            "decrypt" => {
                m.add("decrypt_fills", 1);
                m.add("decrypted_words", num("encrypted_words"));
                m.add("decrypt_unit_cycles", num("cycles"));
            }
            "data_access" => {
                m.add("dcache_accesses", 1);
                m.tally("dcache_misses", u64::from(!flag("hit")));
                m.tally("dcache_writebacks", u64::from(flag("writeback")));
            }
            "commit" => m.add("instructions_committed", 1),
            "window_open" => m.add("guard_windows_opened", 1),
            "window_close" => m.add("guard_windows_closed", 1),
            "guard_pass" => {
                m.add("guard_checks_passed", 1);
                sites_passed.insert(
                    event
                        .get("site")
                        .and_then(Value::as_str)
                        .unwrap()
                        .to_owned(),
                );
                m.set("guard_sites_passed", sites_passed.len() as u64);
            }
            "guard_fail" => m.add("guard_checks_failed", 1),
            "spacing_tick" => m.add("spacing_ticks", 1),
            "spacing_exceeded" => m.add("spacing_exceeded", 1),
            "run_end" => {
                m.set("sim_cycles", num("cycles"));
                m.set("sim_instructions", num("instructions"));
                m.set("sim_icache_misses", num("icache_misses"));
                m.set("sim_dcache_misses", num("dcache_misses"));
                m.set("sim_monitor_fill_cycles", num("monitor_fill_cycles"));
            }
            other => panic!("unknown event kind {other}"),
        }
    }
    m
}

/// Runs `protected` twice, detached and with a JSONL capture attached.
/// Both runs must agree, and the document the detached run's machine
/// builds must equal the one counted from the trace, key for key.
fn reconciled_run(protected: &Protected) -> (RunResult, Metrics) {
    let mut detached = protected.machine(SimConfig::default());
    let run = detached.run();
    let metrics = detached.metrics();

    let (sink, recorder) = Recorder::with_trace().shared();
    let mut traced = protected.machine(SimConfig::default());
    traced.monitor_mut().attach_sink(sink.clone());
    traced.attach_sink(sink);
    assert_eq!(traced.run(), run, "a sink must not perturb the run");
    assert_eq!(traced.metrics(), metrics);

    let recorder = recorder.borrow();
    let lines = recorder.trace_lines();
    assert!(lines.last().unwrap().contains("\"ev\":\"run_end\""));
    assert_eq!(metrics_from_trace(lines).to_json(), metrics.to_json());
    (run, metrics)
}

fn guarded(src: &str) -> Protected {
    let image = flexprot::asm::assemble_or_panic(src);
    let config = ProtectionConfig::new().with_guards(GuardConfig::with_density(1.0));
    protect(&image, &config, None).unwrap()
}

#[test]
fn traced_run_reconciles_exactly_with_sim_result() {
    let image = flexprot::asm::assemble_or_panic(LOOPY);
    let config = ProtectionConfig::new()
        .with_guards(GuardConfig::with_density(1.0))
        .with_encryption(EncryptConfig::whole_program(0xD00D_1E55));
    let protected = protect(&image, &config, None).unwrap();
    let (r, m) = reconciled_run(&protected);
    assert_eq!(r.outcome, Outcome::Exit(0));

    // The counters equal the simulator's Stats, field by field.
    assert_eq!(m.counter("icache_accesses"), r.stats.icache_accesses);
    assert_eq!(m.counter("icache_misses"), r.stats.icache_misses);
    assert_eq!(m.counter("dcache_accesses"), r.stats.dcache_accesses);
    assert_eq!(m.counter("dcache_misses"), r.stats.dcache_misses);
    assert_eq!(m.counter("dcache_writebacks"), r.stats.dcache_writebacks);
    assert_eq!(m.counter("instructions_committed"), r.stats.instructions);
    assert_eq!(
        m.counter("decrypt_stall_cycles"),
        r.stats.monitor_fill_cycles
    );
    assert_eq!(m.counter("sim_cycles"), r.stats.cycles);
    assert_eq!(m.counter("sim_instructions"), r.stats.instructions);
    assert_eq!(m.counter("sim_icache_misses"), r.stats.icache_misses);
    assert_eq!(m.counter("sim_dcache_misses"), r.stats.dcache_misses);
    assert_eq!(
        m.counter("sim_monitor_fill_cycles"),
        r.stats.monitor_fill_cycles
    );
    // Histogram mass equals the counters it decomposes.
    let fills = m.histogram("icache_fill_cycles").unwrap();
    assert_eq!(fills.count(), r.stats.icache_misses);
    assert_eq!(fills.sum(), m.counter("miss_fill_cycles"));
    assert_eq!(
        m.histogram("decrypt_stall_cycles").unwrap().sum(),
        r.stats.monitor_fill_cycles
    );
    assert!(m.counter("decrypt_fills") > 0);
    // The JSON document round-trips with the stable schema tag.
    let value = json::parse(&m.to_json()).unwrap();
    assert_eq!(
        value.get("schema").and_then(Value::as_str),
        Some(METRICS_SCHEMA)
    );
}

#[test]
fn straight_line_clean_run_checks_every_site_exactly_once() {
    let protected = guarded(STRAIGHT_LINE);
    let static_sites = protected.secmon.sites.len() as u64;
    assert!(static_sites > 0, "density 1.0 must insert guards");

    let (r, m) = reconciled_run(&protected);
    assert_eq!(r.outcome, Outcome::Exit(0));
    assert_eq!(m.counter("guard_checks_passed"), static_sites);
    assert_eq!(m.counter("guard_sites_passed"), static_sites);
    assert_eq!(m.counter("guard_checks_failed"), 0);
    assert_eq!(m.counter("spacing_exceeded"), 0);
}

#[test]
fn loopy_clean_run_repeats_sites_but_never_fails() {
    let protected = guarded(LOOPY);
    let static_sites = protected.secmon.sites.len() as u64;

    let (r, m) = reconciled_run(&protected);
    assert_eq!(r.outcome, Outcome::Exit(0));
    // The loop body's guard runs 25 times: strictly more checks than sites.
    assert!(m.counter("guard_checks_passed") > static_sites);
    assert!(m.counter("guard_sites_passed") <= static_sites);
    assert_eq!(m.counter("guard_checks_failed"), 0);
    assert_eq!(
        m.counter("guard_windows_opened"),
        m.counter("guard_windows_closed")
    );
}

#[test]
fn tampered_non_halting_run_counts_every_failure() {
    // `li $s0, 25` becomes `li $s0, 24`: the first window's check fails
    // once, and a monitor that does not halt keeps counting.
    let mut protected = guarded(LOOPY);
    protected.secmon.halt_on_tamper = false;
    protected.image.text[0] ^= 1;
    let mut machine = protected.machine(SimConfig::default());
    machine.run();
    let failures = machine.monitor().tamper_log().len() as u64;
    assert!(failures > 0);

    let (r, m) = reconciled_run(&protected);
    assert_eq!(r.outcome, Outcome::Exit(0));
    assert_eq!(
        m.counter("guard_checks_failed") + m.counter("spacing_exceeded"),
        failures
    );
    assert!(m.counter("guard_checks_passed") > 0);
}
