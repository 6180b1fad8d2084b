//! Cross-crate integration: the observability layer's metrics must
//! reconcile **exactly** with the simulator's own accounting, and guard
//! counters must match the protection toolchain's static story.

use flexprot::core::{protect, EncryptConfig, GuardConfig, ProtectionConfig};
use flexprot::sim::{Outcome, SimConfig};
use flexprot::trace::{Recorder, METRICS_SCHEMA};

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

#[test]
fn traced_run_reconciles_exactly_with_sim_result() {
    let image = flexprot::asm::assemble_or_panic(LOOPY);
    let config = ProtectionConfig::new()
        .with_guards(GuardConfig::with_density(1.0))
        .with_encryption(EncryptConfig::whole_program(0xD00D_1E55));
    let protected = protect(&image, &config, None).unwrap();
    let (sink, recorder) = Recorder::new().shared();
    let r = protected.run_traced(SimConfig::default(), &sink);
    assert_eq!(r.outcome, Outcome::Exit(0));

    let recorder = recorder.borrow();
    let m = recorder.metrics();
    // Event-derived counters equal the simulator's Stats, field by field.
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
    // The RunEnd reconciliation record carries the authoritative stats.
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
    assert_eq!(
        m.histogram("decrypt_stall_cycles").unwrap().sum(),
        r.stats.monitor_fill_cycles
    );
    // The JSON document round-trips with the stable schema tag.
    let doc = m.to_json();
    let value = flexprot::trace::json::parse(&doc).unwrap();
    assert_eq!(
        value
            .get("schema")
            .and_then(flexprot::trace::json::Value::as_str),
        Some(METRICS_SCHEMA)
    );
}

#[test]
fn straight_line_clean_run_checks_every_site_exactly_once() {
    let image = flexprot::asm::assemble_or_panic(STRAIGHT_LINE);
    let config = ProtectionConfig::new().with_guards(GuardConfig::with_density(1.0));
    let protected = protect(&image, &config, None).unwrap();
    let static_sites = protected.secmon.sites.len() as u64;
    assert!(static_sites > 0, "density 1.0 must insert guards");

    let (sink, recorder) = Recorder::new().shared();
    let r = protected.run_traced(SimConfig::default(), &sink);
    assert_eq!(r.outcome, Outcome::Exit(0));

    let recorder = recorder.borrow();
    let m = recorder.metrics();
    assert_eq!(m.counter("guard_checks_passed"), static_sites);
    assert_eq!(m.counter("guard_sites_passed"), static_sites);
    assert_eq!(recorder.distinct_sites_passed() as u64, static_sites);
    assert_eq!(m.counter("guard_checks_failed"), 0);
    assert_eq!(m.counter("spacing_exceeded"), 0);
}

#[test]
fn loopy_clean_run_repeats_sites_but_never_fails() {
    let image = flexprot::asm::assemble_or_panic(LOOPY);
    let config = ProtectionConfig::new().with_guards(GuardConfig::with_density(1.0));
    let protected = protect(&image, &config, None).unwrap();
    let static_sites = protected.secmon.sites.len() as u64;

    let (sink, recorder) = Recorder::new().shared();
    let r = protected.run_traced(SimConfig::default(), &sink);
    assert_eq!(r.outcome, Outcome::Exit(0));

    let recorder = recorder.borrow();
    let m = recorder.metrics();
    // The loop body's guard runs 25 times: strictly more checks than sites.
    assert!(m.counter("guard_checks_passed") > static_sites);
    assert!(m.counter("guard_sites_passed") <= static_sites);
    assert_eq!(m.counter("guard_checks_failed"), 0);
    assert_eq!(
        m.counter("guard_windows_opened"),
        m.counter("guard_windows_closed")
    );
}
