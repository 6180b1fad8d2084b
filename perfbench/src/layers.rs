//! The layers under the end-to-end numbers, each timed from the outside
//! around its public entry point:
//!
//! * `protect.*` — the pipeline's stages in the order `protect()` runs
//!   them: guard insertion, encryption, the verification self-check, and
//!   the two optional post-conditions, the key-flow analysis and
//!   translation validation. `protect()` runs the last two only where the
//!   recipe turns them on (`checked`); on the other workloads they read
//!   what turning them on would add;
//! * `verify.*` — one entry per verifier pass over the shipped image
//!   (flow, cfg+doms, liveness, coverage, memdom, absint, guardnet,
//!   taint, equiv), and `verify.checks_us`, the lint checks of
//!   `analyze()` (flow, guards, spacing, relocs, regions, coverage,
//!   network): the verifier's checks module is private, so this is the
//!   time of a whole `analyze()` minus the passes it shares with the list
//!   above;
//! * `sim.*` — host time per simulated instruction without the monitor
//!   (fetch, decode cache and execute only), with the secure monitor on a
//!   fresh machine, and on a re-armed machine that keeps its decoded
//!   lines (the attack harness's path), plus the modelled work counts;
//! * `attack.*` — each step of one trial, as `flexprot_attack::evaluate`
//!   runs it, and the per-campaign oracle build.
//!
//! Times are medians over rounds scaled to the reference host, as in
//! `endtoend`. Counts come from
//! round 0 and repeat exactly for a seed.

use std::time::Duration;

use flexprot_attack::{evaluate, static_detects, StaticOracle};
use flexprot_core::{encrypt_text, insert_guards};
use flexprot_isa::Rng64;
use flexprot_secmon::SecMon;
use flexprot_sim::{Machine, Outcome};
use flexprot_trace::Recorder;
use flexprot_verify::{
    absint, analyze, analyze_with_options, coverage, decrypt_text, domtree, equiv, guardnet,
    liveness, memdom, taint, Cfg, EquivVerdict, Flow, LintPolicy, Severity,
};

use crate::endtoend::campaign_seed;
use crate::fixture::{Cell, ATTACKS, TRIALS};
use crate::report::{interleave, timed, Metric, Phase, Tally};

// Rounds return seconds; each metric is reported in its own unit.
const US: f64 = 1e6;
const NS: f64 = 1e9;

const PROTECT: [(&str, &str, f64); 5] = [
    ("protect.guards_us", "us", US),
    ("protect.encrypt_us", "us", US),
    ("protect.verify_us", "us", US),
    ("protect.key_flow_us", "us", US),
    ("protect.equiv_us", "us", US),
];

const VERIFY: [(&str, &str, f64); 10] = [
    ("verify.flow_us", "us", US),
    ("verify.cfg_us", "us", US),
    ("verify.liveness_us", "us", US),
    ("verify.coverage_us", "us", US),
    ("verify.memdom_us", "us", US),
    ("verify.absint_us", "us", US),
    ("verify.guardnet_us", "us", US),
    ("verify.taint_us", "us", US),
    ("verify.equiv_us", "us", US),
    ("verify.checks_us", "us", US),
];

const SIM: [(&str, &str, f64); 3] = [
    ("sim.bare_ns_inst", "ns/inst", NS),
    ("sim.monitor_ns_inst", "ns/inst", NS),
    ("sim.rearm_ns_inst", "ns/inst", NS),
];

const ATTACK: [(&str, &str, f64); 5] = [
    ("attack.oracle_build_us", "us", US),
    ("attack.mutate_us", "us", US),
    ("attack.static_us", "us", US),
    ("attack.predict_us", "us", US),
    ("attack.run_us", "us", US),
];

/// Modelled simulator work of one round over every cell.
#[derive(Default, PartialEq)]
struct SimCounts {
    instructions: u64,
    icache_misses: u64,
    monitor_fill_cycles: u64,
    guard_checks: u64,
}

/// Attack-trial outcomes of one round over every cell.
#[derive(Default)]
struct AttackCounts {
    applied: u32,
    static_flagged: u32,
    caught: u32,
}

pub fn measure(seed: u64, cells: &[Cell], run: Duration, tally: &mut Tally) -> Vec<Metric> {
    let n = cells.len() as f64;

    let protect_round = |_: usize, tally: &mut Tally| {
        let mut spent = [Duration::ZERO; PROTECT.len()];
        for cell in cells {
            let shipped = &cell.protected;
            let (guarded, d0) = timed(|| insert_guards(&cell.image, cell.guard_config(), None));
            let Ok(guarded) = guarded else {
                tally.check(false, || format!("{}: guard insertion failed", cell.kernel));
                continue;
            };
            let (encrypted, d1) = timed(|| encrypt_text(&guarded.image, cell.encrypt_config()));
            let (report, d2) = timed(|| flexprot_verify::verify(&shipped.image, &shipped.secmon));
            // The key-flow post-condition, as `protect()` runs it.
            let (key_flow, d3) = timed(|| {
                analyze_with_options(
                    &shipped.image,
                    &shipped.secmon,
                    &LintPolicy::default(),
                    true,
                )
            });
            let (equiv, d4) = timed(|| shipped.validate_against(&cell.image));
            for (slot, d) in spent.iter_mut().zip([d0, d1, d2, d3, d4]) {
                *slot += d;
            }
            let leaks = key_flow
                .report
                .findings
                .iter()
                .any(|f| f.severity == Severity::Error && (f.id == "FP901" || f.id == "FP902"));
            tally.check(
                encrypted.is_ok_and(|e| e.image == shipped.image)
                    && report.is_clean()
                    && (!cell.config.key_flow_check || !leaks)
                    && (!cell.config.validate_translation
                        || matches!(equiv.verdict, EquivVerdict::Proven)),
                || format!("{}: staged protect disagrees with protect()", cell.kernel),
            );
        }
        spent.iter().map(|d| d.as_secs_f64() / n).collect()
    };

    // Translation validation once, untimed, to check the timed pass.
    let validated: Vec<equiv::EquivReport> = cells
        .iter()
        .map(|c| c.protected.validate_against(&c.image))
        .collect();
    let verify_round = |_: usize, tally: &mut Tally| {
        let mut spent = [Duration::ZERO; VERIFY.len()];
        for (cell, eq) in cells.iter().zip(&validated) {
            let image = &cell.protected.image;
            let config = &cell.protected.secmon;
            // The whole analysis: its results check the passes timed one
            // by one, and its structural guard windows feed the coverage
            // pass, since the guard check that finds them is private.
            let (v, whole) = timed(|| analyze(image, config, &LintPolicy::default()));
            let ((text, flow), d0) = timed(|| {
                let text = decrypt_text(image, config);
                let flow = Flow::recover(image, &text);
                (text, flow)
            });
            let ((cfg, doms), d1) = timed(|| {
                let cfg = Cfg::build(image, &flow);
                let doms = cfg.entry.map(|e| domtree::dominators(e, &cfg.succs));
                (cfg, doms)
            });
            let (_, d2) = timed(|| liveness::analyze(&flow));
            let ((cov, surface), d3) = timed(|| {
                let cov = coverage::analyze(&flow, &cfg, doms.as_ref(), v.coverage.windows.clone());
                let surface = coverage::surface_map(image, config, &flow, &cfg, &cov);
                (cov, surface)
            });
            let (mem, d4) = timed(|| memdom::analyze_memory(image, &flow));
            let (proofs, d5) =
                timed(|| absint::prove_guards(image, config, &text, &flow, &mem, &cov.windows));
            let (net, d6) = timed(|| guardnet::build(&cov.windows));
            let (_, d7) = timed(|| taint::analyze_taint(image, config, &flow, &mem));
            let (report, d8) = timed(|| equiv::validate(&cell.image, image, config));
            // `analyze()` runs every pass above but taint and equiv, plus
            // the lint checks.
            let shared = d0 + d1 + d2 + d3 + d4 + d5 + d6;
            let checks = whole.saturating_sub(shared);
            for (slot, d) in spent
                .iter_mut()
                .zip([d0, d1, d2, d3, d4, d5, d6, d7, d8, checks])
            {
                *slot += d;
            }
            tally.check(
                surface.surface_words() == v.surface.surface_words()
                    && proofs == v.proofs
                    && net.edges == v.guardnet.edges
                    && report == *eq,
                || format!("{}: a verifier pass disagrees with analyze()", cell.kernel),
            );
        }
        spent.iter().map(|d| d.as_secs_f64() / n).collect()
    };

    let mut reused: Vec<Machine<SecMon>> = cells
        .iter()
        .map(|c| c.protected.machine(c.sim.clone()))
        .collect();
    let mut sim_counts: Option<SimCounts> = None;
    let sim_round = |_: usize, tally: &mut Tally| {
        let mut spent = [Duration::ZERO; SIM.len()];
        let mut bare_instructions = 0;
        let mut counts = SimCounts::default();
        for (cell, machine) in cells.iter().zip(&mut reused) {
            let mut bare = Machine::new(&cell.image, cell.sim.clone());
            let (b, d0) = timed(|| bare.run());
            let mut fresh = cell.protected.machine(cell.sim.clone());
            let (p, d1) = timed(|| fresh.run());
            cell.protected.rearm(machine);
            let (r, d2) = timed(|| machine.run());
            for (slot, d) in spent.iter_mut().zip([d0, d1, d2]) {
                *slot += d;
            }
            bare_instructions += b.stats.instructions;
            counts.instructions += p.stats.instructions;
            counts.icache_misses += p.stats.icache_misses;
            counts.monitor_fill_cycles += p.stats.monitor_fill_cycles;
            counts.guard_checks += fresh.monitor().checks_passed();
            tally.check(
                b.output == cell.expected
                    && p.outcome == Outcome::Exit(0)
                    && p.output == cell.expected
                    && r == p,
                || format!("{}: simulator runs disagree", cell.kernel),
            );
        }
        let per = |d: Duration, instructions: u64| d.as_secs_f64() / instructions as f64;
        let row = vec![
            per(spent[0], bare_instructions),
            per(spent[1], counts.instructions),
            per(spent[2], counts.instructions),
        ];
        match &sim_counts {
            None => sim_counts = Some(counts),
            Some(first) => tally.check(*first == counts, || {
                "simulator counts changed between rounds".into()
            }),
        }
        row
    };

    let mut attack_counts: Option<AttackCounts> = None;
    let attack_round = |round: usize, tally: &mut Tally| {
        // Per campaign the oracle build; per trial clone+mutate, static
        // verdict, oracle prediction and the attacked run.
        let mut spent = [Duration::ZERO; ATTACK.len()];
        let (mut campaigns, mut trials) = (0u32, 0u32);
        let mut counts = AttackCounts::default();
        for (k, cell) in cells.iter().enumerate() {
            let p = &cell.protected;
            for (a, &attack) in ATTACKS.iter().enumerate() {
                let s = campaign_seed(seed, round, k, a);
                let (oracle, d) = timed(|| StaticOracle::new(&p.image, &p.secmon));
                spent[0] += d;
                campaigns += 1;
                let mut rng = Rng64::new(s);
                let mut machine: Option<Machine<SecMon>> = None;
                let mut campaign = AttackCounts::default();
                for _ in 0..TRIALS {
                    trials += 1;
                    let ((mutated, hit), d) = timed(|| {
                        let mut mutated = p.clone();
                        let hit = attack.apply(&mut mutated.image, &mut rng);
                        (mutated, hit)
                    });
                    spent[1] += d;
                    if !hit {
                        continue;
                    }
                    let (flagged, d) = timed(|| static_detects(&mutated.image, &mutated.secmon));
                    spent[2] += d;
                    let (_, d) = timed(|| oracle.predicts(&p.image, &mutated.image));
                    spent[3] += d;
                    let (result, d) = timed(|| {
                        let m = match machine.as_mut() {
                            Some(m) => {
                                mutated.rearm(m);
                                m
                            }
                            None => machine.insert(mutated.machine(cell.attack_sim.clone())),
                        };
                        let (sink, _recorder) = Recorder::new().shared();
                        m.monitor_mut().attach_sink(sink.clone());
                        m.attach_sink(sink);
                        m.run()
                    });
                    spent[4] += d;
                    campaign.applied += 1;
                    campaign.static_flagged += u32::from(flagged);
                    campaign.caught += u32::from(matches!(
                        result.outcome,
                        Outcome::TamperDetected(_) | Outcome::Fault(_)
                    ));
                }
                if round == 0 {
                    let reference =
                        evaluate(p, &cell.expected, attack, TRIALS, s, &cell.attack_sim);
                    tally.check(
                        reference.applied == campaign.applied
                            && reference.static_detected == campaign.static_flagged
                            && reference.detected + reference.faulted == campaign.caught,
                        || {
                            format!(
                                "{}/{}: staged trials disagree with evaluate()",
                                cell.kernel,
                                attack.name()
                            )
                        },
                    );
                }
                counts.applied += campaign.applied;
                counts.static_flagged += campaign.static_flagged;
                counts.caught += campaign.caught;
            }
        }
        let per = |d: Duration, n: u32| d.as_secs_f64() / f64::from(n.max(1));
        let row = vec![
            per(spent[0], campaigns),
            per(spent[1], trials),
            per(spent[2], counts.applied),
            per(spent[3], counts.applied),
            per(spent[4], counts.applied),
        ];
        if round == 0 {
            attack_counts = Some(counts);
        }
        row
    };

    let mut phases = [
        Phase::new(0.2, protect_round),
        Phase::new(0.25, verify_round),
        Phase::new(0.25, sim_round),
        Phase::new(0.3, attack_round),
    ];
    interleave(run, 5, &mut phases, tally);
    let mut out = Vec::new();
    for (phase, names) in phases.iter().zip([&PROTECT[..], &VERIFY, &SIM, &ATTACK]) {
        for (i, &(name, unit, scale)) in names.iter().enumerate() {
            out.push(Metric::real(name, phase.median(i) * scale, unit));
        }
    }
    drop(phases);

    let sim = sim_counts.expect("the simulator phase ran");
    let attack = attack_counts.expect("the attack phase ran");
    out.extend([
        Metric::count("sim.instructions", sim.instructions, "count"),
        Metric::count("sim.icache_misses", sim.icache_misses, "count"),
        Metric::count("sim.monitor_fill_cycles", sim.monitor_fill_cycles, "cycles"),
        Metric::count("sim.guard_checks", sim.guard_checks, "count"),
        Metric::count("attack.applied", u64::from(attack.applied), "count"),
        Metric::count(
            "attack.static_flagged",
            u64::from(attack.static_flagged),
            "count",
        ),
        Metric::count("attack.caught", u64::from(attack.caught), "count"),
    ]);
    out
}
