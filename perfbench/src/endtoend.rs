//! What a user of the toolchain waits for, timed through the public API:
//! `protect()` latency per kernel, simulated instructions per host second
//! of a protected run, and attack-campaign trials per second.
//!
//! A round of each runs over every cell of the workload and returns the
//! time per unit of work; rounds of the three, and of a fresh set-up,
//! interleave for the whole run. Each metric is the median over rounds,
//! with every round scaled to the reference host (see
//! `report::interleave`).

use std::time::Duration;

use flexprot_attack::{evaluate, AttackSummary};
use flexprot_core::protect;
use flexprot_sim::Outcome;

use crate::fixture::{mix, setup, Cell, Spec, ATTACKS, TRIALS};
use crate::report::{interleave, timed, Metric, Phase, Tally};

pub fn measure(
    spec: &Spec,
    seed: u64,
    cells: &[Cell],
    run: Duration,
    tally: &mut Tally,
) -> Vec<Metric> {
    let setup_round = |_: usize, tally: &mut Tally| {
        let (built, dt) = timed(|| setup(spec, seed));
        tally.check(
            built.is_ok_and(|built| {
                built.iter().zip(cells).all(|(b, c)| {
                    b.image == c.image && b.expected == c.expected && b.protected == c.protected
                })
            }),
            || "set-up is not deterministic in the seed".into(),
        );
        vec![dt.as_secs_f64()]
    };

    let protect_round = |_: usize, tally: &mut Tally| {
        let mut spent = Duration::ZERO;
        for cell in cells {
            let (out, dt) = timed(|| protect(&cell.image, &cell.config, None));
            spent += dt;
            tally.check(matches!(&out, Ok(p) if *p == cell.protected), || {
                format!("{}: protect output changed", cell.kernel)
            });
        }
        vec![spent.as_secs_f64() / cells.len() as f64]
    };

    let sim_round = |_: usize, tally: &mut Tally| {
        let mut spent = Duration::ZERO;
        let mut instructions = 0;
        for cell in cells {
            let (r, dt) = timed(|| cell.protected.run(cell.sim.clone()));
            spent += dt;
            instructions += r.stats.instructions;
            tally.check(
                r.outcome == Outcome::Exit(0)
                    && r.output == cell.expected
                    && r.stats.instructions == cell.instructions,
                || format!("{}: protected run diverged", cell.kernel),
            );
        }
        vec![spent.as_secs_f64() / instructions as f64]
    };

    let mut first: Option<AttackSummary> = None;
    let attack_round = |round: usize, tally: &mut Tally| {
        let mut spent = Duration::ZERO;
        let mut trials = 0;
        for (k, cell) in cells.iter().enumerate() {
            for (a, &attack) in ATTACKS.iter().enumerate() {
                let s = campaign_seed(seed, round, k, a);
                let (summary, dt) = timed(|| {
                    evaluate(
                        &cell.protected,
                        &cell.expected,
                        attack,
                        TRIALS,
                        s,
                        &cell.attack_sim,
                    )
                });
                spent += dt;
                trials += TRIALS;
                tally.check(consistent(&summary, TRIALS), || {
                    format!(
                        "{}/{}: inconsistent attack tally",
                        cell.kernel,
                        attack.name()
                    )
                });
                if first.is_none() {
                    first = Some(summary);
                }
            }
        }
        vec![spent.as_secs_f64() / f64::from(trials)]
    };

    let mut phases = [
        Phase::new(0.05, setup_round),
        Phase::new(0.05, protect_round),
        Phase::new(0.1, sim_round),
        // Trials differ in cost (a caught mutation stops early, a benign
        // one runs to the end, a looping one to its fuel limit) and a
        // round is long, so this phase needs the most time.
        Phase::new(0.8, attack_round),
    ];
    interleave(run, 5, &mut phases, tally);
    let metrics = vec![
        Metric::real("protect_ms", phases[1].median(0) * 1e3, "ms"),
        Metric::real("sim_minst_s", 1e-6 / phases[2].median(0), "Minst/s"),
        Metric::real("attack_trials_s", 1.0 / phases[3].median(0), "1/s"),
        Metric::real("setup_s", phases[0].median(0), "s"),
    ];
    drop(phases);

    // Campaigns are deterministic in their seed: replay the first one.
    let cell = &cells[0];
    let replay = evaluate(
        &cell.protected,
        &cell.expected,
        ATTACKS[0],
        TRIALS,
        campaign_seed(seed, 0, 0, 0),
        &cell.attack_sim,
    );
    tally.check(first.as_ref() == Some(&replay), || {
        format!("{}: attack campaign is not deterministic", cell.kernel)
    });
    metrics
}

/// The RNG seed of one campaign: every round attacks with fresh mutations.
pub fn campaign_seed(seed: u64, round: usize, cell: usize, attack: usize) -> u64 {
    mix(
        seed ^ 0xA77A_C4ED,
        round as u64,
        (cell * 64 + attack) as u64,
    )
}

/// Every applied trial lands in exactly one outcome class.
fn consistent(s: &AttackSummary, trials: u32) -> bool {
    s.applied <= trials
        && s.applied == s.detected + s.faulted + s.wrong_output + s.benign + s.timeout
        && s.static_detected <= s.applied
}
