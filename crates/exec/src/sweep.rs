//! Job descriptions and the standard cell evaluators.

use std::sync::Arc;

use flexprot_attack::{campaign_sim, evaluate, Attack, AttackSummary};
use flexprot_core::{Protected, ProtectionConfig};
use flexprot_sim::{Outcome, RunResult, SimConfig};
use flexprot_workloads::Workload;

use crate::cache::Baseline;
use crate::engine::JobCtx;

/// One attack family to evaluate against a cell's protected binary.
#[derive(Debug, Clone)]
pub struct AttackSpec {
    /// The mutation family.
    pub attack: Attack,
    /// Randomized trials to run.
    pub trials: u32,
    /// RNG seed (each cell re-seeds, so cells are order-independent).
    pub seed: u64,
}

/// One cell of the evaluation grid: a workload under one protection
/// configuration and one simulator configuration, optionally attacked.
#[derive(Debug, Clone)]
pub struct Job {
    /// The kernel to run.
    pub workload: Workload,
    /// The protection layers to apply.
    pub config: ProtectionConfig,
    /// The simulated hardware.
    pub sim: SimConfig,
    /// Protect with the baseline profile collected under `sim`
    /// (profile-guided placement).
    pub use_profile: bool,
    /// Attack evaluation for this cell, if any.
    pub attack: Option<AttackSpec>,
}

impl Job {
    /// A cell with default simulator config, unprofiled, unattacked.
    pub fn new(workload: Workload, config: ProtectionConfig) -> Job {
        Job {
            workload,
            config,
            sim: SimConfig::default(),
            use_profile: false,
            attack: None,
        }
    }

    /// Replaces the simulator config.
    pub fn with_sim(mut self, sim: SimConfig) -> Job {
        self.sim = sim;
        self
    }

    /// Enables profile-guided protection.
    pub fn profiled(mut self) -> Job {
        self.use_profile = true;
        self
    }

    /// Attaches an attack evaluation.
    pub fn with_attack(mut self, attack: AttackSpec) -> Job {
        self.attack = Some(attack);
        self
    }
}

/// Everything a standard protected-run cell produced.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// The shared baseline artifacts for (workload, sim).
    pub baseline: Arc<Baseline>,
    /// The shared protected binary.
    pub protected: Arc<Protected>,
    /// The protected run.
    pub run: RunResult,
}

impl CellResult {
    /// Runtime overhead over the baseline, in percent.
    pub fn overhead_pct(&self) -> f64 {
        let base = self.baseline.run.stats.cycles as f64;
        (self.run.stats.cycles as f64 - base) / base * 100.0
    }
}

impl JobCtx<'_> {
    /// Runs a protected binary under `sim`, asserting semantic
    /// preservation, and merges the run's metrics
    /// ([`flexprot_sim::Machine::metrics`]) into this job's registry.
    ///
    /// # Panics
    ///
    /// Panics when the run does not exit cleanly with the workload's
    /// reference output — protection broke the program.
    pub fn run_protected(
        &mut self,
        workload: &Workload,
        protected: &Protected,
        sim: &SimConfig,
    ) -> RunResult {
        let mut machine = protected.machine(sim.clone());
        let run = machine.run();
        assert_eq!(
            run.outcome,
            Outcome::Exit(0),
            "{} failed under protection",
            workload.name
        );
        assert_eq!(
            run.output,
            workload.expected_output(),
            "{} output corrupted by protection",
            workload.name
        );
        self.merge_metrics(&machine.metrics());
        run
    }

    /// Evaluates one standard cell: cached baseline, cached protected
    /// build, one protected run with semantic assertions.
    ///
    /// # Panics
    ///
    /// Panics when protection fails to build or breaks the program.
    pub fn run_cell(&mut self, job: &Job) -> CellResult {
        let baseline = self.baseline(&job.workload, &job.sim);
        let protected = self
            .protected(job)
            .unwrap_or_else(|e| panic!("{}: protect failed: {e}", job.workload.name));
        let run = self.run_protected(&job.workload, &protected, &job.sim);
        CellResult {
            baseline,
            protected,
            run,
        }
    }

    /// Evaluates one attack cell: the job's attack family against its
    /// cached protected binary, with the campaign fuel rule
    /// ([`campaign_sim`]) applied to the cached baseline. Attack outcome
    /// counters land in this job's metrics.
    ///
    /// # Panics
    ///
    /// Panics when the job carries no [`AttackSpec`] or protection fails.
    pub fn attack_cell(&mut self, job: &Job) -> AttackSummary {
        let spec = job.attack.as_ref().expect("attack job needs an AttackSpec");
        let baseline = self.baseline(&job.workload, &job.sim);
        let protected = self
            .protected(job)
            .unwrap_or_else(|e| panic!("{}: protect failed: {e}", job.workload.name));
        let summary = evaluate(
            &protected,
            &job.workload.expected_output(),
            spec.attack,
            spec.trials,
            spec.seed,
            &campaign_sim(baseline.run.stats.instructions, &job.sim),
        );
        summary.export_metrics(self.metrics_mut());
        summary
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use flexprot_core::GuardConfig;

    fn guarded(density: f64) -> Job {
        let rle = flexprot_workloads::by_name("rle").expect("kernel");
        Job::new(
            rle,
            ProtectionConfig::new().with_guards(GuardConfig::with_density(density)),
        )
    }

    #[test]
    fn run_cell_shares_artifacts_across_cells() {
        let engine = Engine::new(2);
        let jobs = [guarded(0.25), guarded(1.0)];
        let cells = engine.run_jobs(&jobs, |ctx, job| ctx.run_cell(job));
        assert_eq!(cells.len(), 2);
        assert!(Arc::ptr_eq(&cells[0].baseline, &cells[1].baseline));
        assert!(cells[0].overhead_pct() >= 0.0);
        assert!(cells[1].run.stats.cycles >= cells[0].run.stats.cycles);
        let m = engine.metrics();
        assert!(m.counter("exec_cache_hits") > 0, "baseline must be shared");
        assert!(
            m.counter("instructions_committed") > 0,
            "run metrics merged"
        );
    }

    #[test]
    fn attack_cell_exports_outcome_counters() {
        let engine = Engine::new(1);
        let job = guarded(1.0).with_attack(AttackSpec {
            attack: Attack::BitFlip,
            trials: 4,
            seed: 7,
        });
        let summaries = engine.run_jobs(&[job], |ctx, job| ctx.attack_cell(job));
        assert_eq!(summaries.len(), 1);
        let m = engine.metrics();
        assert_eq!(
            m.counter("attack_trials_applied"),
            u64::from(summaries[0].applied)
        );
    }
}
