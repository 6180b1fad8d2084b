//! Job descriptions, the sweep-grid builder, and the standard cell
//! evaluators.

use std::sync::Arc;

use flexprot_attack::{campaign_sim, evaluate, Attack, AttackSummary};
use flexprot_core::{Protected, ProtectionConfig};
use flexprot_sim::{Outcome, RunResult, SimConfig};
use flexprot_trace::Recorder;
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
    /// Display tag for the protection config axis value.
    pub config_tag: String,
    /// The protection layers to apply.
    pub config: ProtectionConfig,
    /// Display tag for the simulator config axis value.
    pub sim_tag: String,
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
            config_tag: String::new(),
            config,
            sim_tag: String::new(),
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

/// Builder that expands axes into a job grid.
///
/// Expansion order is fixed — workload-major, then config, then sim, then
/// attack — so a grid's job list (and therefore the engine's result order)
/// is deterministic. Empty axes default to a single identity value
/// (unprotected config, default sim, no attack).
#[derive(Debug, Clone, Default)]
pub struct SweepSpec {
    workloads: Vec<Workload>,
    configs: Vec<(String, ProtectionConfig)>,
    sims: Vec<(String, SimConfig)>,
    attacks: Vec<AttackSpec>,
    use_profile: bool,
}

impl SweepSpec {
    /// An empty spec (expands to no jobs until workloads are added).
    pub fn new() -> SweepSpec {
        SweepSpec::default()
    }

    /// Adds workloads to the workload axis.
    pub fn workloads(mut self, workloads: impl IntoIterator<Item = Workload>) -> SweepSpec {
        self.workloads.extend(workloads);
        self
    }

    /// Adds one tagged value to the protection-config axis.
    pub fn config(mut self, tag: impl Into<String>, config: ProtectionConfig) -> SweepSpec {
        self.configs.push((tag.into(), config));
        self
    }

    /// Adds tagged values to the protection-config axis.
    pub fn configs(
        mut self,
        configs: impl IntoIterator<Item = (String, ProtectionConfig)>,
    ) -> SweepSpec {
        self.configs.extend(configs);
        self
    }

    /// Adds one tagged value to the simulator-config axis.
    pub fn sim(mut self, tag: impl Into<String>, sim: SimConfig) -> SweepSpec {
        self.sims.push((tag.into(), sim));
        self
    }

    /// Adds one attack to the attack axis.
    pub fn attack(mut self, spec: AttackSpec) -> SweepSpec {
        self.attacks.push(spec);
        self
    }

    /// Protect every cell with its baseline profile (collected under the
    /// cell's sim config).
    pub fn profiled(mut self) -> SweepSpec {
        self.use_profile = true;
        self
    }

    /// Expands the axes into the job grid, workload-major.
    pub fn jobs(&self) -> Vec<Job> {
        let default_configs = [("none".to_owned(), ProtectionConfig::new())];
        let default_sims = [("default".to_owned(), SimConfig::default())];
        let configs: &[(String, ProtectionConfig)] = if self.configs.is_empty() {
            &default_configs
        } else {
            &self.configs
        };
        let sims: &[(String, SimConfig)] = if self.sims.is_empty() {
            &default_sims
        } else {
            &self.sims
        };
        let mut jobs = Vec::new();
        for workload in &self.workloads {
            for (config_tag, config) in configs {
                for (sim_tag, sim) in sims {
                    let base = Job {
                        workload: *workload,
                        config_tag: config_tag.clone(),
                        config: config.clone(),
                        sim_tag: sim_tag.clone(),
                        sim: sim.clone(),
                        use_profile: self.use_profile,
                        attack: None,
                    };
                    if self.attacks.is_empty() {
                        jobs.push(base);
                    } else {
                        for spec in &self.attacks {
                            jobs.push(Job {
                                attack: Some(spec.clone()),
                                ..base.clone()
                            });
                        }
                    }
                }
            }
        }
        jobs
    }
}

/// Cycle components of one run, read from the trace histograms: the pure
/// memory miss path versus the stall attributable to the decrypt unit.
#[derive(Debug, Clone, Copy)]
pub struct CycleBreakdown {
    /// Cycles spent on I-cache line fills (memory latency + burst), before
    /// any monitor penalty.
    pub miss_fill_cycles: u64,
    /// Extra fill cycles charged by the secure monitor's decrypt unit.
    pub decrypt_stall_cycles: u64,
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
    /// Trace-derived cycle split of the protected run.
    pub breakdown: CycleBreakdown,
}

impl CellResult {
    /// Runtime overhead over the baseline, in percent.
    pub fn overhead_pct(&self) -> f64 {
        let base = self.baseline.run.stats.cycles as f64;
        (self.run.stats.cycles as f64 - base) / base * 100.0
    }
}

impl JobCtx<'_> {
    /// Runs a protected binary under `sim` with a recorder attached,
    /// asserting semantic preservation, and merges the run's metrics into
    /// this job's registry.
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
    ) -> (RunResult, CycleBreakdown) {
        let (sink, recorder) = Recorder::new().shared();
        let run = protected.run_traced(sim.clone(), &sink);
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
        let recorder = recorder.borrow();
        let metrics = recorder.metrics();
        let breakdown = CycleBreakdown {
            miss_fill_cycles: metrics
                .histogram("icache_fill_cycles")
                .map_or(0, |h| h.sum()),
            decrypt_stall_cycles: metrics
                .histogram("decrypt_stall_cycles")
                .map_or(0, |h| h.sum()),
        };
        self.merge_metrics(metrics);
        (run, breakdown)
    }

    /// Evaluates one standard cell: cached baseline, cached protected
    /// build, one traced protected run with semantic assertions.
    ///
    /// # Panics
    ///
    /// Panics when protection fails to build or breaks the program.
    pub fn run_cell(&mut self, job: &Job) -> CellResult {
        let baseline = self.baseline(&job.workload, &job.sim);
        let protected = self
            .protected(job)
            .unwrap_or_else(|e| panic!("{}: protect failed: {e}", job.workload.name));
        let (run, breakdown) = self.run_protected(&job.workload, &protected, &job.sim);
        CellResult {
            baseline,
            protected,
            run,
            breakdown,
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

    fn kernels(names: &[&str]) -> Vec<Workload> {
        names
            .iter()
            .map(|n| flexprot_workloads::by_name(n).expect("kernel"))
            .collect()
    }

    #[test]
    fn grid_expands_workload_major_with_defaults() {
        let spec = SweepSpec::new()
            .workloads(kernels(&["rle", "qsort"]))
            .config("a", ProtectionConfig::new())
            .config(
                "b",
                ProtectionConfig::new().with_guards(GuardConfig::with_density(0.5)),
            );
        let jobs = spec.jobs();
        let tags: Vec<(&str, &str)> = jobs
            .iter()
            .map(|j| (j.workload.name, j.config_tag.as_str()))
            .collect();
        assert_eq!(
            tags,
            vec![("rle", "a"), ("rle", "b"), ("qsort", "a"), ("qsort", "b")]
        );
        assert!(jobs
            .iter()
            .all(|j| j.sim_tag == "default" && j.attack.is_none()));
    }

    #[test]
    fn empty_config_axis_defaults_to_unprotected() {
        let jobs = SweepSpec::new().workloads(kernels(&["rle"])).jobs();
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].config_tag, "none");
        assert_eq!(jobs[0].config, ProtectionConfig::new());
    }

    #[test]
    fn attack_axis_multiplies_cells() {
        let spec = SweepSpec::new()
            .workloads(kernels(&["rle"]))
            .attack(AttackSpec {
                attack: Attack::BitFlip,
                trials: 2,
                seed: 1,
            })
            .attack(AttackSpec {
                attack: Attack::NopOut,
                trials: 2,
                seed: 1,
            });
        assert_eq!(spec.jobs().len(), 2);
    }

    #[test]
    fn run_cell_shares_artifacts_across_cells() {
        let engine = Engine::new(2);
        let spec = SweepSpec::new()
            .workloads(kernels(&["rle"]))
            .config(
                "d=0.25",
                ProtectionConfig::new().with_guards(GuardConfig::with_density(0.25)),
            )
            .config(
                "d=1.0",
                ProtectionConfig::new().with_guards(GuardConfig::with_density(1.0)),
            );
        let cells = engine.run_jobs(&spec.jobs(), |ctx, job| ctx.run_cell(job));
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
        let spec = SweepSpec::new()
            .workloads(kernels(&["rle"]))
            .config(
                "guards",
                ProtectionConfig::new().with_guards(GuardConfig::with_density(1.0)),
            )
            .attack(AttackSpec {
                attack: Attack::BitFlip,
                trials: 4,
                seed: 7,
            });
        let summaries = engine.run_jobs(&spec.jobs(), |ctx, job| ctx.attack_cell(job));
        assert_eq!(summaries.len(), 1);
        let m = engine.metrics();
        assert_eq!(
            m.counter("attack_trials_applied"),
            u64::from(summaries[0].applied)
        );
    }
}
