//! The profile-guided budget optimizer — the "flexible" in flexible
//! protection.
//!
//! Given an overhead budget (a fraction of baseline cycles), the optimizer
//! chooses a per-function protection level — guard density plus optional
//! encryption — that maximizes *coverage* (protected instructions) without
//! exceeding the budget. It is a greedy marginal-benefit knapsack: each
//! candidate upgrade is scored by protection value per estimated cycle, and
//! upgrades are applied best-first while they fit.
//!
//! Experiment F4 sweeps the budget to trace the protection/performance
//! Pareto frontier this produces.

use std::collections::{BTreeMap, BTreeSet};

use flexprot_secmon::decrypt::DecryptModel;

use crate::cfg::Cfg;
use crate::estimate;
use crate::place::{self, Placement};
use crate::profile::Profile;

/// Chosen protection level for one function.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FunctionPlan {
    /// Guard density in `[0, 1]`.
    pub guard_density: f64,
    /// Whether the function's text is encrypted.
    pub encrypt: bool,
}

/// A budgeted protection plan.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Plan {
    /// Per-function levels, keyed by symbol name.
    pub functions: BTreeMap<String, FunctionPlan>,
    /// Estimated extra cycles of the whole plan.
    pub est_extra_cycles: u64,
    /// Coverage score in `[0, 1]` (see [`coverage`]).
    pub coverage: f64,
}

/// Optimizer parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizerConfig {
    /// Allowed extra cycles as a fraction of baseline cycles (e.g. `0.10`).
    pub budget_fraction: f64,
    /// Guard-density steps offered per function, ascending.
    pub density_levels: Vec<f64>,
    /// Decrypt model used for encryption-cost estimation.
    pub decrypt_model: DecryptModel,
    /// I-cache line words (for fill penalties).
    pub line_words: u32,
    /// Placement policy assumed when estimating guard cost.
    pub placement: Placement,
    /// Selection seed (must match the one used to apply the plan).
    pub seed: u64,
}

impl Default for OptimizerConfig {
    fn default() -> OptimizerConfig {
        OptimizerConfig {
            budget_fraction: 0.10,
            density_levels: vec![0.25, 0.5, 1.0],
            decrypt_model: DecryptModel::baseline(),
            line_words: 8,
            placement: Placement::ColdestFirst,
            seed: 1,
        }
    }
}

/// Coverage of a plan: mean of guard coverage and encryption coverage,
/// weighted by static instruction counts.
pub fn coverage(plan: &Plan, cfg: &Cfg) -> f64 {
    let mut total = 0usize;
    let mut guarded = 0.0f64;
    let mut encrypted = 0usize;
    for func in &cfg.functions {
        let instrs: usize = func.blocks.iter().map(|&b| cfg.blocks[b].len).sum();
        total += instrs;
        if let Some(fp) = func.name.as_deref().and_then(|n| plan.functions.get(n)) {
            guarded += fp.guard_density * instrs as f64;
            if fp.encrypt {
                encrypted += instrs;
            }
        }
    }
    if total == 0 {
        0.0
    } else {
        (guarded / total as f64 + encrypted as f64 / total as f64) / 2.0
    }
}

#[derive(Debug, Clone)]
struct Upgrade {
    function: String,
    /// New density level index (None = encryption upgrade).
    to_level: Option<usize>,
    cost: u64,
    value: f64,
}

/// Runs the optimizer.
///
/// Functions without symbol names are skipped (a plan is expressed by
/// name). The returned plan's `est_extra_cycles` respects
/// `budget_fraction × profile.cycles`.
pub fn optimize(cfg: &Cfg, profile: &Profile, config: &OptimizerConfig) -> Plan {
    let budget = (profile.cycles as f64 * config.budget_fraction) as u64;
    let mut plan = Plan::default();
    let mut spent = 0u64;

    // Precompute per-function guard cost at each level and encryption cost.
    struct FuncInfo {
        name: String,
        guard_cost: Vec<u64>, // per level
        enc_cost: u64,
        instrs: usize,
    }
    let mut infos: Vec<FuncInfo> = Vec::new();
    for (fi, func) in cfg.functions.iter().enumerate() {
        let Some(name) = func.name.clone() else {
            continue;
        };
        let instrs: usize = func.blocks.iter().map(|&b| cfg.blocks[b].len).sum();
        if instrs == 0 {
            continue;
        }
        let guard_cost: Vec<u64> = config
            .density_levels
            .iter()
            .map(|&density| {
                let selected: BTreeSet<usize> = place::select_in(
                    cfg,
                    &func.blocks,
                    density,
                    config.placement,
                    Some(profile),
                    config.seed ^ fi as u64,
                );
                estimate::guard_extra_cycles(cfg, &selected, profile)
            })
            .collect();
        let enc_cost = estimate::decrypt_extra_cycles(
            profile,
            &[(func.entry, func.end)],
            config.decrypt_model,
            config.line_words,
        );
        infos.push(FuncInfo {
            name,
            guard_cost,
            enc_cost,
            instrs,
        });
    }

    // Greedy: repeatedly apply the best-ratio upgrade that fits.
    let mut level: BTreeMap<String, Option<usize>> = BTreeMap::new();
    let mut enc: BTreeMap<String, bool> = BTreeMap::new();
    loop {
        let mut best: Option<Upgrade> = None;
        for info in &infos {
            let cur = level.get(&info.name).copied().flatten();
            let next = match cur {
                None => Some(0),
                Some(i) if i + 1 < config.density_levels.len() => Some(i + 1),
                Some(_) => None,
            };
            if let Some(next) = next {
                let prev_cost = cur.map_or(0, |i| info.guard_cost[i]);
                let prev_density = cur.map_or(0.0, |i| config.density_levels[i]);
                let cost = info.guard_cost[next].saturating_sub(prev_cost);
                let value = (config.density_levels[next] - prev_density) * info.instrs as f64;
                if spent + cost <= budget {
                    let ratio = value / (cost.max(1)) as f64;
                    if best
                        .as_ref()
                        .is_none_or(|b| ratio > b.value / (b.cost.max(1)) as f64)
                    {
                        best = Some(Upgrade {
                            function: info.name.clone(),
                            to_level: Some(next),
                            cost,
                            value,
                        });
                    }
                }
            }
            if !enc.get(&info.name).copied().unwrap_or(false) {
                let cost = info.enc_cost;
                let value = info.instrs as f64;
                if spent + cost <= budget {
                    let ratio = value / (cost.max(1)) as f64;
                    if best
                        .as_ref()
                        .is_none_or(|b| ratio > b.value / (b.cost.max(1)) as f64)
                    {
                        best = Some(Upgrade {
                            function: info.name.clone(),
                            to_level: None,
                            cost,
                            value,
                        });
                    }
                }
            }
        }
        let Some(upgrade) = best else { break };
        spent += upgrade.cost;
        match upgrade.to_level {
            Some(l) => {
                level.insert(upgrade.function, Some(l));
            }
            None => {
                enc.insert(upgrade.function, true);
            }
        }
    }

    for info in &infos {
        let density = level
            .get(&info.name)
            .copied()
            .flatten()
            .map_or(0.0, |i| config.density_levels[i]);
        let encrypt = enc.get(&info.name).copied().unwrap_or(false);
        if density > 0.0 || encrypt {
            plan.functions.insert(
                info.name.clone(),
                FunctionPlan {
                    guard_density: density,
                    encrypt,
                },
            );
        }
    }
    plan.est_extra_cycles = spent;
    plan.coverage = coverage(&plan, cfg);
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexprot_sim::SimConfig;

    fn sample() -> (Cfg, Profile) {
        // A hot loop in `hot`, a cold helper `cold`.
        let image = flexprot_asm::assemble_or_panic(
            r#"
main:   jal  hot
        jal  cold
        li   $v0, 10
        syscall
hot:    li   $t0, 2000
hloop:  addi $t0, $t0, -1
        bgtz $t0, hloop
        jr   $ra
cold:   li   $t1, 1
        addu $t1, $t1, $t1
        jr   $ra
"#,
        );
        let cfg = Cfg::recover(&image).unwrap();
        let profile = Profile::collect_clean(&image, &SimConfig::default());
        (cfg, profile)
    }

    #[test]
    fn zero_budget_yields_empty_plan() {
        let (cfg, profile) = sample();
        let config = OptimizerConfig {
            budget_fraction: 0.0,
            ..OptimizerConfig::default()
        };
        let plan = optimize(&cfg, &profile, &config);
        // Everything costs at least a few cycles; nothing fits in zero.
        assert_eq!(plan.est_extra_cycles, 0);
        assert!(plan.functions.values().all(|f| f.guard_density == 0.0));
    }

    #[test]
    fn generous_budget_protects_everything() {
        let (cfg, profile) = sample();
        let config = OptimizerConfig {
            budget_fraction: 10.0,
            ..OptimizerConfig::default()
        };
        let plan = optimize(&cfg, &profile, &config);
        for name in ["main", "hot", "cold"] {
            let fp = plan
                .functions
                .get(name)
                .unwrap_or_else(|| panic!("function {name} missing from plan {plan:?}"));
            assert_eq!(fp.guard_density, 1.0, "{name}");
            assert!(fp.encrypt, "{name}");
        }
        assert!(plan.coverage > 0.9);
    }

    #[test]
    fn tight_budget_prefers_cold_code() {
        let (cfg, profile) = sample();
        let config = OptimizerConfig {
            budget_fraction: 0.002,
            density_levels: vec![1.0],
            ..OptimizerConfig::default()
        };
        let plan = optimize(&cfg, &profile, &config);
        let hot = plan.functions.get("hot").copied().unwrap_or_default();
        let cold = plan.functions.get("cold").copied().unwrap_or_default();
        // The hot loop is unaffordable at a 0.2% budget; the cold helper is
        // nearly free.
        assert!(cold.guard_density > 0.0, "plan: {plan:?}");
        assert_eq!(hot.guard_density, 0.0, "plan: {plan:?}");
    }

    #[test]
    fn budget_is_respected() {
        let (cfg, profile) = sample();
        for budget in [0.001, 0.01, 0.1, 1.0] {
            let config = OptimizerConfig {
                budget_fraction: budget,
                ..OptimizerConfig::default()
            };
            let plan = optimize(&cfg, &profile, &config);
            let allowed = (profile.cycles as f64 * budget) as u64;
            assert!(
                plan.est_extra_cycles <= allowed,
                "budget {budget}: spent {} of {allowed}",
                plan.est_extra_cycles
            );
        }
    }

    #[test]
    fn coverage_is_monotone_in_budget() {
        let (cfg, profile) = sample();
        let mut last = -1.0f64;
        for budget in [0.0, 0.005, 0.05, 0.5, 5.0] {
            let config = OptimizerConfig {
                budget_fraction: budget,
                ..OptimizerConfig::default()
            };
            let plan = optimize(&cfg, &profile, &config);
            assert!(
                plan.coverage >= last - 1e-9,
                "coverage dropped at budget {budget}"
            );
            last = plan.coverage;
        }
        assert!(last > 0.9);
    }
}
