//! The codesign loop in action: profile a program, then let the budget
//! optimizer pick per-function protection levels for a range of overhead
//! budgets, and verify the measured overhead (experiment F4 in miniature).
//!
//! ```text
//! cargo run --release --example design_space
//! ```

use flexprot::core::{
    optimize, protect, Cfg, EncryptConfig, GuardConfig, OptimizerConfig, Placement, Profile,
    ProtectionConfig, Selection,
};
use flexprot::sim::SimConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workload = flexprot::workloads::by_name("dijkstra").expect("kernel exists");
    let image = workload.image();
    let sim = SimConfig::default();

    // 1. Profile the unprotected program (the feedback half of codesign).
    let profile = Profile::collect_clean(&image, &sim);
    let cfg = Cfg::recover(&image)?;
    println!(
        "profiled {}: {} instructions, {} cycles, {} functions\n",
        workload.name,
        profile.instructions,
        profile.cycles,
        cfg.functions.len()
    );

    // 2. Sweep the overhead budget.
    println!(
        "{:>8} {:>9} {:>7} {:>10} {:>11}   plan",
        "budget%", "coverage", "est+%", "measured+%", "guards"
    );
    for budget in [0.01, 0.05, 0.1, 0.25, 0.5, 1.0] {
        let plan = optimize(
            &cfg,
            &profile,
            &OptimizerConfig {
                budget_fraction: budget,
                ..OptimizerConfig::default()
            },
        );
        let config = ProtectionConfig::from_plan(
            &plan,
            GuardConfig {
                key: 0xC0DE,
                seed: 1,
                placement: Placement::ColdestFirst,
                selection: Selection::Density(0.0),
                enforce_spacing: false,
            },
            EncryptConfig::whole_program(0x5EED),
        );
        let protected = protect(&image, &config, Some(&profile))?;
        let run = protected.run(sim.clone());
        assert_eq!(run.output, workload.expected_output());
        let measured = (run.stats.cycles as f64 / profile.cycles as f64 - 1.0) * 100.0;
        let mut plan_text: Vec<String> = plan
            .functions
            .iter()
            .map(|(name, fp)| {
                format!(
                    "{name}:d{:.2}{}",
                    fp.guard_density,
                    if fp.encrypt { "+enc" } else { "" }
                )
            })
            .collect();
        plan_text.sort();
        println!(
            "{:>8.1} {:>9.3} {:>7.2} {:>10.2} {:>11}   {}",
            budget * 100.0,
            plan.coverage,
            plan.est_extra_cycles as f64 / profile.cycles as f64 * 100.0,
            measured,
            protected.report.guards_inserted,
            plan_text.join(" ")
        );
    }
    println!("\nHigher budgets buy more coverage; the optimizer spends them on");
    println!("cold code first, so measured overhead tracks the budget closely.");
    Ok(())
}
