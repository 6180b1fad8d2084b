//! Runs the full attack battery against one kernel under four protection
//! configurations and prints a miniature detection-coverage matrix
//! (experiment T3 in miniature).
//!
//! ```text
//! cargo run --release --example tamper_response
//! ```

use flexprot::attack::{campaign_sim, evaluate, Attack};
use flexprot::core::{protect, EncryptConfig, GuardConfig, ProtectionConfig};
use flexprot::sim::{Machine, SimConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workload = flexprot::workloads::by_name("rle").expect("kernel exists");
    let image = workload.image();
    let expected = workload.expected_output();
    let baseline = Machine::new(&image, SimConfig::default()).run();
    let sim = campaign_sim(baseline.stats.instructions, &SimConfig::default());

    let configs: Vec<(&str, ProtectionConfig)> = vec![
        ("none", ProtectionConfig::new()),
        (
            "guards",
            ProtectionConfig::new().with_guards(GuardConfig::with_density(1.0)),
        ),
        (
            "guards+enc",
            ProtectionConfig::new()
                .with_guards(GuardConfig::with_density(1.0))
                .with_encryption(EncryptConfig::whole_program(0x0DD5_EED5)),
        ),
    ];

    println!("workload: {} ({})", workload.name, workload.description);
    println!(
        "{:<12} {:<12} {:>9} {:>9} {:>9} {:>11}",
        "config", "attack", "detected", "faulted", "wrong-out", "det-rate%"
    );
    for (name, config) in configs {
        let protected = protect(&image, &config, None)?;
        for attack in Attack::all() {
            let summary = evaluate(&protected, &expected, attack, 25, 1, &sim);
            println!(
                "{:<12} {:<12} {:>9} {:>9} {:>9} {:>10.1}%",
                name,
                attack.name(),
                summary.detected,
                summary.faulted,
                summary.wrong_output,
                summary.detection_rate() * 100.0
            );
        }
        println!();
    }
    println!("detected  = secure monitor raised a tamper event");
    println!("faulted   = mutated binary crashed (also a hardware-visible signal)");
    println!("wrong-out = silent corruption: the attacker won that trial");
    Ok(())
}
