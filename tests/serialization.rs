//! Cross-crate integration: protected programs survive a full
//! serialize → deserialize → run round trip — the shipping path of a real
//! deployment (binary to the device, monitor config to the FPGA).

use flexprot::core::{protect, EncryptConfig, GuardConfig, ProtectionConfig};
use flexprot::isa::Image;
use flexprot::secmon::{GuardSite, SecMon, SecMonConfig};
use flexprot::sim::{Machine, Outcome, SimConfig};

#[test]
fn every_workload_ships_through_the_containers() {
    for workload in flexprot::workloads::all() {
        let image = workload.image();
        let config = ProtectionConfig::new()
            .with_guards(GuardConfig::with_density(0.5))
            .with_encryption(EncryptConfig::whole_program(0x51AB));
        let protected = protect(&image, &config, None).expect("protect");

        // Ship: image and monitor config as raw bytes.
        let image_bytes = protected.image.to_bytes();
        let config_bytes = protected.secmon.to_bytes();

        // Receive and run.
        let shipped_image = Image::from_bytes(&image_bytes).expect("image container");
        let shipped_config = SecMonConfig::from_bytes(&config_bytes).expect("config container");
        assert_eq!(shipped_image, protected.image, "{}", workload.name);
        assert_eq!(shipped_config, protected.secmon, "{}", workload.name);

        let run = Machine::with_monitor(
            &shipped_image,
            SimConfig::default(),
            SecMon::new(shipped_config),
        )
        .run();
        assert_eq!(run.outcome, Outcome::Exit(0), "{}", workload.name);
        assert_eq!(run.output, workload.expected_output(), "{}", workload.name);
    }
}

#[test]
fn watermark_round_trips_through_the_containers() {
    let workload = flexprot::workloads::by_name("fir").expect("kernel");
    let image = workload.image();
    let config = ProtectionConfig::new()
        .with_guards(GuardConfig::with_density(1.0))
        .with_encryption(EncryptConfig::whole_program(0x77))
        .with_watermark(*b"BUILD-2026-07");
    let protected = protect(&image, &config, None).expect("protect");

    // Reconstruct the Protected from shipped bytes and extract.
    let shipped = flexprot::core::Protected {
        image: Image::from_bytes(&protected.image.to_bytes()).expect("image"),
        secmon: SecMonConfig::from_bytes(&protected.secmon.to_bytes()).expect("config"),
        report: protected.report,
    };
    assert_eq!(
        shipped.extract_watermark(13).as_deref(),
        Some(&b"BUILD-2026-07"[..])
    );
    let run = shipped.run(SimConfig::default());
    assert_eq!(run.outcome, Outcome::Exit(0));
}

#[test]
fn corrupted_containers_are_rejected_not_misparsed() {
    let workload = flexprot::workloads::by_name("hash").expect("kernel");
    let image = workload.image();
    let protected = protect(
        &image,
        &ProtectionConfig::new().with_guards(GuardConfig::with_density(0.3)),
        None,
    )
    .expect("protect");
    let image_bytes = protected.image.to_bytes();
    let config_bytes = protected.secmon.to_bytes();
    // Any truncation must be an error, never a partial parse.
    for cut in [0, 1, image_bytes.len() / 2, image_bytes.len() - 1] {
        assert!(Image::from_bytes(&image_bytes[..cut]).is_err(), "cut {cut}");
    }
    for cut in [0, 3, config_bytes.len() / 2, config_bytes.len() - 1] {
        assert!(
            SecMonConfig::from_bytes(&config_bytes[..cut]).is_err(),
            "cut {cut}"
        );
    }
}

#[test]
fn hostile_guard_site_length_is_reported_not_overflowed() {
    // A well-formed FPM1 may still name a guard sequence of u32::MAX
    // symbols plus a tail word inside a protected range. The container
    // accepts it; the verifier must report the site out of range and the
    // window accessor must resolve no window, instead of overflowing.
    let workload = flexprot::workloads::by_name("rle").expect("kernel");
    let protected = protect(
        &workload.image(),
        &ProtectionConfig::new().with_guards(GuardConfig::with_density(1.0)),
        None,
    )
    .expect("protect");
    let mut hostile = protected.secmon.clone();
    let site = *hostile.sites.keys().next().expect("a guard site");
    hostile.sites.insert(
        site,
        GuardSite {
            symbols: u32::MAX,
            tail: 1,
        },
    );
    assert!(!hostile.protected.is_empty());
    let shipped = SecMonConfig::from_bytes(&hostile.to_bytes()).expect("config container");

    assert_eq!(shipped.window_interval(site), None);
    let report = flexprot::verify::verify(&protected.image, &shipped);
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.id == "FP103" && f.addr == Some(site)),
        "{}",
        report.render_human()
    );
}
