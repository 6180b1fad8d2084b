//! Cross-crate integration: protected programs survive a full
//! serialize → deserialize → run round trip — the shipping path of a real
//! deployment (binary to the device, monitor config to the FPGA).

use flexprot::core::{protect, EncryptConfig, GuardConfig, ProtectionConfig};
use flexprot::isa::{Image, ImageFormatError, Segment};
use flexprot::secmon::{GuardSite, SecMon, SecMonConfig};
use flexprot::sim::{Machine, Outcome, SimConfig, TamperCause, TamperEvent};

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
fn segments_wrapping_the_address_space_are_rejected() {
    // 32 bytes starting 16 bytes below the top of the address space.
    for segment in [Segment::Text, Segment::Data] {
        let mut image = Image::from_text(vec![0; 8]);
        match segment {
            Segment::Text => image.text_base = 0xFFFF_FFF0,
            Segment::Data => (image.data_base, image.data) = (0xFFFF_FFF0, vec![0; 32]),
        }
        let decoded = Image::from_bytes(&image.to_bytes());
        assert_eq!(decoded, Err(ImageFormatError::SegmentWraps(segment)));
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

    // At run time the monitor collects the four real guard symbols, then
    // meets a word that is not a guard: a typed trip, with no symbol
    // buffer sized by the hostile count.
    let run = flexprot::core::Protected {
        secmon: shipped,
        ..protected
    }
    .run(SimConfig::default());
    let trip = TamperEvent {
        pc: site + 16,
        cause: TamperCause::MalformedGuard { site },
    };
    assert_eq!(run.outcome, Outcome::TamperDetected(trip));
}

#[test]
fn guard_site_without_symbols_is_refused_not_underflowed() {
    // A site of zero symbols and no tail names no signature. The FPM1
    // decoder refuses it with a typed error; a config built in code that
    // still holds one makes the monitor check an empty signature and
    // trip, instead of underflowing its tail counter.
    let workload = flexprot::workloads::by_name("rle").expect("kernel");
    let mut protected = protect(
        &workload.image(),
        &ProtectionConfig::new().with_guards(GuardConfig::with_density(1.0)),
        None,
    )
    .expect("protect");
    let site = *protected.secmon.sites.keys().next().expect("a guard site");
    let empty = GuardSite {
        symbols: 0,
        tail: 0,
    };
    protected.secmon.sites.insert(site, empty);
    let err = SecMonConfig::from_bytes(&protected.secmon.to_bytes())
        .expect_err("the decoder must refuse a site without symbols");
    assert_eq!(
        err.to_string(),
        format!("guard site {site:#010x} has no guard symbols")
    );
    let run = protected.run(SimConfig::default());
    assert!(
        matches!(
            run.outcome,
            Outcome::TamperDetected(TamperEvent {
                pc,
                cause: TamperCause::SignatureMismatch { site: s, claimed: 0, .. },
            }) if pc == site && s == site
        ),
        "{:?}",
        run.outcome
    );
}

#[test]
fn hostile_protected_range_is_counted_not_walked() {
    // A protected range from the FPM1 may wrap past the top of the address
    // space or span nearly all of it. FP404's uncovered-word count must
    // come from the range's overlap with the region table: a word-by-word
    // walk overflows on the first and takes seconds on the second.
    let image = flexprot::asm::assemble(
        "main:   li   $s0, 10
                 li   $s1, 0
         loop:   addu $s1, $s1, $s0
                 addi $s0, $s0, -1
                 bgtz $s0, loop
                 move $a0, $s1
                 li   $v0, 1
                 syscall
                 li   $v0, 10
                 syscall",
    )
    .expect("assemble");
    let config = ProtectionConfig::new()
        .with_guards(GuardConfig::with_density(1.0))
        .with_encryption(EncryptConfig::whole_program(0x5EED_5EED_5EED_5EED));
    let protected = protect(&image, &config, None).expect("protect");
    assert_eq!(protected.secmon.protected.len(), 1);
    for (start, end, message) in [
        (
            0xFFFF_FFF0,
            0xFFFF_FFFF,
            "4 word(s) of protected range [0xfffffff0, 0xffffffff) are not encrypted",
        ),
        (
            0,
            0xFFFF_FFFC,
            "1073741797 word(s) of protected range [0x00000000, 0xfffffffc) are not encrypted",
        ),
    ] {
        let mut hostile = protected.secmon.clone();
        (hostile.protected[0].start, hostile.protected[0].end) = (start, end);
        let shipped = SecMonConfig::from_bytes(&hostile.to_bytes()).expect("config container");
        let report = flexprot::verify::verify(&protected.image, &shipped);
        let finding = report
            .findings
            .iter()
            .find(|f| f.id == "FP404")
            .unwrap_or_else(|| panic!("no FP404 finding:\n{}", report.render_human()));
        assert_eq!(finding.addr, Some(start));
        assert_eq!(finding.message, message);
    }
}
