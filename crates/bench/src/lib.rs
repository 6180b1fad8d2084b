//! Experiment runners for every table and figure of the evaluation.
//!
//! Each `tN_*`/`fN_*` runner regenerates one artifact of the
//! reconstructed DATE-2004 evaluation, or two artifacts projected from one
//! shared campaign (`t3_t9_*`, `t12_t13_*`); [`EXPERIMENTS`] registers
//! them all (see `DESIGN.md` for the index and `EXPERIMENTS.md` for
//! recorded results):
//!
//! | id | artifact |
//! |----|----------|
//! | T1 | workload characterization |
//! | T2 | static code-size overhead vs guard density |
//! | F1 | runtime overhead vs guard density |
//! | F2 | runtime overhead vs decrypt latency (serial/pipelined) |
//! | F3 | runtime overhead vs I-cache size |
//! | T3 | tamper-detection coverage matrix |
//! | F4 | flexibility Pareto: coverage vs overhead budget |
//! | T4 | placement-policy ablation |
//! | F5 | estimator accuracy |
//! | T5 | re-protection diversity |
//! | T6 | static stealth metrics |
//! | F6 | detection-latency distribution |
//! | T9 | static-oracle precision/recall vs dynamic detection |
//! | T10 | guard-network targeted attack vs random baseline |
//! | T12 | translation validator vs static oracle cross-check |
//! | T13 | validator refusal attribution by typed reason |
//!
//! Every runner takes a shared [`Engine`]: its grid cells fan out over the
//! engine's worker pool, compiled images / profiled baselines / protected
//! binaries come from the engine's [artifact cache](flexprot_exec::ArtifactCache),
//! and per-cell trace metrics merge into the engine's aggregate document.
//! Tables and the aggregate metrics are byte-identical whatever the worker
//! count.
//!
//! Run them all with `cargo run --release -p flexprot-bench --bin
//! experiments` (add `--quick` for a fast subset, `--jobs N` to size the
//! worker pool).

pub mod table;

use flexprot_attack::{
    evaluate_random_nop, evaluate_targeted, Attack, AttackSummary, StaticOracle,
};
use flexprot_core::{
    optimize, EncryptConfig, GuardConfig, OptimizerConfig, Placement, ProtectionConfig, Selection,
};
use flexprot_exec::{AttackSpec, CellResult, Engine, Job, JobCtx};
use flexprot_secmon::DecryptModel;
use flexprot_sim::{CacheConfig, SimConfig};
use flexprot_workloads::Workload;

pub use flexprot_exec::Baseline;
pub use table::Table;

/// Master keys used across experiments (fixed for reproducibility).
pub const GUARD_KEY: u64 = 0x0BAD_C0DE_CAFE_F00D;
/// Encryption master key.
pub const ENC_KEY: u64 = 0x5EED_5EED_5EED_5EED;

/// Global experiment parameters.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Reduced workload set and trial counts for smoke runs.
    pub quick: bool,
}

impl Params {
    /// The workloads an experiment iterates over.
    pub fn workloads(&self) -> Vec<Workload> {
        let all = flexprot_workloads::all();
        if self.quick {
            all.into_iter()
                .filter(|w| matches!(w.name, "rle" | "qsort" | "dijkstra"))
                .collect()
        } else {
            all
        }
    }

    /// Lighter-weight kernels used for the attack matrix (many trials).
    pub fn attack_workloads(&self) -> Vec<Workload> {
        let names: &[&str] = if self.quick {
            &["rle"]
        } else {
            &["rle", "strsearch", "adpcm"]
        };
        flexprot_workloads::all()
            .into_iter()
            .filter(|w| names.contains(&w.name))
            .collect()
    }

    /// Guard densities swept in T2/F1.
    pub fn densities(&self) -> Vec<f64> {
        if self.quick {
            vec![0.25, 1.0]
        } else {
            vec![0.1, 0.25, 0.5, 0.75, 1.0]
        }
    }

    /// Attack trials per (workload, config, attack) cell in T3.
    pub fn trials(&self) -> u32 {
        if self.quick {
            6
        } else {
            20
        }
    }
}

/// Relative overhead in percent.
pub fn overhead_pct(base_cycles: u64, cycles: u64) -> f64 {
    (cycles as f64 - base_cycles as f64) / base_cycles as f64 * 100.0
}

fn fmt_pct(v: f64) -> String {
    format!("{v:.2}")
}

fn guard_config(density: f64, placement: Placement) -> GuardConfig {
    GuardConfig {
        key: GUARD_KEY,
        seed: 7,
        placement,
        selection: Selection::Density(density),
        enforce_spacing: true,
    }
}

/// T1 — workload characterization.
pub fn t1_characterize(params: &Params, engine: &Engine) -> Table {
    let sim = SimConfig::default();
    let mut table = Table::new(
        "T1",
        "Workload characterization (baseline, default caches)",
        &[
            "workload",
            "text-words",
            "data-bytes",
            "dyn-instrs",
            "cycles",
            "CPI",
            "icache-miss%",
            "dcache-miss%",
        ],
    );
    let rows = engine.run_jobs(&params.workloads(), |ctx, w| {
        let b = ctx.baseline(w, &sim);
        vec![
            w.name.to_owned(),
            b.image.text.len().to_string(),
            b.image.data.len().to_string(),
            b.run.stats.instructions.to_string(),
            b.run.stats.cycles.to_string(),
            format!("{:.3}", b.run.stats.cpi()),
            format!("{:.3}", b.run.stats.icache_miss_rate() * 100.0),
            format!("{:.3}", b.run.stats.dcache_miss_rate() * 100.0),
        ]
    });
    table.extend(rows);
    table
}

/// Runs the `workloads × axis` grid, one engine job per cell in
/// workload-major order, and returns each workload with its cells in axis
/// order.
fn workload_grid<A, T: Send>(
    params: &Params,
    engine: &Engine,
    axis: &[A],
    job: impl Fn(Workload, &A) -> Job,
    cell: impl Fn(&mut JobCtx<'_>, &Job) -> T + Sync,
) -> Vec<(Workload, Vec<T>)> {
    let workloads = params.workloads();
    let jobs: Vec<Job> = workloads
        .iter()
        .flat_map(|&w| axis.iter().map(move |a| (w, a)))
        .map(|(w, a)| job(w, a))
        .collect();
    let mut cells = engine.run_jobs(&jobs, cell).into_iter();
    let mut chunk = || cells.by_ref().take(axis.len()).collect();
    workloads.into_iter().map(|w| (w, chunk())).collect()
}

/// Flattens a workload's cells so every cell's first `lead` columns come
/// first, in axis order, and the appended breakdown columns after them.
fn lead_then_rest<const N: usize>(cells: &[[String; N]], lead: usize) -> Vec<String> {
    let leads = cells.iter().flat_map(|c| &c[..lead]);
    let rest = cells.iter().flat_map(|c| &c[lead..]);
    leads.chain(rest).cloned().collect()
}

/// T2 — static code-size overhead vs guard density.
pub fn t2_size_overhead(params: &Params, engine: &Engine) -> Table {
    let densities = params.densities();
    let mut headers = vec!["workload".to_owned(), "words".to_owned()];
    for d in &densities {
        headers.push(format!("+%@d={d}"));
    }
    let mut table = Table::with_headers(
        "T2",
        "Static code-size overhead (%) vs guard density",
        headers,
    );
    let grid = workload_grid(
        params,
        engine,
        &densities,
        |w, &d| {
            Job::new(
                w,
                ProtectionConfig::new().with_guards(guard_config(d, Placement::Uniform)),
            )
        },
        |ctx, job| {
            let protected = ctx.protected(job).expect("protect");
            fmt_pct(protected.report.size_overhead_fraction() * 100.0)
        },
    );
    for (w, cells) in grid {
        let words = engine.cache().image(&w).text.len();
        table.push([vec![w.name.to_owned(), words.to_string()], cells].concat());
    }
    table
}

/// The breakdown columns of F2 and F3: the protected run's decrypt-unit
/// stall and its I-cache fill cycles (memory latency and burst, one fill
/// per miss), each as a share of the baseline run's cycles.
fn stall_and_fill_pct(cell: &CellResult, sim: &SimConfig) -> [String; 2] {
    let stats = &cell.run.stats;
    let base = cell.baseline.run.stats.cycles as f64;
    let fill = sim.icache_fill_cycles() * stats.icache_misses;
    [
        fmt_pct(stats.monitor_fill_cycles as f64 / base * 100.0),
        fmt_pct(fill as f64 / base * 100.0),
    ]
}

/// F1 — runtime overhead vs guard density.
pub fn f1_guard_density(params: &Params, engine: &Engine) -> Table {
    let densities = params.densities();
    let mut headers = vec!["workload".to_owned()];
    for d in &densities {
        headers.push(format!("+%@d={d}"));
    }
    let mut table = Table::with_headers(
        "F1",
        "Runtime overhead (%) vs guard density (guards only, uniform placement)",
        headers,
    );
    let grid = workload_grid(
        params,
        engine,
        &densities,
        |w, &d| {
            let config = ProtectionConfig::new().with_guards(guard_config(d, Placement::Uniform));
            Job::new(w, config).profiled()
        },
        |ctx, job| fmt_pct(ctx.run_cell(job).overhead_pct()),
    );
    for (w, cells) in grid {
        table.push([vec![w.name.to_owned()], cells].concat());
    }
    table
}

/// F2 — runtime overhead vs decrypt latency (whole-program encryption).
pub fn f2_decrypt_latency(params: &Params, engine: &Engine) -> Table {
    let cpws: &[u64] = if params.quick {
        &[2, 8]
    } else {
        &[0, 1, 2, 4, 8]
    };
    let mut specs = Vec::new();
    for &cpw in cpws {
        for pipelined in [false, true] {
            specs.push((cpw, pipelined));
        }
    }
    let mut headers = vec!["workload".to_owned()];
    for &c in cpws {
        headers.push(format!("serial@{c}"));
        headers.push(format!("pipe@{c}"));
    }
    // The breakdown columns are appended AFTER the overhead block
    // so the established column positions stay stable.
    for &c in cpws {
        for mode in ["ser", "pipe"] {
            headers.push(format!("dstall%@{c}{mode}"));
            headers.push(format!("miss%@{c}{mode}"));
        }
    }
    let mut table = Table::with_headers(
        "F2",
        "Runtime overhead (%) vs decrypt cycles/word (whole-program encryption)",
        headers,
    );
    let grid = workload_grid(
        params,
        engine,
        &specs,
        |w, &(cpw, pipelined)| {
            let model = DecryptModel {
                cycles_per_word: cpw,
                startup: 4,
                pipelined,
            };
            let enc = EncryptConfig {
                model,
                ..EncryptConfig::whole_program(ENC_KEY)
            };
            Job::new(w, ProtectionConfig::new().with_encryption(enc))
        },
        |ctx, job| {
            let cell = ctx.run_cell(job);
            let [stall, fill] = stall_and_fill_pct(&cell, &job.sim);
            [fmt_pct(cell.overhead_pct()), stall, fill]
        },
    );
    for (w, cells) in grid {
        table.push([vec![w.name.to_owned()], lead_then_rest(&cells, 1)].concat());
    }
    table
}

/// F3 — runtime overhead of encryption vs I-cache size.
pub fn f3_icache_sweep(params: &Params, engine: &Engine) -> Table {
    let sizes: &[u32] = if params.quick {
        &[256, 4096]
    } else {
        &[128, 256, 512, 1024, 2048, 4096, 8192]
    };
    let mut headers = vec!["workload".to_owned()];
    for &s in sizes {
        headers.push(format!("+%@{s}B"));
        headers.push(format!("miss%@{s}B"));
    }
    // The breakdown columns, appended at the row end (see F2).
    for &s in sizes {
        headers.push(format!("dstall%@{s}B"));
        headers.push(format!("fill%@{s}B"));
    }
    let mut table = Table::with_headers(
        "F3",
        "Encryption overhead (%) and baseline miss rate vs I-cache size",
        headers,
    );
    let config = ProtectionConfig::new().with_encryption(EncryptConfig::whole_program(ENC_KEY));
    let grid = workload_grid(
        params,
        engine,
        sizes,
        |w, &size| {
            let sim = SimConfig {
                icache: CacheConfig {
                    size_bytes: size,
                    line_bytes: 32,
                    ways: 2,
                },
                ..SimConfig::default()
            };
            Job::new(w, config.clone()).with_sim(sim)
        },
        |ctx, job| {
            let cell = ctx.run_cell(job);
            let [stall, fill] = stall_and_fill_pct(&cell, &job.sim);
            [
                fmt_pct(cell.overhead_pct()),
                format!("{:.3}", cell.baseline.run.stats.icache_miss_rate() * 100.0),
                stall,
                fill,
            ]
        },
    );
    for (w, cells) in grid {
        table.push([vec![w.name.to_owned()], lead_then_rest(&cells, 2)].concat());
    }
    table
}

/// The four protection configurations of the T3 matrix.
pub fn t3_configs() -> Vec<(&'static str, ProtectionConfig)> {
    vec![
        ("none", ProtectionConfig::new()),
        (
            "guards",
            ProtectionConfig::new().with_guards(guard_config(1.0, Placement::Uniform)),
        ),
        (
            "enc",
            ProtectionConfig::new().with_encryption(EncryptConfig::whole_program(ENC_KEY)),
        ),
        (
            "guards+enc",
            ProtectionConfig::new()
                .with_guards(guard_config(1.0, Placement::Uniform))
                .with_encryption(EncryptConfig::whole_program(ENC_KEY)),
        ),
    ]
}

/// Merges per-workload attack summaries into one aggregate.
fn merged(summaries: &[AttackSummary]) -> AttackSummary {
    let mut agg = AttackSummary::default();
    for summary in summaries {
        agg.merge(summary);
    }
    agg
}

/// T3 and T9 — one attack campaign over the T3 grid, projected twice.
///
/// T3 is the tamper-detection coverage matrix. T9 scores the static
/// oracle: the harness already scores every applied trial against the
/// [`flexprot_attack::StaticOracle`] built from the protected image's
/// surface map, so T9 only aggregates the confusion matrices. A trial
/// counts when its dynamic outcome is effective (not benign/inapplicable):
/// positive = the stack caught it (detected or faulted), predicted
/// positive = the oracle said it would.
pub fn t3_t9_attack_matrix(params: &Params, engine: &Engine) -> [Table; 2] {
    let attack_workloads = params.attack_workloads();
    let mut t3 = Table::new(
        "T3",
        "Tamper-detection coverage (aggregated over attack workloads)",
        &[
            "config",
            "attack",
            "applied",
            "detected",
            "faulted",
            "wrong-out",
            "benign",
            "det-rate%",
            "atk-success%",
            "mean-latency",
        ],
    );
    let mut t9 = Table::new(
        "T9",
        "Static tamper-surface oracle vs dynamic ground truth",
        &[
            "config",
            "attack",
            "effective",
            "tp",
            "fp",
            "fn",
            "tn",
            "precision",
            "recall",
        ],
    );
    let mut labels = Vec::new();
    let mut jobs = Vec::new();
    for (config_name, config) in t3_configs() {
        for attack in Attack::all() {
            labels.push((config_name, attack));
            for &w in &attack_workloads {
                jobs.push(Job::new(w, config.clone()).with_attack(AttackSpec {
                    attack,
                    trials: params.trials(),
                    seed: 0xA77A_C4E5,
                }));
            }
        }
    }
    let summaries = engine.run_jobs(&jobs, |ctx, job| ctx.attack_cell(job));
    for ((config_name, attack), chunk) in
        labels.iter().zip(summaries.chunks(attack_workloads.len()))
    {
        let agg = merged(chunk);
        t3.push(vec![
            (*config_name).to_owned(),
            attack.name().to_owned(),
            agg.applied.to_string(),
            agg.detected.to_string(),
            agg.faulted.to_string(),
            agg.wrong_output.to_string(),
            agg.benign.to_string(),
            fmt_pct(agg.detection_rate() * 100.0),
            fmt_pct(agg.attacker_success_rate() * 100.0),
            agg.mean_latency()
                .map_or_else(|| "-".to_owned(), |l| format!("{l:.0}")),
        ]);
        t9.push(vec![
            (*config_name).to_owned(),
            attack.name().to_owned(),
            agg.oracle_trials().to_string(),
            agg.oracle_true_pos.to_string(),
            agg.oracle_false_pos.to_string(),
            agg.oracle_false_neg.to_string(),
            agg.oracle_true_neg.to_string(),
            format!("{:.3}", agg.oracle_precision()),
            format!("{:.3}", agg.oracle_recall()),
        ]);
    }
    [t3, t9]
}

/// F4 — the flexibility Pareto frontier: coverage vs overhead budget.
pub fn f4_pareto(params: &Params, engine: &Engine) -> Table {
    let sim = SimConfig::default();
    let budgets: &[f64] = if params.quick {
        &[0.02, 0.2]
    } else {
        &[0.01, 0.02, 0.05, 0.1, 0.2, 0.5]
    };
    let mut table = Table::new(
        "F4",
        "Profile-guided budget optimizer: coverage vs measured overhead",
        &[
            "workload",
            "budget%",
            "coverage",
            "est+%",
            "measured+%",
            "guards",
            "enc-fns",
        ],
    );
    let mut cells = Vec::new();
    for &w in &params.workloads() {
        for &budget in budgets {
            cells.push((w, budget));
        }
    }
    let rows = engine.run_jobs(&cells, |ctx, &(w, budget)| {
        let b = ctx.baseline(&w, &sim);
        let cfg = flexprot_core::Cfg::recover(&b.image).expect("cfg");
        let opt = OptimizerConfig {
            budget_fraction: budget,
            ..OptimizerConfig::default()
        };
        let plan = optimize(&b.image, &cfg, &b.profile, &opt);
        // The optimizer costs exactly the policy selection, so the
        // spacing-enforcement extras (which it cannot see) are disabled
        // here; signature checks alone carry the integrity story.
        let config = ProtectionConfig::from_plan(
            &plan,
            GuardConfig {
                enforce_spacing: false,
                ..guard_config(0.0, Placement::ColdestFirst)
            },
            EncryptConfig::whole_program(ENC_KEY),
        );
        let cell = ctx.run_cell(&Job::new(w, config).profiled());
        let enc_fns = plan.functions.values().filter(|f| f.encrypt).count();
        vec![
            w.name.to_owned(),
            fmt_pct(budget * 100.0),
            format!("{:.3}", plan.coverage),
            fmt_pct(plan.est_extra_cycles as f64 / b.run.stats.cycles as f64 * 100.0),
            fmt_pct(cell.overhead_pct()),
            cell.protected.report.guards_inserted.to_string(),
            enc_fns.to_string(),
        ]
    });
    table.extend(rows);
    table
}

/// T4 — placement-policy ablation at matched density.
pub fn t4_placement(params: &Params, engine: &Engine) -> Table {
    let density = 0.3;
    let policies = [
        ("uniform", Placement::Uniform),
        ("random", Placement::Random),
        ("coldest", Placement::ColdestFirst),
        ("loop-hdr", Placement::LoopHeaders),
    ];
    let mut headers = vec!["workload".to_owned()];
    for (name, _) in policies {
        headers.push(format!("+%{name}"));
    }
    let mut table = Table::with_headers(
        "T4",
        "Runtime overhead (%) by placement policy (density 0.3)",
        headers,
    );
    let grid = workload_grid(
        params,
        engine,
        &policies,
        |w, &(_, placement)| {
            let config = ProtectionConfig::new().with_guards(guard_config(density, placement));
            Job::new(w, config).profiled()
        },
        |ctx, job| fmt_pct(ctx.run_cell(job).overhead_pct()),
    );
    for (w, cells) in grid {
        table.push([vec![w.name.to_owned()], cells].concat());
    }
    table
}

/// F5 — estimator accuracy: predicted vs measured overhead.
pub fn f5_estimator(params: &Params, engine: &Engine) -> Table {
    let sim = SimConfig::default();
    let mut table = Table::new(
        "F5",
        "Estimator accuracy: predicted vs measured overhead (%)",
        &["workload", "config", "est+%", "measured+%", "abs-err"],
    );
    let line_words = SimConfig::default().icache.line_words();
    let cases: Vec<(&'static str, ProtectionConfig)> = vec![
        (
            "guards d=0.25",
            ProtectionConfig::new().with_guards(guard_config(0.25, Placement::Uniform)),
        ),
        (
            "guards d=1.0",
            ProtectionConfig::new().with_guards(guard_config(1.0, Placement::Uniform)),
        ),
        (
            "enc program",
            ProtectionConfig::new().with_encryption(EncryptConfig::whole_program(ENC_KEY)),
        ),
    ];
    let mut cells = Vec::new();
    for &w in &params.workloads() {
        for (name, config) in &cases {
            cells.push((w, *name, config.clone()));
        }
    }
    let rows = engine.run_jobs(&cells, |ctx, (w, name, config)| {
        let b = ctx.baseline(w, &sim);
        let cfg = flexprot_core::Cfg::recover(&b.image).expect("cfg");
        // Estimate on the baseline layout, mirroring the pass's actual
        // selection (including loop-header enforcement).
        let selected = match &config.guards {
            Some(g) => flexprot_core::select_guard_blocks(&b.image, &cfg, g, Some(&b.profile))
                .expect("selection"),
            None => Default::default(),
        };
        let ranges: Vec<(u32, u32)> = if config.encryption.is_some() {
            vec![(b.image.text_base, b.image.text_end())]
        } else {
            vec![]
        };
        let est = flexprot_core::estimate(
            &b.image,
            &cfg,
            &selected,
            &ranges,
            DecryptModel::baseline(),
            line_words,
            &b.profile,
        );
        let cell = ctx.run_cell(&Job::new(*w, config.clone()).profiled());
        let est_pct = est.overhead_fraction() * 100.0;
        let meas_pct = cell.overhead_pct();
        vec![
            w.name.to_owned(),
            (*name).to_owned(),
            fmt_pct(est_pct),
            fmt_pct(meas_pct),
            fmt_pct((est_pct - meas_pct).abs()),
        ]
    });
    table.extend(rows);
    table
}

/// T5 — protection diversity: how different two independent protections of
/// the same program look (anti-pattern-matching property).
pub fn t5_diversity(params: &Params, engine: &Engine) -> Table {
    let mut table = Table::new(
        "T5",
        "Re-protection diversity: fraction of differing text words",
        &["workload", "guards-reseed%", "enc-rekey%", "combined%"],
    );
    let rows = engine.run_jobs(&params.workloads(), |ctx, w| {
        let cache = ctx.cache();
        let guarded = |seed: u64| {
            let config = ProtectionConfig::new().with_guards(GuardConfig {
                seed,
                key: GUARD_KEY ^ seed,
                ..guard_config(0.5, Placement::Uniform)
            });
            cache.protected(w, &config, None).expect("protect")
        };
        let encrypted = |key: u64| {
            let config = ProtectionConfig::new().with_encryption(EncryptConfig::whole_program(key));
            cache.protected(w, &config, None).expect("protect")
        };
        let combined = |seed: u64| {
            let config = ProtectionConfig::new()
                .with_guards(GuardConfig {
                    seed,
                    key: GUARD_KEY ^ seed,
                    ..guard_config(0.5, Placement::Uniform)
                })
                .with_encryption(EncryptConfig::whole_program(ENC_KEY ^ seed));
            cache.protected(w, &config, None).expect("protect")
        };
        let diversity = flexprot_attack::analysis::word_diversity;
        let (g1, g2) = (guarded(1), guarded(2));
        let (e1, e2) = (encrypted(1), encrypted(2));
        let (c1, c2) = (combined(1), combined(2));
        vec![
            w.name.to_owned(),
            fmt_pct(diversity(&g1.image, &g2.image) * 100.0),
            fmt_pct(diversity(&e1.image, &e2.image) * 100.0),
            fmt_pct(diversity(&c1.image, &c2.image) * 100.0),
        ]
    });
    table.extend(rows);
    table
}

/// T6 — stealth: what an attacker's static scanner sees.
pub fn t6_stealth(params: &Params, engine: &Engine) -> Table {
    use flexprot_attack::analysis::{guard_like_runs, text_entropy_bits, undecodable_fraction};
    let mut table = Table::new(
        "T6",
        "Static stealth metrics (guard-run scanner, entropy, decodability)",
        &[
            "workload",
            "config",
            "guard-runs",
            "entropy-b/B",
            "undecodable%",
        ],
    );
    let rows = engine.run_jobs(&params.workloads(), |ctx, w| {
        let cache = ctx.cache();
        let image = cache.image(w);
        let guards_cfg = ProtectionConfig::new().with_guards(guard_config(1.0, Placement::Uniform));
        let both_cfg = guards_cfg
            .clone()
            .with_encryption(EncryptConfig::whole_program(ENC_KEY));
        let guarded = cache.protected(w, &guards_cfg, None).expect("protect");
        let both = cache.protected(w, &both_cfg, None).expect("protect");
        let cases = [
            ("plain", image.as_ref()),
            ("guards", &guarded.image),
            ("guards+enc", &both.image),
        ];
        cases
            .iter()
            .map(|(name, img)| {
                vec![
                    w.name.to_owned(),
                    (*name).to_owned(),
                    guard_like_runs(img, 4).to_string(),
                    format!("{:.3}", text_entropy_bits(img)),
                    fmt_pct(undecodable_fraction(img) * 100.0),
                ]
            })
            .collect::<Vec<_>>()
    });
    table.extend(rows.into_iter().flatten());
    table
}

/// F6 — detection-latency distribution under full guards.
pub fn f6_latency(params: &Params, engine: &Engine) -> Table {
    let attack_workloads = params.attack_workloads();
    let mut table = Table::new(
        "F6",
        "Detection latency distribution (instructions; guards, density 1.0)",
        &["attack", "detections", "min", "p50", "p90", "max", "mean"],
    );
    let config = ProtectionConfig::new().with_guards(guard_config(1.0, Placement::Uniform));
    let mut jobs = Vec::new();
    for attack in Attack::all() {
        for &w in &attack_workloads {
            jobs.push(Job::new(w, config.clone()).with_attack(AttackSpec {
                attack,
                trials: params.trials(),
                seed: 0xF6,
            }));
        }
    }
    let summaries = engine.run_jobs(&jobs, |ctx, job| ctx.attack_cell(job));
    for (attack, chunk) in Attack::all()
        .into_iter()
        .zip(summaries.chunks(attack_workloads.len()))
    {
        let agg = merged(chunk);
        let q = |v: f64| {
            agg.latency_quantile(v)
                .map_or_else(|| "-".to_owned(), |x| x.to_string())
        };
        table.push(vec![
            attack.name().to_owned(),
            agg.detected.to_string(),
            q(0.0),
            q(0.5),
            q(0.9),
            q(1.0),
            agg.mean_latency()
                .map_or_else(|| "-".to_owned(), |m| format!("{m:.0}")),
        ]);
    }
    table
}

/// T10 — what the guard-network analysis buys the attacker.
///
/// For each attack workload and guard density, runs the plan-driven
/// single-word NOP attacker (ranked by [`StaticOracle::target_plan`]:
/// cheapest defeat closures first) against the uniformly random
/// single-word baseline with the same edit budget, next to the network
/// shape that explains the gap (sound guards, edges, minimum vertex
/// cut). One static oracle per cell supplies the plan, both attackers'
/// predictions and the network columns, so the verifier analyses each
/// build once. The cells fan out over the engine's worker pool; both
/// attackers are deterministic given the seed, so the table is
/// byte-identical whatever the worker count.
pub fn t10_guardnet(params: &Params, engine: &Engine) -> Table {
    let mut table = Table::new(
        "T10",
        "Guard-network targeted attack vs random single-word baseline",
        &[
            "workload",
            "density",
            "guards",
            "sound",
            "edges",
            "min_cut",
            "trials",
            "targeted_success",
            "random_success",
        ],
    );
    let trials = params.trials() * 5;
    let sim = SimConfig {
        max_instructions: 2_000_000,
        ..SimConfig::default()
    };
    let mut cells = Vec::new();
    for w in params.attack_workloads() {
        for density in [0.25, 1.0] {
            let config =
                ProtectionConfig::new().with_guards(guard_config(density, Placement::Uniform));
            cells.push((density, Job::new(w, config)));
        }
    }
    let rows = engine.run_jobs(&cells, |ctx, (density, job)| {
        let protected = ctx.protected(job).expect("protect");
        let expected = job.workload.expected_output();
        let oracle = StaticOracle::new(&protected.image, &protected.secmon);
        let net = oracle.net();
        let targeted = evaluate_targeted(&protected, &oracle, &expected, trials, &sim);
        let random = evaluate_random_nop(&protected, &oracle, &expected, trials, 0xA77A_C4E5, &sim);
        vec![
            job.workload.name.to_owned(),
            format!("{density}"),
            net.nodes.len().to_string(),
            net.sound_count().to_string(),
            net.edges.to_string(),
            net.min_cut
                .as_ref()
                .map_or_else(|| "none".to_owned(), |cut| cut.len().to_string()),
            trials.to_string(),
            format!("{:.3}", targeted.attacker_success_rate()),
            format!("{:.3}", random.attacker_success_rate()),
        ]
    });
    table.extend(rows);
    table
}

/// T12 and T13 — one translation-validator mutation campaign, projected
/// twice.
///
/// For each T3 protection config and attack workload, runs a
/// deterministic single-word mutation campaign
/// ([`flexprot_attack::cross_check`]) and scores every mutated image
/// against both independent analyses: the translation validator's
/// semantic verdict (proven / inequivalent / refused) and the static
/// oracle's detection prediction. The cells fan out over the engine's
/// worker pool and both tables are byte-identical whatever the worker
/// count.
///
/// T12 is the cross-check. The two analyses must mesh — an edit the
/// validator proves inequivalent is either an oracle-predicted detection
/// (`caught`) or lands on the tamper surface the oracle already reports
/// (`known_gap`); the `unexplained` column counts disagreements off the
/// surface and must be zero everywhere.
///
/// T13 attributes the campaign's refusals: every `Refused` verdict the
/// memory-sensitive validator still returns maps to exactly one stable
/// [`flexprot_verify::RefusalReason`] code, so `refused` must equal the
/// sum of the three reason columns in every row (the `unattributed`
/// column pins that difference at zero). The `proven` column counts
/// mutations the sharper domain proves outright (semantically transparent
/// edits, e.g. resigned guard words), which is the precision the alias
/// analysis buys: under the store-blind domain these were blanket
/// refusals.
pub fn t12_t13_crosscheck(params: &Params, engine: &Engine) -> [Table; 2] {
    let mut t12 = Table::new(
        "T12",
        "Translation validator vs static oracle cross-check",
        &[
            "config",
            "workload",
            "trials",
            "inequivalent",
            "refused",
            "predicted",
            "caught",
            "known_gap",
            "harmless_caught",
            "benign",
            "unexplained",
        ],
    );
    let mut t13 = Table::new(
        "T13",
        "Validator refusal attribution by typed reason",
        &[
            "config",
            "workload",
            "trials",
            "proven",
            "inequivalent",
            "refused",
            "store_writes_memory",
            "store_may_alias_text",
            "branch_undecided",
            "unattributed",
        ],
    );
    let trials = params.trials() * 4;
    let mut jobs = Vec::new();
    for (config_name, config) in t3_configs() {
        for w in params.attack_workloads() {
            jobs.push((config_name, Job::new(w, config.clone())));
        }
    }
    let summaries = engine.run_jobs(&jobs, |ctx, (_, job)| {
        let base = ctx.cache().image(&job.workload);
        let protected = ctx.protected(job).expect("protect");
        let mut rng = flexprot_isa::Rng64::new(0xC405_5EED);
        flexprot_attack::cross_check(&base, &protected, trials, &mut rng)
    });
    for ((config_name, job), s) in jobs.iter().zip(&summaries) {
        let (config_name, workload) = ((*config_name).to_owned(), job.workload.name.to_owned());
        t12.push(vec![
            config_name.clone(),
            workload.clone(),
            s.trials.to_string(),
            s.inequivalent.to_string(),
            s.refused.to_string(),
            s.predicted.to_string(),
            s.caught_damage.to_string(),
            s.known_gaps.to_string(),
            s.harmless_caught.to_string(),
            s.benign.to_string(),
            s.unexplained.to_string(),
        ]);
        let attributed = s.refused_store_writes + s.refused_may_alias + s.refused_branch;
        t13.push(vec![
            config_name,
            workload,
            s.trials.to_string(),
            (s.trials - s.inequivalent - s.refused).to_string(),
            s.inequivalent.to_string(),
            s.refused.to_string(),
            s.refused_store_writes.to_string(),
            s.refused_may_alias.to_string(),
            s.refused_branch.to_string(),
            (s.refused - attributed).to_string(),
        ]);
    }
    [t12, t13]
}

/// How a registry entry builds its tables.
#[derive(Debug, Clone, Copy)]
pub enum Runner {
    /// One table from its own grid.
    One(fn(&Params, &Engine) -> Table),
    /// Two tables projected from one shared campaign.
    Two(fn(&Params, &Engine) -> [Table; 2]),
}

impl Runner {
    /// Runs the experiment and returns its tables in registry-id order.
    pub fn run(self, params: &Params, engine: &Engine) -> Vec<Table> {
        match self {
            Runner::One(run) => vec![run(params, engine)],
            Runner::Two(run) => run(params, engine).into(),
        }
    }
}

/// Every experiment in print order, tagged with the ids of the tables its
/// runner returns. Tables projected from one campaign share an entry, so
/// the campaign runs once; all runners share one engine, so artifacts
/// built by one experiment are reused by the next.
pub const EXPERIMENTS: [(&[&str], Runner); 14] = [
    (&["T1"], Runner::One(t1_characterize)),
    (&["T2"], Runner::One(t2_size_overhead)),
    (&["F1"], Runner::One(f1_guard_density)),
    (&["F2"], Runner::One(f2_decrypt_latency)),
    (&["F3"], Runner::One(f3_icache_sweep)),
    (&["T3", "T9"], Runner::Two(t3_t9_attack_matrix)),
    (&["F4"], Runner::One(f4_pareto)),
    (&["T4"], Runner::One(t4_placement)),
    (&["F5"], Runner::One(f5_estimator)),
    (&["T5"], Runner::One(t5_diversity)),
    (&["T6"], Runner::One(t6_stealth)),
    (&["F6"], Runner::One(f6_latency)),
    (&["T10"], Runner::One(t10_guardnet)),
    (&["T12", "T13"], Runner::Two(t12_t13_crosscheck)),
];

#[cfg(test)]
mod tests {
    use super::*;

    const QUICK: Params = Params { quick: true };

    fn engine() -> Engine {
        Engine::new(2)
    }

    #[test]
    fn t1_rows_cover_quick_workloads() {
        let t = t1_characterize(&QUICK, &engine());
        assert_eq!(t.rows.len(), QUICK.workloads().len());
    }

    #[test]
    fn f1_overheads_increase_with_density() {
        let t = f1_guard_density(&QUICK, &engine());
        for row in &t.rows {
            let low: f64 = row[1].parse().unwrap();
            let high: f64 = row[2].parse().unwrap();
            assert!(high >= low, "row {row:?}");
            assert!(low >= 0.0);
        }
    }

    #[test]
    fn f2_serial_costs_at_least_pipelined() {
        let t = f2_decrypt_latency(&QUICK, &engine());
        for row in &t.rows {
            // columns: name, serial@2, pipe@2, serial@8, pipe@8
            let serial8: f64 = row[3].parse().unwrap();
            let pipe8: f64 = row[4].parse().unwrap();
            assert!(serial8 >= pipe8 - 0.01, "row {row:?}");
        }
    }

    #[test]
    fn f2_breakdown_attributes_overhead_to_decrypt_stall() {
        let t = f2_decrypt_latency(&QUICK, &engine());
        for row in &t.rows {
            // Columns: name, serial@2, pipe@2, serial@8, pipe@8, then the
            // appended (dstall, miss) pairs for 2ser/2pipe/8ser/8pipe.
            let serial8: f64 = row[3].parse().unwrap();
            let dstall8: f64 = row[9].parse().unwrap();
            let miss8: f64 = row[10].parse().unwrap();
            // Whole-program encryption changes no layout, so the entire
            // overhead is decrypt stall — the breakdown must reconcile.
            assert!((serial8 - dstall8).abs() < 0.02, "row {row:?}");
            assert!(miss8 > 0.0, "row {row:?}");
        }
    }

    #[test]
    fn f3_breakdown_shrinks_with_larger_icache() {
        let t = f3_icache_sweep(&QUICK, &engine());
        for row in &t.rows {
            // Columns: name, +%@256B, miss%@256B, +%@4096B, miss%@4096B,
            // then appended dstall%/fill% per size.
            let dstall_small: f64 = row[5].parse().unwrap();
            let fill_small: f64 = row[6].parse().unwrap();
            let dstall_large: f64 = row[7].parse().unwrap();
            let fill_large: f64 = row[8].parse().unwrap();
            assert!(dstall_large <= dstall_small + 0.01, "row {row:?}");
            assert!(fill_large <= fill_small + 0.01, "row {row:?}");
        }
    }

    #[test]
    fn t3_guards_beat_none_on_bitflips() {
        let [t, _] = t3_t9_attack_matrix(&QUICK, &engine());
        let rate = |config: &str, attack: &str| -> f64 {
            t.rows
                .iter()
                .find(|r| r[0] == config && r[1] == attack)
                .map(|r| r[7].parse().unwrap())
                .unwrap()
        };
        assert!(rate("guards", "bit-flip") >= rate("none", "bit-flip"));
        assert!(rate("guards+enc", "code-inject") >= rate("none", "code-inject"));
    }

    #[test]
    fn t9_oracle_is_accurate_on_protected_configs() {
        let [_, t] = t3_t9_attack_matrix(&QUICK, &engine());
        // Aggregate the confusion matrices over every protected config
        // (the "none" rows characterise the unprotected baseline, where
        // only decode faults are predictable).
        let (mut tp, mut fp, mut fneg, mut effective) = (0u64, 0u64, 0u64, 0u64);
        for row in t.rows.iter().filter(|r| r[0] != "none") {
            effective += row[2].parse::<u64>().unwrap();
            tp += row[3].parse::<u64>().unwrap();
            fp += row[4].parse::<u64>().unwrap();
            fneg += row[5].parse::<u64>().unwrap();
        }
        assert!(effective > 0, "{t}");
        let precision = tp as f64 / (tp + fp).max(1) as f64;
        let recall = tp as f64 / (tp + fneg).max(1) as f64;
        assert!(precision >= 0.9, "precision {precision:.3}\n{t}");
        assert!(recall >= 0.9, "recall {recall:.3}\n{t}");
    }

    #[test]
    fn t3_and_t9_project_one_attack_campaign() {
        let engine = engine();
        let [t3, t9] = t3_t9_attack_matrix(&QUICK, &engine);
        let column = |t: &Table, row: &[String], name: &str| -> u64 {
            let i = t.headers.iter().position(|h| h == name).unwrap();
            row[i].parse().unwrap()
        };
        // The grid ran once: the engine counted exactly the trials T3
        // reports as applied.
        let applied: u64 = t3.rows.iter().map(|r| column(&t3, r, "applied")).sum();
        assert!(applied > 0, "{t3}");
        assert_eq!(
            engine.metrics().counter("attack_trials_applied"),
            applied,
            "{t3}"
        );
        // T9 reads the same summaries: row for row, the oracle scores
        // exactly the effective (non-benign) trials T3 counted.
        assert_eq!(t3.rows.len(), t9.rows.len());
        for (r3, r9) in t3.rows.iter().zip(&t9.rows) {
            assert_eq!(r3[..2], r9[..2]);
            let effective = column(&t3, r3, "applied") - column(&t3, r3, "benign");
            assert_eq!(column(&t9, r9, "effective"), effective, "{t3}\n{t9}");
        }
    }

    #[test]
    fn t12_crosscheck_has_zero_unexplained_disagreements() {
        let [t, _] = t12_t13_crosscheck(&QUICK, &engine());
        // Quick mode: rle crossed with the four T3 configs.
        assert_eq!(t.rows.len(), 4, "{t}");
        for row in &t.rows {
            // trials are conserved across the agreement classes.
            let trials: u32 = row[2].parse().unwrap();
            let classes: u32 = row[6..=10].iter().map(|c| c.parse::<u32>().unwrap()).sum();
            assert_eq!(trials, classes, "{t}");
            // The acceptance criterion: zero unexplained disagreements.
            assert_eq!(row[10], "0", "{t}");
            // Random single-word edits do real damage everywhere.
            assert!(row[3].parse::<u32>().unwrap() > 0, "{t}");
        }
        // Known gaps exist only where coverage has holes: the fully
        // guarded+encrypted config leaves none.
        let strong = t.rows.iter().find(|r| r[0] == "guards+enc").unwrap();
        assert_eq!(strong[7], "0", "{t}");
    }

    #[test]
    fn t13_attributes_every_refusal_to_a_typed_reason() {
        let [_, t] = t12_t13_crosscheck(&QUICK, &engine());
        assert_eq!(t.rows.len(), 4, "{t}");
        for row in &t.rows {
            // Verdicts are conserved: proven + inequivalent + refused.
            let trials: u32 = row[2].parse().unwrap();
            let verdicts: u32 = row[3..=5].iter().map(|c| c.parse::<u32>().unwrap()).sum();
            assert_eq!(trials, verdicts, "{t}");
            // The acceptance criterion: zero unattributed refusals.
            assert_eq!(row[9], "0", "{t}");
            let refused: u32 = row[5].parse().unwrap();
            let reasons: u32 = row[6..=8].iter().map(|c| c.parse::<u32>().unwrap()).sum();
            assert_eq!(refused, reasons, "{t}");
        }
    }

    #[test]
    fn t10_targeting_beats_random_on_the_weak_config() {
        let t = t10_guardnet(&QUICK, &engine());
        // Quick mode: rle at densities 0.25 and 1.0.
        assert_eq!(t.rows.len(), 2);
        let weak = &t.rows[0];
        assert_eq!(weak[1], "0.25");
        // The emitter's windows are disjoint, so the network is edgeless
        // and already disconnected: cut size 0.
        assert_eq!(weak[4], "0");
        assert_eq!(weak[5], "0");
        let targeted: f64 = weak[7].parse().unwrap();
        let random: f64 = weak[8].parse().unwrap();
        assert!(targeted > random, "{t}");
    }

    #[test]
    fn shared_engine_reuses_artifacts_across_experiments() {
        let engine = engine();
        t2_size_overhead(&QUICK, &engine);
        let after_t2 = engine.cache().stats();
        // F1 sweeps the same (workload, density) grid, so every protected
        // build and compiled image is already cached.
        f1_guard_density(&QUICK, &engine);
        let after_f1 = engine.cache().stats();
        assert!(
            after_f1.hits > after_t2.hits,
            "F1 must hit artifacts T2 built: {after_t2:?} -> {after_f1:?}"
        );
    }
}
