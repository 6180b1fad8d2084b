//! The four tool drivers.

use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

use flexprot_core::{
    protect, EncryptConfig, Granularity, GuardConfig, Placement, Protected, ProtectionConfig,
    Selection,
};
use flexprot_exec::{default_jobs, matrix, Engine, Job};
use flexprot_isa::Image;
use flexprot_secmon::{DecryptModel, SecMon, SecMonConfig};
use flexprot_sim::{CacheConfig, Machine, Outcome, SimConfig};
use flexprot_trace::Recorder;

use crate::args::{parse, Args};

/// Any failure a driver can report (message already formatted for users).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

impl From<String> for CliError {
    fn from(message: String) -> CliError {
        CliError(message)
    }
}

fn read(path: &str) -> Result<Vec<u8>, CliError> {
    std::fs::read(path).map_err(|e| CliError(format!("cannot read {path}: {e}")))
}

fn cannot_write(path: &str) -> impl FnOnce(std::io::Error) -> CliError + '_ {
    move |e| CliError(format!("cannot write {path}: {e}"))
}

/// Creates (or truncates) the output file `path` and its parent directories.
fn create(path: &str) -> Result<File, CliError> {
    if let Some(dir) = Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)
                .map_err(|e| CliError(format!("cannot create {}: {e}", dir.display())))?;
        }
    }
    File::create(path).map_err(cannot_write(path))
}

fn write(path: &str, bytes: &[u8]) -> Result<(), CliError> {
    create(path)?.write_all(bytes).map_err(cannot_write(path))
}

fn load_image(path: &str) -> Result<Image, CliError> {
    Image::from_bytes(&read(path)?).map_err(|e| CliError(format!("{path}: {e}")))
}

fn load_secmon(path: &str) -> Result<SecMonConfig, CliError> {
    SecMonConfig::from_bytes(&read(path)?).map_err(|e| CliError(format!("{path}: {e}")))
}

/// The `--secmon` config, or the transparent monitor without one.
fn secmon_arg(args: &Args) -> Result<SecMonConfig, CliError> {
    args.value("secmon")
        .map_or_else(|| Ok(SecMonConfig::transparent()), load_secmon)
}

/// RFC-4180 escaping for one CSV field: a value containing a comma, a
/// double quote or a newline is quoted, with embedded quotes doubled.
/// Plain values (the overwhelming majority) pass through unchanged, so
/// existing baselines keep their bytes.
pub(crate) fn csv_field(value: &str) -> String {
    if value.contains([',', '"', '\n']) {
        format!("\"{}\"", value.replace('"', "\"\""))
    } else {
        value.to_owned()
    }
}

/// Joins one row with [`csv_field`] escaping applied to every cell.
pub(crate) fn csv_row(cells: &[String]) -> String {
    let mut line = String::new();
    for (i, cell) in cells.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        line.push_str(&csv_field(cell));
    }
    line
}

/// The shared option block of every batch driver (`fprun`'s multi-image
/// mode, `fpsurface`, `fpsweep`, `fpnetmap`): worker count plus the CSV
/// and metrics export paths. Parsing it in one place keeps `--jobs`
/// semantics identical everywhere — explicit `--jobs 0` is a usage error
/// (it used to clamp to one worker in some drivers while
/// `FLEXPROT_JOBS=0` silently fell back to the CPU count).
#[derive(Debug, Clone)]
pub(crate) struct BatchOpts {
    /// Worker threads; defaults to [`default_jobs`] (`FLEXPROT_JOBS` or
    /// the CPU count).
    pub workers: usize,
    /// `--csv <path>`: write the tabular report here.
    pub csv: Option<String>,
    /// `--metrics <path>`: write the engine's aggregate
    /// `flexprot-metrics-v1` document here.
    pub metrics: Option<String>,
}

impl BatchOpts {
    /// The valued option names this block consumes; splice into the
    /// driver's `parse` list.
    pub const VALUED: [&'static str; 3] = ["jobs", "csv", "metrics"];

    pub fn from_args(args: &Args) -> Result<BatchOpts, CliError> {
        let workers: usize = args.parse_or("jobs", default_jobs())?;
        if workers == 0 {
            return Err(CliError(
                "--jobs must be at least 1 (unset FLEXPROT_JOBS or omit --jobs for the default)"
                    .to_owned(),
            ));
        }
        Ok(BatchOpts {
            workers,
            csv: args.value("csv").map(str::to_owned),
            metrics: args.value("metrics").map(str::to_owned),
        })
    }

    /// Writes the CSV report if `--csv` was given.
    pub fn write_csv(&self, csv: &str) -> Result<(), CliError> {
        match &self.csv {
            Some(path) => write(path, csv.as_bytes()),
            None => Ok(()),
        }
    }

    /// Writes the engine's aggregate metrics if `--metrics` was given.
    pub fn write_metrics(&self, engine: &Engine) -> Result<(), CliError> {
        match &self.metrics {
            Some(path) => write(path, engine.metrics().to_json().as_bytes()),
            None => Ok(()),
        }
    }
}

/// `fpasm <input.s> -o <output.fpx>` — assemble a source file.
///
/// Returns the human-readable success message.
///
/// # Errors
///
/// Reports I/O, parse and assembly failures.
pub fn fpasm(raw_args: &[String]) -> Result<String, CliError> {
    let args = parse(raw_args, &["o"])?;
    let [input] = args.positional.as_slice() else {
        return Err(CliError(
            "usage: fpasm <input.s> [-o|--o <output.fpx>]".to_owned(),
        ));
    };
    let source = String::from_utf8(read(input)?)
        .map_err(|_| CliError(format!("{input}: not valid UTF-8")))?;
    let image = flexprot_asm::assemble(&source).map_err(|e| CliError(format!("{input}:{e}")))?;
    let output = args
        .value("o")
        .map(str::to_owned)
        .unwrap_or_else(|| format!("{}.fpx", input.trim_end_matches(".s")));
    write(&output, &image.to_bytes())?;
    Ok(format!(
        "assembled {input}: {} text words, {} data bytes -> {output}",
        image.text.len(),
        image.data.len()
    ))
}

/// `fpobjdump <image.fpx>` — disassembly, symbols and relocations.
///
/// # Errors
///
/// Reports I/O and container-format failures.
pub fn fpobjdump(raw_args: &[String]) -> Result<String, CliError> {
    let args = parse(raw_args, &["secmon"])?;
    let [input] = args.positional.as_slice() else {
        return Err(CliError(
            "usage: fpobjdump <image.fpx> [--secmon <cfg.fpm>]".to_owned(),
        ));
    };
    let image = load_image(input)?;
    let mut out = String::new();
    out.push_str(&format!(
        "{input}: entry {:#010x}, text {:#010x}+{} words, data {:#010x}+{} bytes\n\n",
        image.entry,
        image.text_base,
        image.text.len(),
        image.data_base,
        image.data.len()
    ));
    out.push_str("SYMBOLS\n");
    for (name, addr) in &image.symbols {
        out.push_str(&format!("  {addr:#010x}  {name}\n"));
    }
    out.push_str(&format!("\nRELOCATIONS ({})\n", image.relocs.len()));
    for reloc in &image.relocs {
        out.push_str(&format!(
            "  word {:>5}  {:<5} -> {:#010x}\n",
            reloc.text_index, reloc.kind, reloc.target
        ));
    }
    if let Some(path) = args.value("secmon") {
        let config = load_secmon(path)?;
        out.push_str(&format!(
            "\nMONITOR CONFIG ({path})\n  guard sites: {}\n  window starts: {}\n  protected ranges: {}\n  reset points: {}\n  spacing bound: {}\n  encrypted regions: {}\n  decrypt: {} cyc/word, startup {}, {}\n  halt on tamper: {}\n",
            config.sites.len(),
            config.window_starts.len(),
            config.protected.len(),
            config.reset_points.len(),
            config
                .spacing_bound
                .map_or_else(|| "disabled".to_owned(), |b| b.to_string()),
            config.regions.regions().len(),
            config.decrypt.cycles_per_word,
            config.decrypt.startup,
            if config.decrypt.pipelined { "pipelined" } else { "serial" },
            config.halt_on_tamper,
        ));
        out.push_str("  sites:\n");
        for (&addr, site) in &config.sites {
            let window = config.window_interval(addr).map_or_else(
                || "window unresolved".to_owned(),
                |(start, end)| format!("window [{start:#010x}, {end:#010x})"),
            );
            out.push_str(&format!(
                "    {addr:#010x}  {} symbols, tail {}, {window}\n",
                site.symbols, site.tail
            ));
        }
    }
    out.push_str("\nDISASSEMBLY\n");
    out.push_str(&image.disassemble());
    Ok(out)
}

/// `fpprotect <in.fpx> -o <out.fpx> --secmon <out.fpm> [options]`.
///
/// Options: `--density <0..1>`, `--placement uniform|random|coldest|loop`,
/// `--encrypt program|function|block`, `--guard-key N`, `--enc-key N`,
/// `--seed N`, `--no-spacing`, `--cycles-per-word N`, `--serial`,
/// `--watermark TEXT` (embedded in the guard salt channel), `--profile`
/// (run a baseline profiling simulation first, enabling cold-first
/// placement to see real execution counts).
///
/// # Errors
///
/// Reports I/O, format and protection-pass failures.
pub fn fpprotect(raw_args: &[String]) -> Result<String, CliError> {
    let args = parse(
        raw_args,
        &[
            "o",
            "secmon",
            "density",
            "placement",
            "encrypt",
            "guard-key",
            "enc-key",
            "seed",
            "cycles-per-word",
            "watermark",
        ],
    )?;
    let [input] = args.positional.as_slice() else {
        return Err(CliError(
            "usage: fpprotect <in.fpx> --o <out.fpx> --secmon <out.fpm> [options]".to_owned(),
        ));
    };
    let image = load_image(input)?;

    let mut config = ProtectionConfig::new();
    let density: f64 = args.parse_or("density", 0.0)?;
    if density > 0.0 {
        let placement = match args.value("placement").unwrap_or("uniform") {
            "uniform" => Placement::Uniform,
            "random" => Placement::Random,
            "coldest" => Placement::ColdestFirst,
            "loop" => Placement::LoopHeaders,
            other => return Err(CliError(format!("unknown placement `{other}`"))),
        };
        config.guards = Some(GuardConfig {
            key: args.parse_or("guard-key", 0x0BAD_C0DE_CAFE_F00Du64)?,
            seed: args.parse_or("seed", 1u64)?,
            placement,
            selection: Selection::Density(density),
            enforce_spacing: !args.has("no-spacing"),
        });
    }
    if let Some(granularity) = args.value("encrypt") {
        let granularity = match granularity {
            "program" => Granularity::Program,
            "function" => Granularity::Function,
            "block" => Granularity::Block,
            other => return Err(CliError(format!("unknown granularity `{other}`"))),
        };
        let cycles_per_word = args.parse_or("cycles-per-word", 2u64)?;
        if cycles_per_word > DecryptModel::MAX_CYCLES {
            return Err(CliError(format!(
                "--cycles-per-word must be at most {}",
                DecryptModel::MAX_CYCLES
            )));
        }
        config.encryption = Some(EncryptConfig {
            master_key: args.parse_or("enc-key", 0x5EED_5EED_5EED_5EEDu64)?,
            granularity,
            model: DecryptModel {
                cycles_per_word,
                startup: 4,
                pipelined: !args.has("serial"),
            },
            scope: None,
        });
    }
    if let Some(text) = args.value("watermark") {
        config.watermark = Some(text.as_bytes().to_vec());
    }
    let profile = if args.has("profile") {
        let (profile, result) = flexprot_core::Profile::collect(&image, &SimConfig::default());
        if result.outcome != Outcome::Exit(0) {
            return Err(CliError(format!(
                "profiling run did not exit cleanly: {:?}",
                result.outcome
            )));
        }
        Some(profile)
    } else {
        None
    };
    let protected =
        protect(&image, &config, profile.as_ref()).map_err(|e| CliError(e.to_string()))?;

    let out_path = args
        .value("o")
        .map(str::to_owned)
        .unwrap_or_else(|| format!("{input}.prot"));
    write(&out_path, &protected.image.to_bytes())?;
    let mut message = format!(
        "protected {input}: {} guards (+{:.1}% size), {} encrypted region(s) -> {out_path}",
        protected.report.guards_inserted,
        protected.report.size_overhead_fraction() * 100.0,
        protected.report.encrypted_regions
    );
    if let Some(secmon_path) = args.value("secmon") {
        write(secmon_path, &protected.secmon.to_bytes())?;
        message.push_str(&format!("; monitor config -> {secmon_path}"));
    }
    Ok(message)
}

/// What [`fprun`] produced.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// The program's console output.
    pub output: String,
    /// Human-readable outcome + optional stats block.
    pub report: String,
    /// Suggested process exit code.
    pub exit_code: i32,
}

fn fprun_sim(args: &Args) -> Result<SimConfig, CliError> {
    let mut sim = SimConfig {
        max_instructions: args.parse_or("max-instr", 200_000_000u64)?,
        ..SimConfig::default()
    };
    if let Some(bytes) = args.value("icache") {
        let size: u32 = bytes
            .parse()
            .map_err(|_| CliError(format!("invalid --icache `{bytes}`")))?;
        sim.icache = CacheConfig {
            size_bytes: size,
            ..CacheConfig::default_icache()
        };
        sim.icache
            .validate()
            .map_err(|e| CliError(format!("--icache: {e}")))?;
    }
    if let Some(kind) = args.value("engine") {
        sim.engine = kind
            .parse()
            .map_err(|e| CliError(format!("--engine: {e}")))?;
    }
    Ok(sim)
}

fn outcome_code(outcome: &Outcome) -> (String, i32) {
    match outcome {
        Outcome::Exit(code) => (format!("exit {code}"), *code),
        Outcome::TamperDetected(event) => (format!("TAMPER: {event}"), 101),
        Outcome::Fault(fault) => (format!("FAULT: {fault}"), 102),
        Outcome::OutOfFuel => ("out of fuel".to_owned(), 103),
    }
}

/// `fprun <image.fpx>... [--secmon <cfg.fpm>] [--icache BYTES]
/// [--max-instr N] [--engine predecoded|reference] [--jobs N] [--stats]
/// [--metrics <out.json>] [--trace <out.jsonl>]`.
///
/// `--engine` selects the simulator core: `predecoded` (the default
/// fill-path engine) or `reference` (the per-fetch interpreter kept for
/// differential checking). Both report identical outcomes and stats.
///
/// Exit-code contract: the program's own exit code on a clean run,
/// `101` for a tamper response, `102` for a CPU fault, `103` when the
/// `--max-instr` fuel limit was exhausted, and `2` for usage or I/O
/// errors.
///
/// `--metrics` writes the run's `flexprot-metrics-v1` counter/histogram
/// document, built at run end from the counters the simulator and the
/// secure monitor keep for themselves (`Machine::metrics`); it attaches
/// no sink. `--trace` attaches a [`Recorder`] to both the CPU and the
/// monitor, which streams every event as one line to a buffered file
/// opened before the run; without it the run is uninstrumented.
///
/// With several images the runs are batched over an execution-engine
/// worker pool (`--jobs N`, default `FLEXPROT_JOBS`/CPU count); every
/// image shares the same monitor config and simulator flags, the report
/// carries one line per image in argument order, and `--metrics` writes
/// the merged aggregate document. `--trace` requires a single image.
///
/// # Errors
///
/// Reports I/O and format failures (simulation outcomes are reported in
/// the summary, not as errors).
pub fn fprun(raw_args: &[String]) -> Result<RunSummary, CliError> {
    let args = parse(
        raw_args,
        &[
            "secmon",
            "icache",
            "max-instr",
            "engine",
            "metrics",
            "trace",
            "jobs",
        ],
    )?;
    if args.positional.is_empty() {
        return Err(CliError(
            "usage: fprun <image.fpx>... [--secmon <cfg.fpm>] [--jobs N] [--stats]".to_owned(),
        ));
    }
    if args.positional.len() > 1 {
        return fprun_batch(&args);
    }
    let input = &args.positional[0];
    let image = load_image(input)?;
    let sim = fprun_sim(&args)?;
    let mut machine = Machine::with_monitor(&image, sim, SecMon::new(secmon_arg(&args)?));
    let trace = match args.value("trace") {
        Some(path) => {
            let (sink, recorder) = Recorder::with_writer(BufWriter::new(create(path)?)).shared();
            machine.monitor_mut().attach_sink(sink.clone());
            machine.attach_sink(sink);
            Some((path, recorder))
        }
        None => None,
    };
    let result = machine.run();
    if let Some((path, recorder)) = trace {
        recorder.borrow_mut().finish().map_err(cannot_write(path))?;
    }
    if let Some(path) = args.value("metrics") {
        write(path, machine.metrics().to_json().as_bytes())?;
    }

    let (outcome_text, exit_code) = outcome_code(&result.outcome);
    let mut report = outcome_text;
    if args.has("stats") {
        report.push_str(&format!(
            "\ninstructions {}\ncycles       {}\nCPI          {:.3}\nI-miss       {:.4}%\nD-miss       {:.4}%\nmonitor fill {} cycles",
            result.stats.instructions,
            result.stats.cycles,
            result.stats.cpi(),
            result.stats.icache_miss_rate() * 100.0,
            result.stats.dcache_miss_rate() * 100.0,
            result.stats.monitor_fill_cycles,
        ));
    }
    Ok(RunSummary {
        output: result.output,
        report,
        exit_code,
    })
}

/// Several positional images: fan the runs out over an [`Engine`] pool.
/// Outputs and report lines come back in argument order whatever the
/// worker count.
fn fprun_batch(args: &Args) -> Result<RunSummary, CliError> {
    if args.value("trace").is_some() {
        return Err(CliError(
            "--trace requires a single image (run the batch without it)".to_owned(),
        ));
    }
    let sim = fprun_sim(args)?;
    let secmon = secmon_arg(args)?;
    let batch = BatchOpts::from_args(args)?;
    let want_metrics = batch.metrics.is_some();
    let want_stats = args.has("stats");
    let engine = Engine::new(batch.workers);
    let results = engine.run_jobs(&args.positional, |ctx, path| {
        let image = load_image(path)?;
        let mut machine = Machine::with_monitor(&image, sim.clone(), SecMon::new(secmon.clone()));
        let result = machine.run();
        if want_metrics {
            ctx.merge_metrics(&machine.metrics());
        }
        let (text, code) = outcome_code(&result.outcome);
        let mut line = format!("{path}: {text}");
        if want_stats {
            line.push_str(&format!(
                " ({} instrs, {} cycles, CPI {:.3})",
                result.stats.instructions,
                result.stats.cycles,
                result.stats.cpi()
            ));
        }
        Ok::<_, CliError>((result.output, line, code))
    });
    let mut outputs = Vec::new();
    let mut lines = Vec::new();
    let mut exit_code = 0;
    for result in results {
        let (output, line, code) = result?;
        outputs.push(output);
        lines.push(line);
        if exit_code == 0 {
            exit_code = code;
        }
    }
    batch.write_metrics(&engine)?;
    Ok(RunSummary {
        output: outputs.join("\n"),
        report: lines.join("\n"),
        exit_code,
    })
}

/// What [`fplint`] produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintSummary {
    /// Rendered report (human or CSV).
    pub report: String,
    /// Suggested process exit code (see [`fplint`]'s exit-code contract).
    pub exit_code: i32,
}

/// `fplint <image.fpx> [--secmon <cfg.fpm>] [--deny L,..] [--allow L,..]
/// [--format human|csv|json] [--csv] [--taint] [--surface] [--guardnet]
/// [--equiv <baseline.fpx>] [--lints]`.
///
/// Statically verifies the protection contract of an image against its
/// monitor configuration (transparent configuration if `--secmon` is
/// omitted). `--deny`/`--allow` take comma-separated lint IDs or names;
/// `--format` selects the report rendering (`--csv` is a shorthand for
/// `--format csv`; `json` emits the stable `flexprot-lint-v1` document);
/// `--taint` additionally runs the key-flow taint analysis (FP901–FP904
/// findings; the JSON document's `stats.taint` object carries the run
/// counters); `--surface` prints the static tamper-surface map
/// (`flexprot-surface-v1` JSON) and `--guardnet` the guard network with
/// its checksum proofs (`flexprot-guardnet-v1` JSON) instead of the lint
/// report; `--equiv <baseline.fpx>` runs the translation validator
/// against the given *baseline* image and prints the
/// `flexprot-equiv-v1` verdict document (FP8xx findings); `--lints`
/// prints the lint table and exits.
///
/// # Exit codes
///
/// The contract scripts rely on (stable across releases):
///
/// * `0` — the image verifies clean (no error-severity finding under the
///   effective policy);
/// * `1` — at least one finding at deny level: the image is rejected;
/// * `2` — usage or I/O error (unknown flag, unreadable file, bad
///   policy); the binaries map every [`CliError`] to this code.
///
/// # Errors
///
/// Reports I/O, format and policy failures. Findings are reported in the
/// summary, not as errors.
pub fn fplint(raw_args: &[String]) -> Result<LintSummary, CliError> {
    use flexprot_verify::{lint_by_id, LintPolicy, Shipped, LINTS};

    let args = parse(raw_args, &["secmon", "deny", "allow", "format", "equiv"])?;
    if args.has("lints") {
        let mut out = String::new();
        for lint in LINTS {
            // Severity's Display ignores format padding, so stringify it
            // first to keep the columns aligned across all families.
            let severity = lint.default_severity.to_string();
            out.push_str(&format!(
                "{}  {severity:<7}  {:<29}  {}\n",
                lint.id, lint.name, lint.description
            ));
        }
        return Ok(LintSummary {
            report: out,
            exit_code: 0,
        });
    }
    let [input] = args.positional.as_slice() else {
        return Err(CliError(
            "usage: fplint <image.fpx> [--secmon <cfg.fpm>] [--deny L,..] \
             [--allow L,..] [--format human|csv|json] [--csv] [--taint] \
             [--surface] [--guardnet] [--equiv <baseline.fpx>] [--lints]"
                .to_owned(),
        ));
    };
    let format = match args.value("format") {
        None if args.has("csv") => "csv",
        None => "human",
        Some(f @ ("human" | "csv" | "json")) => f,
        Some(other) => {
            return Err(CliError(format!(
                "--format: unknown format `{other}` (expected human, csv or json)"
            )));
        }
    };
    let image = load_image(input)?;
    let config = secmon_arg(&args)?;
    let list = |name: &str| -> Result<Vec<String>, CliError> {
        let Some(value) = args.value(name) else {
            return Ok(Vec::new());
        };
        value
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(|key| {
                lint_by_id(key)
                    .map(|l| l.id.to_owned())
                    .ok_or_else(|| CliError(format!("--{name}: unknown lint `{key}`")))
            })
            .collect()
    };
    let policy = LintPolicy::new(&list("deny")?, &list("allow")?).map_err(CliError)?;
    let shipped = Shipped::new(&image, &config);
    if let Some(base_path) = args.value("equiv") {
        let base = load_image(base_path)?;
        let equiv = shipped.validate(&base, &policy);
        return Ok(LintSummary {
            report: equiv.to_json(),
            exit_code: i32::from(!equiv.is_clean()),
        });
    }
    let verification = shipped.analyze(&policy, args.has("taint"));
    let report = if args.has("guardnet") {
        verification.guardnet_json()
    } else if args.has("surface") {
        verification.surface.to_json()
    } else {
        match format {
            "csv" => verification.report.render_csv(),
            "json" => verification.report.render_json(),
            _ => verification.report.render_human(),
        }
    };
    Ok(LintSummary {
        report,
        exit_code: i32::from(!verification.report.is_clean()),
    })
}

/// One protection-matrix cell as a matrix sweep reports it.
struct CellReport {
    /// The CSV row, starting with the program and cell names.
    row: Vec<String>,
    /// Error-severity findings in the cell; any one makes the exit code 1.
    errors: usize,
    /// Rows for the sweep's side ledger, if it writes one.
    ledger: Vec<Vec<String>>,
}

/// A CSV file a sweep writes next to its main report: the valued option
/// that names its path, and its header line.
struct Ledger {
    option: &'static str,
    header: &'static str,
}

/// The skeleton of every protection-matrix sweep: parses `--programs`,
/// the ledger option and the [`BatchOpts`] block, protects each cell of
/// the golden [`matrix`] on `--jobs` workers, assembles the `cell_report`
/// rows in matrix order (identical whatever the worker count), writes the
/// requested files, and suggests exit code 1 when any cell has
/// error-severity findings. Unknown `--programs` names are usage errors.
fn matrix_sweep(
    raw_args: &[String],
    usage: &str,
    header: &str,
    ledger: Option<Ledger>,
    cell_report: fn(&str, &str, &Image, &Protected) -> CellReport,
) -> Result<LintSummary, CliError> {
    let mut valued = vec!["programs"];
    valued.extend(ledger.as_ref().map(|l| l.option));
    valued.extend(BatchOpts::VALUED);
    let args = parse(raw_args, &valued)?;
    if !args.positional.is_empty() {
        return Err(CliError(usage.to_owned()));
    }
    let batch = BatchOpts::from_args(&args)?;
    let mut programs = matrix::programs();
    if let Some(filter) = args.value("programs") {
        let wanted: Vec<&str> = filter
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .collect();
        let known: Vec<&str> = programs.iter().map(|(n, _)| n.as_str()).collect();
        if let Some(name) = wanted.iter().find(|w| !known.contains(w)) {
            return Err(CliError(format!(
                "--programs: unknown program `{name}`; known: {}",
                known.join(", ")
            )));
        }
        programs.retain(|(name, _)| wanted.contains(&name.as_str()));
    }
    let cells = matrix::cells();
    let jobs: Vec<(&str, &Image, &str, &ProtectionConfig)> = programs
        .iter()
        .flat_map(|(name, image)| {
            cells
                .iter()
                .map(move |(cell, config)| (name.as_str(), image, *cell, config))
        })
        .collect();

    let engine = Engine::new(batch.workers);
    let results = engine.run_jobs(&jobs, |_ctx, &(name, image, cell, config)| {
        let protected = protect(image, config, None)
            .map_err(|e| CliError(format!("{name}/{cell}: protect failed: {e}")))?;
        Ok::<_, CliError>(cell_report(name, cell, image, &protected))
    });

    let mut csv = format!("{header}\n");
    let mut side = ledger
        .as_ref()
        .map(|l| format!("{}\n", l.header))
        .unwrap_or_default();
    let mut errors = 0usize;
    for result in results {
        let cell = result?;
        errors += cell.errors;
        csv.push_str(&csv_row(&cell.row));
        csv.push('\n');
        for row in &cell.ledger {
            side.push_str(&csv_row(row));
            side.push('\n');
        }
    }
    batch.write_csv(&csv)?;
    if let Some(path) = ledger.and_then(|l| args.value(l.option)) {
        write(path, side.as_bytes())?;
    }
    batch.write_metrics(&engine)?;
    Ok(LintSummary {
        report: csv,
        exit_code: i32::from(errors > 0),
    })
}

/// `fpsurface [--programs a,b,..] [--jobs N] [--csv <out.csv>]` — lint
/// every golden program of the protection matrix and tabulate its static
/// tamper surface.
///
/// The grid is [`flexprot_exec::matrix`]: the reference MiniC kernels and
/// three assembly workloads crossed with the seven protection cells (no
/// protection, guards at two densities, encryption at three
/// granularities, guards+encryption). Each cell protects the program,
/// runs the full static analysis ([`flexprot_verify::analyze`]) on the
/// shipped image, and reports one CSV row; cells fan out over `--jobs`
/// workers through the batched execution engine and the rows are
/// identical whatever the worker count. The suggested exit code is 1
/// when any cell has error-severity findings, which is how CI gates on
/// it.
///
/// # Errors
///
/// Reports unknown program names and I/O failures.
pub fn fpsurface(raw_args: &[String]) -> Result<LintSummary, CliError> {
    matrix_sweep(
        raw_args,
        "usage: fpsurface [--programs a,b,..] [--jobs N] [--csv <out.csv>] \
         [--metrics <out.json>]",
        "program,cell,text_words,reachable,windows,covered,encrypted,surface,\
         errors,warnings,full_coverage",
        None,
        surface_cell,
    )
}

/// One `fpsurface` row: the static tamper surface of a protected cell.
fn surface_cell(name: &str, cell: &str, _base: &Image, protected: &Protected) -> CellReport {
    use flexprot_verify::{LintPolicy, Severity};

    let verification =
        flexprot_verify::analyze(&protected.image, &protected.secmon, &LintPolicy::default());
    let map = &verification.surface;
    let errors = verification.report.count(Severity::Error);
    CellReport {
        row: vec![
            name.to_owned(),
            cell.to_owned(),
            map.text_words.to_string(),
            map.reachable.iter().filter(|&&r| r).count().to_string(),
            map.sound_windows.to_string(),
            map.covered_words().to_string(),
            map.encrypted_words().to_string(),
            map.surface_words().to_string(),
            errors.to_string(),
            verification.report.count(Severity::Warning).to_string(),
            map.full_reachable_coverage().to_string(),
        ],
        errors,
        ledger: Vec::new(),
    }
}

/// `fpnetmap [--programs a,b,..] [--jobs N] [--csv <out.csv>]
/// [--refusals <out.csv>] [--metrics <out.json>]` — tabulate the guard
/// network and checksum proofs of every protection-matrix cell.
///
/// Each cell of [`flexprot_exec::matrix`] protects the program, builds
/// the who-checks-whom guard digraph and the abstract-interpretation
/// checksum proofs ([`flexprot_verify::analyze`]), and reports one CSV
/// row: guard/sound counts, edge and SCC counts,
/// unchecked/acyclic/articulation tallies, the minimum-cut size (`none`
/// when no cut disconnects the network), and the proof verdict tally
/// (proven/mismatch/unproven). Cells fan out over `--jobs` workers and
/// the rows are identical whatever the worker count. The suggested exit
/// code is 1 when any cell has an error-severity finding (a `mismatch`
/// implies one via FP703).
///
/// `--refusals` writes the per-window refusal ledger alongside: one
/// `program,cell,site,verdict,code` row per guard window the prover
/// could *not* prove, keyed by the stable
/// [`flexprot_verify::UnprovenReason`] codes. CI pins this file as
/// `results/refusals_baseline.csv`, so any precision regression (a
/// window sliding back from proven) shows up as a new row in the diff.
///
/// # Errors
///
/// Reports unknown program names and I/O failures.
pub fn fpnetmap(raw_args: &[String]) -> Result<LintSummary, CliError> {
    matrix_sweep(
        raw_args,
        "usage: fpnetmap [--programs a,b,..] [--jobs N] [--csv <out.csv>] \
         [--refusals <out.csv>] [--metrics <out.json>]",
        "program,cell,guards,sound,edges,sccs,unchecked,acyclic,articulation,\
         min_cut,proven,mismatch,unproven,errors",
        Some(Ledger {
            option: "refusals",
            header: "program,cell,site,verdict,code",
        }),
        netmap_cell,
    )
}

/// One `fpnetmap` row, plus a refusal-ledger row per window the checksum
/// prover did not prove.
fn netmap_cell(name: &str, cell: &str, _base: &Image, protected: &Protected) -> CellReport {
    use flexprot_verify::{LintPolicy, Severity, Verdict};

    let v = flexprot_verify::analyze(&protected.image, &protected.secmon, &LintPolicy::default());
    let net = &v.guardnet;
    let (mut proven, mut mismatch, mut unproven) = (0usize, 0usize, 0usize);
    let mut ledger: Vec<Vec<String>> = Vec::new();
    for proof in &v.proofs {
        let (verdict, code) = match &proof.verdict {
            Verdict::Proven { .. } => {
                proven += 1;
                continue;
            }
            Verdict::Mismatch { .. } => {
                mismatch += 1;
                ("mismatch", "signature_mismatch")
            }
            Verdict::Unproven { reason } => {
                unproven += 1;
                ("unproven", reason.code())
            }
        };
        ledger.push(vec![
            name.to_owned(),
            cell.to_owned(),
            format!("{:#010x}", proof.site_addr),
            verdict.to_owned(),
            code.to_owned(),
        ]);
    }
    let min_cut = match &net.min_cut {
        None => "none".to_owned(),
        Some(cut) => cut.len().to_string(),
    };
    let errors = v.report.count(Severity::Error);
    CellReport {
        row: vec![
            name.to_owned(),
            cell.to_owned(),
            net.nodes.len().to_string(),
            net.sound_count().to_string(),
            net.edges.to_string(),
            net.scc_count.to_string(),
            net.unchecked_count().to_string(),
            net.acyclic_count().to_string(),
            net.nodes
                .iter()
                .filter(|n| n.articulation)
                .count()
                .to_string(),
            min_cut,
            proven.to_string(),
            mismatch.to_string(),
            unproven.to_string(),
            errors.to_string(),
        ],
        errors,
        ledger,
    }
}

/// `fpequiv [--programs a,b,..] [--jobs N] [--csv <out.csv>]
/// [--metrics <out.json>]` — translation-validate every cell of the
/// protection matrix.
///
/// Each cell of [`flexprot_exec::matrix`] protects the program and runs
/// the translation validator ([`flexprot_verify::equiv`]) against the
/// unprotected baseline: CFG alignment modulo inserted guard runs,
/// guard-window transparency (no live architectural state written), and
/// cipher round-trip identity. One CSV row per cell carries the
/// three-valued verdict (`proven` / `inequivalent` / `refused`), the
/// witness address when one exists, the alignment and window tallies,
/// the per-window refusal reasons as a `code:count` tally keyed by the
/// stable [`flexprot_verify::RefusalReason`] codes (`none` when every
/// window is proven), and the FP801–FP804 finding counts. Cells fan out
/// over `--jobs` workers through the batched execution engine and the
/// rows are identical whatever the worker count.
///
/// # Exit codes
///
/// Same contract as [`fplint`]: `0` when every cell is proven (or
/// soundly refused with only warning-severity findings), `1` when any
/// cell has an error-severity finding, `2` (from the binary) on usage
/// or I/O errors.
///
/// # Errors
///
/// Reports unknown program names and I/O failures.
pub fn fpequiv(raw_args: &[String]) -> Result<LintSummary, CliError> {
    matrix_sweep(
        raw_args,
        "usage: fpequiv [--programs a,b,..] [--jobs N] [--csv <out.csv>] \
         [--metrics <out.json>]",
        "program,cell,verdict,witness,base_words,prot_words,guard_words,aligned,\
         windows_proven,windows_refused,refusal_codes,cipher_regions,cipher_words,\
         fp801,fp802,fp803,fp804,errors",
        None,
        equiv_cell,
    )
}

/// One `fpequiv` row: the translation-validation verdict of a protected
/// cell against its unprotected `base`.
fn equiv_cell(name: &str, cell: &str, base: &Image, protected: &Protected) -> CellReport {
    use flexprot_verify::{equiv, Severity};

    let report = equiv::validate(base, &protected.image, &protected.secmon);
    let witness = match report.verdict {
        equiv::EquivVerdict::Inequivalent { witness_addr } => format!("{witness_addr:#010x}"),
        _ => "none".to_owned(),
    };
    let errors = report
        .findings
        .iter()
        .filter(|f| f.severity == Severity::Error)
        .count();
    let mut by_code: std::collections::BTreeMap<&'static str, usize> =
        std::collections::BTreeMap::new();
    for (_, reason) in &report.refusals {
        *by_code.entry(reason.code()).or_default() += 1;
    }
    let refusal_codes = if by_code.is_empty() {
        "none".to_owned()
    } else {
        by_code
            .iter()
            .map(|(code, count)| format!("{code}:{count}"))
            .collect::<Vec<_>>()
            .join(";")
    };
    CellReport {
        row: vec![
            name.to_owned(),
            cell.to_owned(),
            report.verdict.label().to_owned(),
            witness,
            report.stats.base_words.to_string(),
            report.stats.prot_words.to_string(),
            report.stats.guard_words.to_string(),
            report.stats.aligned_words.to_string(),
            report.stats.windows_proven.to_string(),
            report.stats.windows_refused.to_string(),
            refusal_codes,
            report.stats.cipher_regions.to_string(),
            report.stats.cipher_words.to_string(),
            report.count_id("FP801").to_string(),
            report.count_id("FP802").to_string(),
            report.count_id("FP803").to_string(),
            report.count_id("FP804").to_string(),
            errors.to_string(),
        ],
        errors,
        ledger: Vec::new(),
    }
}

/// `fpcc <input.c> [-o|--o <output.fpx>] [--emit-asm]` — compile MiniC.
///
/// With `--emit-asm` the generated assembly is written next to the image
/// (same stem, `.s` extension).
///
/// # Errors
///
/// Reports I/O and compilation failures.
pub fn fpcc(raw_args: &[String]) -> Result<String, CliError> {
    let args = parse(raw_args, &["o"])?;
    let [input] = args.positional.as_slice() else {
        return Err(CliError(
            "usage: fpcc <input.c> [-o|--o <output.fpx>] [--emit-asm]".to_owned(),
        ));
    };
    let source = String::from_utf8(read(input)?)
        .map_err(|_| CliError(format!("{input}: not valid UTF-8")))?;
    let asm = flexprot_cc::compile(&source).map_err(|e| CliError(format!("{input}: {e}")))?;
    let image =
        flexprot_asm::assemble(&asm).map_err(|e| CliError(format!("{input}: internal: {e}")))?;
    let stem = input.trim_end_matches(".c");
    let output = args
        .value("o")
        .map(str::to_owned)
        .unwrap_or_else(|| format!("{stem}.fpx"));
    write(&output, &image.to_bytes())?;
    let mut message = format!(
        "compiled {input}: {} text words, {} data bytes -> {output}",
        image.text.len(),
        image.data.len()
    );
    if args.has("emit-asm") {
        let asm_path = format!("{stem}.s");
        write(&asm_path, asm.as_bytes())?;
        message.push_str(&format!("; assembly -> {asm_path}"));
    }
    Ok(message)
}

/// `fpsweep [--workloads a,b,..] [--densities 0.25,1.0,..] [--encrypt]
/// [--jobs N] [--csv <out.csv>] [--metrics <out.json>]` — run a guard
/// density sweep over built-in workloads on the batched execution engine.
///
/// Each (workload, density) cell protects the kernel with uniform
/// profile-guided guards at that density (plus whole-program encryption
/// under `--encrypt`), runs it, and reports the cycle overhead against the
/// cached unprotected baseline. Cells fan out over `--jobs` workers;
/// compiled images, baselines and protected binaries are shared through
/// the engine's artifact cache, and the rendered rows are identical
/// whatever the worker count.
///
/// # Errors
///
/// Reports unknown workloads, malformed densities and I/O failures.
pub fn fpsweep(raw_args: &[String]) -> Result<String, CliError> {
    let mut valued = vec!["workloads", "densities"];
    valued.extend(BatchOpts::VALUED);
    let args = parse(raw_args, &valued)?;
    if !args.positional.is_empty() {
        return Err(CliError(
            "usage: fpsweep [--workloads a,b,..] [--densities 0.25,1.0,..] \
             [--encrypt] [--jobs N] [--csv <out.csv>] [--metrics <out.json>]"
                .to_owned(),
        ));
    }
    let mut workloads = Vec::new();
    for name in args
        .value("workloads")
        .unwrap_or("rle,qsort,dijkstra")
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
    {
        workloads.push(flexprot_workloads::by_name(name).ok_or_else(|| {
            let known: Vec<&str> = flexprot_workloads::all().iter().map(|w| w.name).collect();
            CliError(format!(
                "unknown workload `{name}`; known: {}",
                known.join(", ")
            ))
        })?);
    }
    let mut densities = Vec::new();
    for token in args
        .value("densities")
        .unwrap_or("0.25,1.0")
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
    {
        let density: f64 = token
            .parse()
            .map_err(|_| CliError(format!("invalid density `{token}`")))?;
        if !(density > 0.0 && density <= 1.0) {
            return Err(CliError(format!("density `{token}` out of range (0, 1]")));
        }
        densities.push(density);
    }
    let encrypt = args.has("encrypt");

    // Workload-major grid of (display tag, profiled job) cells.
    let mut grid = Vec::new();
    for &workload in &workloads {
        for &density in &densities {
            let mut config = ProtectionConfig::new().with_guards(GuardConfig {
                key: 0x0BAD_C0DE_CAFE_F00D,
                seed: 7,
                placement: Placement::Uniform,
                selection: Selection::Density(density),
                enforce_spacing: true,
            });
            let mut tag = format!("guards@{density}");
            if encrypt {
                config =
                    config.with_encryption(EncryptConfig::whole_program(0x5EED_5EED_5EED_5EED));
                tag.push_str("+enc");
            }
            grid.push((tag, Job::new(workload, config).profiled()));
        }
    }

    let batch = BatchOpts::from_args(&args)?;
    let engine = Engine::new(batch.workers);
    let cells = engine.run_jobs(&grid, |ctx, (_, job)| ctx.run_cell(job));

    let mut rows: Vec<Vec<String>> = vec![[
        "workload",
        "config",
        "base-cycles",
        "cycles",
        "+%",
        "guards",
    ]
    .iter()
    .map(|s| (*s).to_owned())
    .collect()];
    for ((tag, job), cell) in grid.iter().zip(&cells) {
        rows.push(vec![
            job.workload.name.to_owned(),
            tag.clone(),
            cell.baseline.run.stats.cycles.to_string(),
            cell.run.stats.cycles.to_string(),
            format!("{:.2}", cell.overhead_pct()),
            cell.protected.report.guards_inserted.to_string(),
        ]);
    }

    if batch.csv.is_some() {
        let mut csv = String::new();
        for row in &rows {
            csv.push_str(&csv_row(row));
            csv.push('\n');
        }
        batch.write_csv(&csv)?;
    }
    batch.write_metrics(&engine)?;

    let mut widths = vec![0usize; rows[0].len()];
    for row in &rows {
        for (width, cell) in widths.iter_mut().zip(row) {
            *width = (*width).max(cell.len());
        }
    }
    let mut out = String::new();
    for row in &rows {
        for (i, (cell, width)) in row.iter().zip(&widths).enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            out.push_str(&format!("{cell:>width$}"));
        }
        out.push('\n');
    }
    let stats = engine.cache().stats();
    out.push_str(&format!(
        "({} cells, {} workers, cache {} hits / {} misses)\n",
        grid.len(),
        engine.workers(),
        stats.hits,
        stats.misses
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| (*s).to_owned()).collect()
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("flexprot-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    fn write_sample_source(name: &str) -> String {
        let path = tmp(name);
        std::fs::write(
            &path,
            "main: li $a0, 5\n li $v0, 1\n syscall\n li $v0, 10\n syscall\n",
        )
        .unwrap();
        path
    }

    #[test]
    fn full_pipeline_assemble_protect_run() {
        let src = write_sample_source("pipe.s");
        let fpx = tmp("pipe.fpx");
        let prot = tmp("pipe.prot.fpx");
        let fpm = tmp("pipe.fpm");

        let msg = fpasm(&strs(&[&src, "--o", &fpx])).unwrap();
        assert!(msg.contains("text words"), "{msg}");

        let msg = fpprotect(&strs(&[
            &fpx,
            "--o",
            &prot,
            "--secmon",
            &fpm,
            "--density",
            "1.0",
            "--encrypt",
            "program",
        ]))
        .unwrap();
        assert!(msg.contains("guards"), "{msg}");

        // Without the monitor config the ciphertext must not run cleanly.
        let bare = fprun(&strs(&[&prot, "--max-instr", "100000"])).unwrap();
        assert_ne!(bare.exit_code, 0, "{bare:?}");

        // With the monitor it runs and prints 5.
        let run = fprun(&strs(&[&prot, "--secmon", &fpm, "--stats"])).unwrap();
        assert_eq!(run.exit_code, 0, "{run:?}");
        assert_eq!(run.output, "5");
        assert!(run.report.contains("cycles"));
    }

    #[test]
    fn objdump_shows_symbols_and_disasm() {
        let src = write_sample_source("dump.s");
        let fpx = tmp("dump.fpx");
        fpasm(&strs(&[&src, "--o", &fpx])).unwrap();
        let dump = fpobjdump(&strs(&[&fpx])).unwrap();
        assert!(dump.contains("SYMBOLS"));
        assert!(dump.contains("main"));
        assert!(dump.contains("syscall"));
    }

    #[test]
    fn objdump_renders_monitor_config() {
        let src = write_sample_source("dumpcfg.s");
        let fpx = tmp("dumpcfg.fpx");
        let prot = tmp("dumpcfg.prot.fpx");
        let fpm = tmp("dumpcfg.fpm");
        fpasm(&strs(&[&src, "--o", &fpx])).unwrap();
        fpprotect(&strs(&[
            &fpx,
            "--o",
            &prot,
            "--secmon",
            &fpm,
            "--density",
            "1.0",
            "--encrypt",
            "program",
        ]))
        .unwrap();
        let dump = fpobjdump(&strs(&[&prot, "--secmon", &fpm])).unwrap();
        assert!(dump.contains("MONITOR CONFIG"), "{dump}");
        assert!(dump.contains("guard sites"), "{dump}");
        assert!(dump.contains("symbols, tail"), "{dump}");
        assert!(dump.contains("window [0x"), "{dump}");
    }

    #[test]
    fn tamper_is_reported_with_distinct_exit_code() {
        let src = write_sample_source("tamper.s");
        let fpx = tmp("tamper.fpx");
        let prot = tmp("tamper.prot.fpx");
        let fpm = tmp("tamper.fpm");
        fpasm(&strs(&[&src, "--o", &fpx])).unwrap();
        fpprotect(&strs(&[
            &fpx,
            "--o",
            &prot,
            "--secmon",
            &fpm,
            "--density",
            "1.0",
        ]))
        .unwrap();
        // Flip one bit in the protected image on disk.
        let mut image = Image::from_bytes(&std::fs::read(&prot).unwrap()).unwrap();
        image.text[0] ^= 1 << 22;
        std::fs::write(&prot, image.to_bytes()).unwrap();
        let run = fprun(&strs(&[&prot, "--secmon", &fpm])).unwrap();
        assert!(
            run.exit_code == 101 || run.exit_code == 102,
            "expected tamper/fault, got {run:?}"
        );
    }

    #[test]
    fn out_of_fuel_has_distinct_exit_code_and_message() {
        let src = tmp("fuel.s");
        std::fs::write(&src, "main: j main\n").unwrap();
        let fpx = tmp("fuel.fpx");
        fpasm(&strs(&[&src, "--o", &fpx])).unwrap();
        let run = fprun(&strs(&[&fpx, "--max-instr", "1000"])).unwrap();
        assert_eq!(run.exit_code, 103, "{run:?}");
        assert!(run.report.contains("out of fuel"), "{run:?}");
    }

    #[test]
    fn fault_has_distinct_exit_code_and_message() {
        let src = tmp("fault.s");
        std::fs::write(&src, "main: break\n").unwrap();
        let fpx = tmp("fault.fpx");
        fpasm(&strs(&[&src, "--o", &fpx])).unwrap();
        let run = fprun(&strs(&[&fpx])).unwrap();
        assert_eq!(run.exit_code, 102, "{run:?}");
        assert!(run.report.contains("FAULT"), "{run:?}");
    }

    #[test]
    fn engine_flag_selects_core_and_rejects_unknown_names() {
        let src = write_sample_source("engine.s");
        let fpx = tmp("engine.fpx");
        fpasm(&strs(&[&src, "--o", &fpx])).unwrap();
        let fast = fprun(&strs(&[&fpx, "--stats"])).unwrap();
        let reference = fprun(&strs(&[&fpx, "--engine", "reference", "--stats"])).unwrap();
        assert_eq!(fast, reference);
        let err = fprun(&strs(&[&fpx, "--engine", "turbo"])).unwrap_err();
        assert!(err.to_string().contains("unknown engine"), "{err}");
    }

    #[test]
    fn fprun_emits_metrics_and_trace() {
        use flexprot_trace::json;

        let src = write_sample_source("obs.s");
        let fpx = tmp("obs.fpx");
        let prot = tmp("obs.prot.fpx");
        let fpm = tmp("obs.fpm");
        fpasm(&strs(&[&src, "--o", &fpx])).unwrap();
        fpprotect(&strs(&[
            &fpx,
            "--o",
            &prot,
            "--secmon",
            &fpm,
            "--density",
            "1.0",
            "--encrypt",
            "program",
        ]))
        .unwrap();
        let metrics = tmp("obs.metrics.json");
        let trace = tmp("obs.trace.jsonl");
        let run = fprun(&strs(&[
            &prot,
            "--secmon",
            &fpm,
            "--metrics",
            &metrics,
            "--trace",
            &trace,
        ]))
        .unwrap();
        assert_eq!(run.exit_code, 0, "{run:?}");

        let doc = std::fs::read_to_string(&metrics).unwrap();
        let value = json::parse(&doc).unwrap();
        assert_eq!(
            value.get("schema").and_then(json::Value::as_str),
            Some(flexprot_trace::METRICS_SCHEMA)
        );
        let counters = value.get("counters").expect("counters object");
        for key in [
            "icache_accesses",
            "instructions_committed",
            "guard_checks_passed",
            "sim_cycles",
        ] {
            assert!(
                counters.get(key).and_then(json::Value::as_u64).unwrap() > 0,
                "counter {key} missing or zero in {doc}"
            );
        }
        assert!(value.get("histograms").is_some());

        let body = std::fs::read_to_string(&trace).unwrap();
        let lines: Vec<&str> = body.lines().collect();
        assert!(!lines.is_empty());
        for line in &lines {
            let event = json::parse(line).expect("every trace line is JSON");
            assert!(event.get("ev").is_some(), "{line}");
        }
        assert!(
            lines.last().unwrap().contains("\"ev\":\"run_end\""),
            "trace must end with the run_end reconciliation event"
        );
    }

    /// The `ci.sh` smoke program: sums 10..1 in a loop and prints 55.
    const SMOKE_SOURCE: &str = "main:   li   $s0, 10
        li   $s1, 0
loop:   addu $s1, $s1, $s0
        addi $s0, $s0, -1
        bgtz $s0, loop
        move $a0, $s1
        li   $v0, 1
        syscall
        li   $v0, 10
        syscall
";

    /// Assembles the smoke program as `<name>.fpx` and protects it with
    /// guards at density 1.0 plus `protect_args` into `<name>.prot.fpx`
    /// and `<name>.fpm`. Returns the three paths.
    fn smoke_build(name: &str, protect_args: &[&str]) -> (String, String, String) {
        let src = tmp(&format!("{name}.s"));
        std::fs::write(&src, SMOKE_SOURCE).unwrap();
        let (fpx, prot, fpm) = (
            tmp(&format!("{name}.fpx")),
            tmp(&format!("{name}.prot.fpx")),
            tmp(&format!("{name}.fpm")),
        );
        fpasm(&strs(&[&src, "--o", &fpx])).unwrap();
        let mut args = strs(&[&fpx, "--o", &prot, "--secmon", &fpm, "--density", "1.0"]);
        args.extend(strs(protect_args));
        fpprotect(&args).unwrap();
        (fpx, prot, fpm)
    }

    /// Runs `fprun <run_args> --metrics <name>.metrics.json`, checks the
    /// exit code and returns the metrics document.
    fn fprun_metrics(name: &str, run_args: &[&str], exit_code: i32) -> String {
        let metrics = tmp(&format!("{name}.metrics.json"));
        let mut args = strs(run_args);
        args.extend(strs(&["--metrics", &metrics]));
        let run = fprun(&args).unwrap();
        assert_eq!(run.exit_code, exit_code, "{run:?}");
        std::fs::read_to_string(&metrics).unwrap()
    }

    #[test]
    fn fprun_metrics_document_of_the_guarded_encrypted_smoke_build() {
        let (_, prot, fpm) = smoke_build("gold_prot", &["--encrypt", "program"]);
        let doc = fprun_metrics("gold_prot", &[&prot, "--secmon", &fpm], 0);
        assert_eq!(
            doc,
            concat!(
                r#"{"schema":"flexprot-metrics-v1","counters":{"decrypt_fills":4,"#,
                r#""decrypt_stall_cycles":24,"decrypt_unit_cycles":24,"decrypted_words":26,"#,
                r#""guard_checks_passed":13,"guard_sites_passed":4,"guard_windows_closed":13,"#,
                r#""guard_windows_opened":13,"icache_accesses":89,"icache_misses":4,"#,
                r#""instructions_committed":89,"miss_fill_cycles":136,"sim_cycles":249,"#,
                r#""sim_dcache_misses":0,"sim_icache_misses":4,"sim_instructions":89,"#,
                r#""sim_monitor_fill_cycles":24,"spacing_ticks":25},"histograms":{"#,
                r#""decrypt_stall_cycles":{"count":4,"sum":24,"max":6,"log2_buckets":[0,0,4]},"#,
                r#""icache_fill_cycles":{"count":4,"sum":136,"max":34,"#,
                r#""log2_buckets":[0,0,0,0,0,4]}}}"#
            )
        );
    }

    #[test]
    fn fprun_metrics_document_of_an_unprotected_run() {
        // No monitor work, yet the fill and stall counters are present at
        // zero once the I-cache has missed.
        let (fpx, _, _) = smoke_build("gold_plain", &[]);
        let doc = fprun_metrics("gold_plain", &[&fpx], 0);
        assert_eq!(
            doc,
            concat!(
                r#"{"schema":"flexprot-metrics-v1","counters":{"decrypt_stall_cycles":0,"#,
                r#""icache_accesses":37,"icache_misses":2,"instructions_committed":37,"#,
                r#""miss_fill_cycles":68,"sim_cycles":105,"sim_dcache_misses":0,"#,
                r#""sim_icache_misses":2,"sim_instructions":37,"sim_monitor_fill_cycles":0},"#,
                r#""histograms":{"icache_fill_cycles":{"count":2,"sum":68,"max":34,"#,
                r#""log2_buckets":[0,0,0,0,0,2]}}}"#
            )
        );
    }

    #[test]
    fn fprun_metrics_document_of_a_tampered_run() {
        // `li $s0, 10` becomes `li $s0, 11`: the first guard window's
        // signature no longer matches.
        let (_, prot, fpm) = smoke_build("gold_tamper", &[]);
        let mut image = Image::from_bytes(&std::fs::read(&prot).unwrap()).unwrap();
        image.text[0] ^= 1;
        std::fs::write(&prot, image.to_bytes()).unwrap();
        let doc = fprun_metrics("gold_tamper", &[&prot, "--secmon", &fpm], 101);
        assert_eq!(
            doc,
            concat!(
                r#"{"schema":"flexprot-metrics-v1","counters":{"decrypt_stall_cycles":0,"#,
                r#""guard_checks_failed":1,"guard_windows_closed":1,"guard_windows_opened":1,"#,
                r#""icache_accesses":6,"icache_misses":1,"instructions_committed":5,"#,
                r#""miss_fill_cycles":34,"sim_cycles":40,"sim_dcache_misses":0,"#,
                r#""sim_icache_misses":1,"sim_instructions":5,"sim_monitor_fill_cycles":0,"#,
                r#""spacing_ticks":2},"histograms":{"icache_fill_cycles":{"count":1,"sum":34,"#,
                r#""max":34,"log2_buckets":[0,0,0,0,0,1]}}}"#
            )
        );
    }

    #[test]
    fn fprun_trace_of_the_guarded_encrypted_smoke_build() {
        // Every event of the run, byte for byte: 251 JSONL lines.
        let (_, prot, fpm) = smoke_build("gold_trace", &["--encrypt", "program"]);
        let trace = tmp("gold_trace.trace.jsonl");
        let run = fprun(&strs(&[&prot, "--secmon", &fpm, "--trace", &trace])).unwrap();
        assert_eq!(run.exit_code, 0, "{run:?}");
        assert_eq!(
            std::fs::read_to_string(&trace).unwrap(),
            include_str!("../tests/golden/smoke.trace.jsonl")
        );
    }

    /// Compares `actual` byte for byte with `tests/golden/<name>`; under
    /// `UPDATE_GOLDEN=1` rewrites the file instead.
    fn assert_golden(name: &str, actual: &str) {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/golden")
            .join(name);
        if std::env::var_os("UPDATE_GOLDEN").is_some() {
            std::fs::write(&path, actual).unwrap();
            return;
        }
        let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!("missing golden file {} ({e})", path.display());
        });
        assert_eq!(
            actual,
            expected,
            "document drifted from {}; if intentional, regenerate with UPDATE_GOLDEN=1",
            path.display()
        );
    }

    /// Runs `fplint <prot> --secmon <fpm> <extra>` and checks its exit code.
    fn fplint_report(prot: &str, fpm: &str, extra: &[&str], exit_code: i32) -> String {
        let mut args = strs(&[prot, "--secmon", fpm]);
        args.extend(strs(extra));
        let lint = fplint(&args).unwrap();
        assert_eq!(lint.exit_code, exit_code, "{}", lint.report);
        lint.report
    }

    #[test]
    fn fplint_documents_of_the_guarded_encrypted_smoke_build() {
        let (_, prot, fpm) = smoke_build("gold_lint", &["--encrypt", "program"]);
        for (name, extra) in [
            ("smoke.lint.json", &["--format", "json"][..]),
            (
                "smoke.taint.lint.json",
                &["--format", "json", "--taint"][..],
            ),
            ("smoke.surface.json", &["--surface"][..]),
            ("smoke.guardnet.json", &["--guardnet"][..]),
        ] {
            assert_golden(name, &fplint_report(&prot, &fpm, extra, 0));
        }
    }

    #[test]
    fn fplint_documents_of_a_tampered_build() {
        // The tampered build of `fprun_metrics_document_of_a_tampered_run`:
        // findings, a mismatch proof for the first guard and a tamper
        // surface.
        let (_, prot, fpm) = smoke_build("gold_lint_tamper", &[]);
        let mut image = Image::from_bytes(&std::fs::read(&prot).unwrap()).unwrap();
        image.text[0] ^= 1;
        std::fs::write(&prot, image.to_bytes()).unwrap();
        let lint = fplint_report(&prot, &fpm, &["--format", "json"], 1);
        assert_golden("tampered.lint.json", &lint);
        let guardnet = fplint_report(&prot, &fpm, &["--guardnet"], 1);
        assert_golden("tampered.guardnet.json", &guardnet);
        // The uncovered words make a non-empty tamper surface.
        let surface = fplint_report(&prot, &fpm, &["--surface"], 1);
        assert_golden("tampered.surface.json", &surface);
    }

    #[test]
    fn guardnet_document_with_an_unproven_window() {
        // queens under guards-1.0 has one window the checksum prover
        // refuses (store_may_alias_window), so its node carries a
        // `detail` object.
        let (_, image) = matrix::programs()
            .into_iter()
            .find(|(name, _)| name == "queens")
            .unwrap();
        let (_, config) = matrix::cells()
            .into_iter()
            .find(|(cell, _)| *cell == "guards-1.0")
            .unwrap();
        let protected = protect(&image, &config, None).unwrap();
        let v = flexprot_verify::analyze(
            &protected.image,
            &protected.secmon,
            &flexprot_verify::LintPolicy::default(),
        );
        assert_golden("queens.guards-1.0.guardnet.json", &v.guardnet_json());
    }

    #[test]
    fn fprun_trace_into_a_directory_is_an_io_error() {
        let (fpx, _, _) = smoke_build("trace_dir", &[]);
        let dir = tmp("trace_dir.d");
        std::fs::create_dir_all(&dir).unwrap();
        let err = fprun(&strs(&[&fpx, "--trace", &dir])).unwrap_err();
        assert!(err.0.starts_with(&format!("cannot write {dir}: ")), "{err}");
    }

    #[test]
    fn fprun_without_observability_flags_writes_nothing() {
        let src = write_sample_source("noobs.s");
        let fpx = tmp("noobs.fpx");
        fpasm(&strs(&[&src, "--o", &fpx])).unwrap();
        let run = fprun(&strs(&[&fpx])).unwrap();
        assert_eq!(run.exit_code, 0, "{run:?}");
        assert_eq!(run.output, "5");
    }

    #[test]
    fn fprun_batch_runs_images_in_order_across_workers() {
        use flexprot_trace::json;

        let first = write_sample_source("batch1.s");
        let second = tmp("batch2.s");
        std::fs::write(
            &second,
            "main: li $a0, 7\n li $v0, 1\n syscall\n li $v0, 10\n syscall\n",
        )
        .unwrap();
        let fpx1 = tmp("batch1.fpx");
        let fpx2 = tmp("batch2.fpx");
        fpasm(&strs(&[&first, "--o", &fpx1])).unwrap();
        fpasm(&strs(&[&second, "--o", &fpx2])).unwrap();

        let metrics = tmp("batch.metrics.json");
        let run = fprun(&strs(&[
            &fpx1,
            &fpx2,
            &fpx1,
            "--jobs",
            "2",
            "--stats",
            "--metrics",
            &metrics,
        ]))
        .unwrap();
        assert_eq!(run.exit_code, 0, "{run:?}");
        // Outputs and report lines keep the command-line order whatever
        // the worker interleaving.
        assert_eq!(run.output, "5\n7\n5");
        let lines: Vec<&str> = run.report.lines().collect();
        assert_eq!(lines.len(), 3, "{}", run.report);
        assert!(lines[0].starts_with(&fpx1), "{}", run.report);
        assert!(lines[1].starts_with(&fpx2), "{}", run.report);
        assert!(lines[2].starts_with(&fpx1), "{}", run.report);
        assert!(lines[0].contains("instrs"), "{}", run.report);

        // The aggregate metrics document covers all three runs.
        let doc = std::fs::read_to_string(&metrics).unwrap();
        let value = json::parse(&doc).unwrap();
        assert_eq!(
            value.get("schema").and_then(json::Value::as_str),
            Some(flexprot_trace::METRICS_SCHEMA)
        );
        let counters = value.get("counters").expect("counters object");
        assert_eq!(
            counters
                .get("exec_jobs_completed")
                .and_then(json::Value::as_u64),
            Some(3),
            "{doc}"
        );

        // A failing image surfaces its exit code without aborting the batch.
        let serial = fprun(&strs(&[&fpx1, &fpx2, "--jobs", "1"])).unwrap();
        assert_eq!(serial.output, "5\n7");
        assert_eq!(serial.exit_code, 0);

        // --trace is ambiguous across a batch and must be rejected.
        assert!(fprun(&strs(&[&fpx1, &fpx2, "--trace", &tmp("batch.trace")])).is_err());
    }

    #[test]
    fn bad_usage_is_reported() {
        assert!(fpasm(&[]).is_err());
        assert!(fpobjdump(&[]).is_err());
        assert!(fpprotect(&[]).is_err());
        assert!(fprun(&[]).is_err());
        assert!(fprun(&strs(&["/nonexistent.fpx"])).is_err());
        assert!(fplint(&[]).is_err());
        assert!(fplint(&strs(&["/nonexistent.fpx"])).is_err());
    }

    #[test]
    fn fplint_verdicts_follow_tampering() {
        let src = write_sample_source("lint.s");
        let fpx = tmp("lint.fpx");
        let prot = tmp("lint.prot.fpx");
        let fpm = tmp("lint.fpm");
        fpasm(&strs(&[&src, "--o", &fpx])).unwrap();
        fpprotect(&strs(&[
            &fpx,
            "--o",
            &prot,
            "--secmon",
            &fpm,
            "--density",
            "1.0",
            "--encrypt",
            "program",
        ]))
        .unwrap();

        // Pipeline output verifies clean.
        let clean = fplint(&strs(&[&prot, "--secmon", &fpm])).unwrap();
        assert_eq!(clean.exit_code, 0, "{}", clean.report);
        assert!(clean.report.contains("0 error(s)"), "{}", clean.report);

        // A flipped text bit flips the verdict, with a stable lint ID.
        let mut image = Image::from_bytes(&std::fs::read(&prot).unwrap()).unwrap();
        image.text[1] ^= 1 << 3;
        let bad = tmp("lint.bad.fpx");
        std::fs::write(&bad, image.to_bytes()).unwrap();
        let dirty = fplint(&strs(&[&bad, "--secmon", &fpm])).unwrap();
        assert_eq!(dirty.exit_code, 1, "{}", dirty.report);
        assert!(dirty.report.contains("[FP1"), "{}", dirty.report);

        // CSV output carries the same findings machine-readably.
        let csv = fplint(&strs(&[&bad, "--secmon", &fpm, "--csv"])).unwrap();
        assert!(csv.report.starts_with("id,name,severity,addr,message"));
        assert_eq!(csv.exit_code, 1);

        // Allowing every fired lint flips the verdict back to clean
        // (FP703 is the abstract re-derivation of the tamper FP102
        // catches concretely).
        let relaxed = fplint(&strs(&[
            &bad,
            "--secmon",
            &fpm,
            "--allow",
            "FP101,FP102,FP301,FP703",
        ]))
        .unwrap();
        assert_eq!(relaxed.exit_code, 0, "{}", relaxed.report);
    }

    #[test]
    fn fplint_lints_and_policy_validation() {
        let table = fplint(&strs(&["--lints"])).unwrap();
        assert_eq!(table.exit_code, 0);
        assert!(table.report.contains("FP102"), "{}", table.report);
        assert!(
            table.report.contains("signature-mismatch"),
            "{}",
            table.report
        );
        // Every lint family is listed with its documented severity — the
        // guard-network (FP7xx) and translation-validation (FP8xx)
        // families included — and the severity column stays aligned.
        for line in [
            "FP703  error",
            "FP704  note",
            "FP801  error",
            "FP804  warning",
        ] {
            assert!(table.report.contains(line), "{line}:\n{}", table.report);
        }
        for l in table.report.lines() {
            // id (5) + 2 spaces + severity padded to 7 + 2 spaces = the
            // name column always starts at byte 16.
            assert_eq!(l.as_bytes()[15], b' ', "ragged: {l}");
            assert_ne!(l.as_bytes()[16], b' ', "ragged: {l}");
        }

        let src = write_sample_source("lintpol.s");
        let fpx = tmp("lintpol.fpx");
        fpasm(&strs(&[&src, "--o", &fpx])).unwrap();
        let err = fplint(&strs(&[&fpx, "--deny", "FP999"])).unwrap_err();
        assert!(err.to_string().contains("unknown lint"), "{err}");

        // A bare image under the transparent config is clean, and denying
        // a note-level lint can make it fail.
        let ok = fplint(&strs(&[&fpx])).unwrap();
        assert_eq!(ok.exit_code, 0, "{}", ok.report);
    }

    #[test]
    fn fplint_formats_and_surface_map() {
        use flexprot_trace::json;

        let src = write_sample_source("lintfmt.s");
        let fpx = tmp("lintfmt.fpx");
        let prot = tmp("lintfmt.prot.fpx");
        let fpm = tmp("lintfmt.fpm");
        fpasm(&strs(&[&src, "--o", &fpx])).unwrap();
        fpprotect(&strs(&[
            &fpx,
            "--o",
            &prot,
            "--secmon",
            &fpm,
            "--density",
            "1.0",
        ]))
        .unwrap();

        // --format json emits the stable flexprot-lint-v1 document.
        let lint = fplint(&strs(&[&prot, "--secmon", &fpm, "--format", "json"])).unwrap();
        let doc = json::parse(&lint.report).expect("lint report is JSON");
        assert_eq!(
            doc.get("schema").and_then(json::Value::as_str),
            Some("flexprot-lint-v1")
        );
        assert!(doc.get("stats").is_some(), "{}", lint.report);

        // --format csv matches the --csv shorthand.
        let long = fplint(&strs(&[&prot, "--secmon", &fpm, "--format", "csv"])).unwrap();
        let short = fplint(&strs(&[&prot, "--secmon", &fpm, "--csv"])).unwrap();
        assert_eq!(long, short);

        // --surface prints the tamper-surface map; every reachable word
        // is covered at density 1.0.
        let surface = fplint(&strs(&[&prot, "--secmon", &fpm, "--surface"])).unwrap();
        assert_eq!(surface.exit_code, 0, "{}", surface.report);
        let map = json::parse(&surface.report).expect("surface map is JSON");
        assert_eq!(
            map.get("schema").and_then(json::Value::as_str),
            Some("flexprot-surface-v1")
        );
        assert_eq!(
            map.get("surface_words").and_then(json::Value::as_u64),
            Some(0)
        );

        assert!(fplint(&strs(&[&prot, "--format", "yaml"])).is_err());
    }

    #[test]
    fn fplint_guardnet_emits_the_schema_and_exit_codes_hold() {
        use flexprot_trace::json;

        let src = write_sample_source("lintnet.s");
        let fpx = tmp("lintnet.fpx");
        let prot = tmp("lintnet.prot.fpx");
        let fpm = tmp("lintnet.fpm");
        fpasm(&strs(&[&src, "--o", &fpx])).unwrap();
        fpprotect(&strs(&[
            &fpx,
            "--o",
            &prot,
            "--secmon",
            &fpm,
            "--density",
            "1.0",
        ]))
        .unwrap();

        // Exit code 0: clean image; --guardnet replaces the report with
        // the flexprot-guardnet-v1 document.
        let net = fplint(&strs(&[&prot, "--secmon", &fpm, "--guardnet"])).unwrap();
        assert_eq!(net.exit_code, 0, "{}", net.report);
        let doc = json::parse(&net.report).expect("guardnet report is JSON");
        assert_eq!(
            doc.get("schema").and_then(json::Value::as_str),
            Some("flexprot-guardnet-v1")
        );
        let guards = doc.get("guards").and_then(json::Value::as_u64).unwrap();
        assert!(guards > 0, "{}", net.report);
        assert_eq!(
            doc.get("proven").and_then(json::Value::as_u64),
            Some(guards),
            "every untampered constant proves: {}",
            net.report
        );
        assert!(doc.get("nodes").is_some(), "{}", net.report);
        assert!(doc.get("min_cut").is_some(), "{}", net.report);

        // Exit code 1: a tampered body word must flip the verdict, and
        // the guardnet document must carry the mismatch verdict. Flip a
        // word inside the first guard's hashed body (not a symbol word,
        // which would break guard form and take the FP101 path instead).
        let mut image = Image::from_bytes(&std::fs::read(&prot).unwrap()).unwrap();
        let config = SecMonConfig::from_bytes(&std::fs::read(&fpm).unwrap()).unwrap();
        let &site = config.sites.keys().next().unwrap();
        let idx = image.text_index_of(site).unwrap();
        image.text[idx.checked_sub(1).unwrap()] ^= 1 << 7;
        let bad = tmp("lintnet.bad.fpx");
        std::fs::write(&bad, image.to_bytes()).unwrap();
        let dirty = fplint(&strs(&[&bad, "--secmon", &fpm])).unwrap();
        assert_eq!(dirty.exit_code, 1, "{}", dirty.report);
        assert!(dirty.report.contains("FP703"), "{}", dirty.report);
        let dirty_net = fplint(&strs(&[&bad, "--secmon", &fpm, "--guardnet"])).unwrap();
        assert!(
            dirty_net.report.contains("mismatch"),
            "{}",
            dirty_net.report
        );

        // Exit code 2 is the CliError path: the binaries map every Err
        // to process exit 2, so usage and I/O failures must be Errs.
        assert!(fplint(&strs(&[])).is_err());
        assert!(fplint(&strs(&["/nonexistent.fpx"])).is_err());
        assert!(fplint(&strs(&[&prot, "--format", "yaml"])).is_err());
    }

    #[test]
    fn fpnetmap_grid_is_deterministic_and_reports_the_disconnection() {
        let serial = fpnetmap(&strs(&["--programs", "collatz,rle", "--jobs", "1"])).unwrap();
        assert_eq!(serial.exit_code, 0, "{}", serial.report);
        let lines: Vec<&str> = serial.report.lines().collect();
        assert_eq!(
            lines[0],
            "program,cell,guards,sound,edges,sccs,unchecked,acyclic,articulation,\
             min_cut,proven,mismatch,unproven,errors"
        );
        // 2 programs x 7 cells, plus the header.
        assert_eq!(lines.len(), 15, "{}", serial.report);
        for line in &lines[1..] {
            let cols: Vec<&str> = line.split(',').collect();
            assert_eq!(cols.len(), 14, "{line}");
            // No mismatches and no errors on untampered builds.
            assert_eq!(cols[11], "0", "{line}");
            assert_eq!(cols[13], "0", "{line}");
            // The emitter's disjoint windows mean an edgeless digraph:
            // every guard cell reports zero edges and (with >= 2 guards)
            // an already-disconnected network (min_cut 0).
            if cols[1].starts_with("guards") {
                assert_eq!(cols[4], "0", "{line}");
                let sound: usize = cols[3].parse().unwrap();
                if sound >= 2 {
                    assert_eq!(cols[9], "0", "{line}");
                }
                // Every guard gets a verdict: proven or (conservatively,
                // when a store with an unknown address sits inside the
                // window) unproven — never a mismatch on a clean build.
                let proven: usize = cols[10].parse().unwrap();
                let unproven: usize = cols[12].parse().unwrap();
                let guards: usize = cols[2].parse().unwrap();
                assert_eq!(proven + unproven, guards, "{line}");
            }
        }

        let parallel = fpnetmap(&strs(&["--programs", "collatz,rle", "--jobs", "4"])).unwrap();
        assert_eq!(serial, parallel);

        assert!(fpnetmap(&strs(&["--programs", "bogus"])).is_err());
        assert!(fpnetmap(&strs(&["stray-positional"])).is_err());
    }

    #[test]
    fn csv_fields_with_commas_and_quotes_are_escaped() {
        assert_eq!(csv_field("plain"), "plain");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(csv_row(&["a".to_owned(), "b,c".to_owned()]), "a,\"b,c\"");
    }

    #[test]
    fn fplint_csv_format_follows_the_exit_code_contract() {
        let src = write_sample_source("lintcsv.s");
        let fpx = tmp("lintcsv.fpx");
        let prot = tmp("lintcsv.prot.fpx");
        let fpm = tmp("lintcsv.fpm");
        fpasm(&strs(&[&src, "--o", &fpx])).unwrap();
        fpprotect(&strs(&[
            &fpx,
            "--o",
            &prot,
            "--secmon",
            &fpm,
            "--density",
            "1.0",
        ]))
        .unwrap();

        // Exit 0: a clean image under --format csv, not just human.
        let clean = fplint(&strs(&[&prot, "--secmon", &fpm, "--format", "csv"])).unwrap();
        assert_eq!(clean.exit_code, 0, "{}", clean.report);
        assert!(
            clean.report.starts_with("id,name,severity,addr,message"),
            "{}",
            clean.report
        );

        // Exit 1: tampering flips the CSV verdict exactly like the human
        // format.
        let mut image = Image::from_bytes(&std::fs::read(&prot).unwrap()).unwrap();
        image.text[0] ^= 1 << 22;
        let bad = tmp("lintcsv.bad.fpx");
        std::fs::write(&bad, image.to_bytes()).unwrap();
        let dirty = fplint(&strs(&[&bad, "--secmon", &fpm, "--format", "csv"])).unwrap();
        assert_eq!(dirty.exit_code, 1, "{}", dirty.report);

        // Exit 2 (CliError from the binary): usage and I/O errors are
        // Errs under every format.
        assert!(fplint(&strs(&["--format", "csv"])).is_err());
        assert!(fplint(&strs(&["/nonexistent.fpx", "--format", "csv"])).is_err());
    }

    #[test]
    fn fplint_taint_extends_the_json_stats() {
        use flexprot_trace::json;

        let src = write_sample_source("linttaint.s");
        let fpx = tmp("linttaint.fpx");
        let prot = tmp("linttaint.prot.fpx");
        let fpm = tmp("linttaint.fpm");
        fpasm(&strs(&[&src, "--o", &fpx])).unwrap();
        fpprotect(&strs(&[
            &fpx,
            "--o",
            &prot,
            "--secmon",
            &fpm,
            "--encrypt",
            "program",
        ]))
        .unwrap();

        // Without --taint the stats advertise the analysis did not run.
        let plain = fplint(&strs(&[&prot, "--secmon", &fpm, "--format", "json"])).unwrap();
        assert!(plain.report.contains("\"taint\":null"), "{}", plain.report);

        // With --taint the flexprot-lint-v1 stats gain the counter block.
        let tainted = fplint(&strs(&[
            &prot, "--secmon", &fpm, "--taint", "--format", "json",
        ]))
        .unwrap();
        assert_eq!(tainted.exit_code, 0, "{}", tainted.report);
        let doc = json::parse(&tainted.report).expect("lint report is JSON");
        let taint = doc
            .get("stats")
            .and_then(|s| s.get("taint"))
            .expect("stats.taint object");
        for key in [
            "sources",
            "tainted_stores",
            "tainted_syscalls",
            "key_dependent",
            "unresolved_reads",
        ] {
            assert!(taint.get(key).is_some(), "{}", tainted.report);
        }
    }

    #[test]
    fn fpnetmap_writes_the_per_window_refusal_ledger() {
        let refusals = tmp("netmap.refusals.csv");
        let run = fpnetmap(&strs(&[
            "--programs",
            "collatz,rle",
            "--jobs",
            "2",
            "--refusals",
            &refusals,
        ]))
        .unwrap();
        assert_eq!(run.exit_code, 0, "{}", run.report);
        let ledger = std::fs::read_to_string(&refusals).unwrap();
        let lines: Vec<&str> = ledger.lines().collect();
        assert_eq!(lines[0], "program,cell,site,verdict,code");
        // Every non-proven window carries a stable snake_case code and a
        // concrete site address; clean builds never report a mismatch.
        for line in &lines[1..] {
            let cols: Vec<&str> = line.split(',').collect();
            assert_eq!(cols.len(), 5, "{line}");
            assert!(cols[2].starts_with("0x"), "{line}");
            assert_eq!(cols[3], "unproven", "{line}");
            assert!(
                !cols[4].is_empty() && cols[4].chars().all(|c| c == '_' || c.is_ascii_lowercase()),
                "{line}"
            );
        }
        // The ledger row count is exactly the grid's unproven tally.
        let unproven: usize = run
            .report
            .lines()
            .skip(1)
            .map(|l| l.split(',').nth(12).unwrap().parse::<usize>().unwrap())
            .sum();
        assert_eq!(lines.len() - 1, unproven, "{ledger}\n{}", run.report);
    }

    #[test]
    fn batch_drivers_reject_zero_jobs() {
        for err in [
            fpsurface(&strs(&["--jobs", "0"])).unwrap_err(),
            fpnetmap(&strs(&["--jobs", "0"])).unwrap_err(),
            fpequiv(&strs(&["--jobs", "0"])).unwrap_err(),
            fpsweep(&strs(&["--jobs", "0"])).unwrap_err(),
        ] {
            assert!(err.to_string().contains("--jobs"), "{err}");
        }
    }

    #[test]
    fn fpsurface_grid_is_deterministic_and_clean() {
        // A trimmed grid (one kernel, one workload) keeps the test fast;
        // the full six-program grid runs in CI against the checked-in
        // baseline.
        let serial = fpsurface(&strs(&["--programs", "collatz,rle", "--jobs", "1"])).unwrap();
        assert_eq!(serial.exit_code, 0, "{}", serial.report);
        let lines: Vec<&str> = serial.report.lines().collect();
        assert_eq!(
            lines[0],
            "program,cell,text_words,reachable,windows,covered,encrypted,surface,\
             errors,warnings,full_coverage"
        );
        // 2 programs x 7 cells, plus the header.
        assert_eq!(lines.len(), 15, "{}", serial.report);
        assert!(
            lines.iter().any(|l| l.starts_with("collatz,guards-1.0,")),
            "{}",
            serial.report
        );
        // Full-density cells prove full reachable coverage.
        for line in &lines[1..] {
            if line.contains(",guards-1.0,") || line.contains(",guards-enc,") {
                assert!(line.ends_with(",true"), "{line}");
            }
        }

        let parallel = fpsurface(&strs(&["--programs", "collatz,rle", "--jobs", "4"])).unwrap();
        assert_eq!(serial, parallel);

        assert!(fpsurface(&strs(&["--programs", "bogus"])).is_err());
        assert!(fpsurface(&strs(&["stray-positional"])).is_err());
    }

    #[test]
    fn fpequiv_grid_is_deterministic_and_proven() {
        // A trimmed grid (one kernel, one workload) keeps the test fast;
        // the full six-program grid runs in CI against the checked-in
        // baseline.
        let serial = fpequiv(&strs(&["--programs", "collatz,rle", "--jobs", "1"])).unwrap();
        assert_eq!(serial.exit_code, 0, "{}", serial.report);
        let lines: Vec<&str> = serial.report.lines().collect();
        assert_eq!(
            lines[0],
            "program,cell,verdict,witness,base_words,prot_words,guard_words,aligned,\
             windows_proven,windows_refused,refusal_codes,cipher_regions,cipher_words,\
             fp801,fp802,fp803,fp804,errors"
        );
        // 2 programs x 7 cells, plus the header.
        assert_eq!(lines.len(), 15, "{}", serial.report);
        for line in &lines[1..] {
            let cols: Vec<&str> = line.split(',').collect();
            assert_eq!(cols.len(), 18, "{line}");
            // Untampered pipeline output is fully proven: no witnesses,
            // no refusals (so no refusal codes), no FP8xx findings.
            assert_eq!(cols[2], "proven", "{line}");
            assert_eq!(cols[3], "none", "{line}");
            assert_eq!(cols[9], "0", "{line}");
            assert_eq!(cols[10], "none", "{line}");
            assert_eq!(cols[17], "0", "{line}");
            // Guard cells insert words; alignment still covers every
            // baseline word.
            let base: usize = cols[4].parse().unwrap();
            let aligned: usize = cols[7].parse().unwrap();
            assert_eq!(base, aligned, "{line}");
            if cols[1].starts_with("guards") {
                assert!(cols[6].parse::<usize>().unwrap() > 0, "{line}");
            }
            if cols[1].starts_with("enc") || cols[1] == "guards-enc" {
                assert!(cols[12].parse::<usize>().unwrap() > 0, "{line}");
            }
        }

        let parallel = fpequiv(&strs(&["--programs", "collatz,rle", "--jobs", "4"])).unwrap();
        assert_eq!(serial, parallel);

        assert!(fpequiv(&strs(&["--programs", "bogus"])).is_err());
        assert!(fpequiv(&strs(&["stray-positional"])).is_err());
    }

    #[test]
    fn fplint_equiv_emits_the_schema_and_exit_codes_hold() {
        use flexprot_trace::json;

        let src = write_sample_source("equiv.s");
        let fpx = tmp("equiv.fpx");
        let prot = tmp("equiv.prot.fpx");
        let fpm = tmp("equiv.fpm");
        fpasm(&strs(&[&src, "--o", &fpx])).unwrap();
        fpprotect(&strs(&[
            &fpx,
            "--o",
            &prot,
            "--secmon",
            &fpm,
            "--density",
            "1.0",
            "--encrypt",
            "program",
        ]))
        .unwrap();

        // Exit 0: the protected image is proven equivalent to its
        // baseline, in the stable flexprot-equiv-v1 document.
        let clean = fplint(&strs(&[&prot, "--secmon", &fpm, "--equiv", &fpx])).unwrap();
        assert_eq!(clean.exit_code, 0, "{}", clean.report);
        let doc = json::parse(&clean.report).expect("equiv report is JSON");
        assert_eq!(
            doc.get("schema").and_then(json::Value::as_str),
            Some("flexprot-equiv-v1")
        );
        assert_eq!(
            doc.get("verdict").and_then(json::Value::as_str),
            Some("proven")
        );

        // Exit 1: a flipped ciphertext bit breaks the cipher round-trip,
        // with a witness address in the document.
        let mut image = Image::from_bytes(&std::fs::read(&prot).unwrap()).unwrap();
        image.text[1] ^= 1 << 3;
        let bad = tmp("equiv.bad.fpx");
        std::fs::write(&bad, image.to_bytes()).unwrap();
        let dirty = fplint(&strs(&[&bad, "--secmon", &fpm, "--equiv", &fpx])).unwrap();
        assert_eq!(dirty.exit_code, 1, "{}", dirty.report);
        let doc = json::parse(&dirty.report).expect("equiv report is JSON");
        assert_eq!(
            doc.get("verdict").and_then(json::Value::as_str),
            Some("inequivalent")
        );
        assert!(doc.get("witness").is_some(), "{}", dirty.report);
        assert!(dirty.report.contains("FP803"), "{}", dirty.report);
        const DIRTY: &str = concat!(
            r#"{"schema":"flexprot-equiv-v1","verdict":"inequivalent","witness":"0x00400004","#,
            r#""reason":null,"code":null,"stats":{"base_words":5,"prot_words":13,"#,
            r#""guard_words":8,"aligned_words":5,"symbols_matched":1,"windows_proven":2,"#,
            r#""windows_inequivalent":0,"windows_refused":0,"cipher_regions":1,"#,
            r#""cipher_words":13},"windows":[{"site":"0x00400008","verdict":"proven","#,
            r#""witness":null,"reason":null,"code":null},{"site":"0x00400020","#,
            r#""verdict":"proven","witness":null,"reason":null,"code":null}],"#,
            r#""refusals":[],"findings":[{"id":"FP803","name":"cipher-roundtrip-mismatch","#,
            r#""severity":"error","addr":"0x00400004","message":"instruction word changed: "#,
            r#"baseline 0x20020001, protected 0x20020009"}]}"#
        );
        assert_eq!(dirty.report, DIRTY);

        // The policy reaches the validator's findings: allowing the one
        // error lint the tamper trips demotes it to a note, which clears
        // the exit code and the verdict; denying it as well wins.
        let lint = |policy: &[&str]| {
            let mut argv = vec![bad.as_str(), "--secmon", &fpm, "--equiv", &fpx];
            argv.extend_from_slice(policy);
            fplint(&strs(&argv)).unwrap()
        };
        let allowed = lint(&["--allow", "FP803"]);
        assert_eq!(allowed.exit_code, 0, "{}", allowed.report);
        assert_eq!(
            allowed.report,
            DIRTY
                .replace(
                    r#""verdict":"inequivalent","witness":"0x00400004""#,
                    r#""verdict":"proven","witness":null"#
                )
                .replace(r#""severity":"error""#, r#""severity":"note""#)
        );
        let denied = lint(&["--allow", "FP803", "--deny", "cipher-roundtrip-mismatch"]);
        assert_eq!(denied.exit_code, 1, "{}", denied.report);
        assert_eq!(denied.report, DIRTY);

        // Exit 2 (CliError from the binary): unreadable baseline.
        assert!(fplint(&strs(&[
            &prot,
            "--secmon",
            &fpm,
            "--equiv",
            "/nonexistent.fpx"
        ]))
        .is_err());
    }

    #[test]
    fn bad_options_are_reported() {
        let src = write_sample_source("badopt.s");
        let fpx = tmp("badopt.fpx");
        fpasm(&strs(&[&src, "--o", &fpx])).unwrap();
        assert!(fpprotect(&strs(&[&fpx, "--density", "abc"])).is_err());
        assert!(fpprotect(&strs(&[&fpx, "--density", "0.5", "--placement", "bogus"])).is_err());
        assert!(fpprotect(&strs(&[&fpx, "--encrypt", "bogus"])).is_err());
        let slow = ["--encrypt", "program", "--cycles-per-word", "1048577"];
        let err = fpprotect(&strs(&[&[fpx.as_str()][..], &slow[..]].concat())).unwrap_err();
        assert_eq!(err.to_string(), "--cycles-per-word must be at most 1048576");
        assert!(fprun(&strs(&[&fpx, "--icache", "999"])).is_err());
    }

    #[test]
    fn hostile_decrypt_latency_is_a_config_error() {
        // FPM1 ends with the decrypt model (two u64 latencies, the
        // pipelined byte) and the halt byte. Both latencies at u64::MAX
        // once wrapped the fill penalty; fprun and fplint now refuse the
        // config, which their binaries report with exit code 2.
        let (_, prot, fpm) = smoke_build("slowdec", &["--encrypt", "program"]);
        let mut bytes = std::fs::read(&fpm).unwrap();
        let at = bytes.len() - 18;
        bytes[at..at + 16].fill(0xFF);
        let hostile = tmp("slowdec.hostile.fpm");
        std::fs::write(&hostile, bytes).unwrap();
        let expected = format!(
            "{hostile}: decrypt cycles_per_word of 18446744073709551615 cycles exceeds \
             the ceiling of 1048576 cycles"
        );
        let err = fprun(&strs(&[&prot, "--secmon", &hostile, "--stats"])).unwrap_err();
        assert_eq!(err.to_string(), expected);
        let err = fplint(&strs(&[&prot, "--secmon", &hostile])).unwrap_err();
        assert_eq!(err.to_string(), expected);
    }

    #[test]
    fn sweep_reports_overhead_rows_and_cache_sharing() {
        let report = fpsweep(&strs(&[
            "--workloads",
            "rle",
            "--densities",
            "0.25,1.0",
            "--jobs",
            "2",
        ]))
        .unwrap();
        assert!(report.contains("workload"), "{report}");
        assert!(report.contains("guards@0.25"), "{report}");
        assert!(report.contains("guards@1"), "{report}");
        // Two cells share one compiled image and one baseline.
        assert!(report.contains("hits"), "{report}");
    }

    #[test]
    fn sweep_is_deterministic_across_worker_counts() {
        let serial = fpsweep(&strs(&["--workloads", "rle", "--jobs", "1"])).unwrap();
        let parallel = fpsweep(&strs(&["--workloads", "rle", "--jobs", "4"])).unwrap();
        // The trailing summary names the worker count; the table itself
        // must match byte for byte.
        let table = |s: &str| {
            s.lines()
                .filter(|l| !l.starts_with('('))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(table(&serial), table(&parallel));
    }

    #[test]
    fn sweep_writes_csv_and_metrics() {
        let dir = std::env::temp_dir().join("flexprot-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let csv_path = dir.join("sweep.csv").to_string_lossy().into_owned();
        let metrics_path = dir
            .join("sweep.metrics.json")
            .to_string_lossy()
            .into_owned();
        fpsweep(&strs(&[
            "--workloads",
            "rle",
            "--densities",
            "1.0",
            "--csv",
            &csv_path,
            "--metrics",
            &metrics_path,
        ]))
        .unwrap();
        let csv = std::fs::read_to_string(&csv_path).unwrap();
        assert!(csv.starts_with("workload,config,base-cycles"), "{csv}");
        let metrics = std::fs::read_to_string(&metrics_path).unwrap();
        assert!(
            metrics.contains(flexprot_trace::METRICS_SCHEMA),
            "{metrics}"
        );
        assert!(metrics.contains("exec_jobs_completed"), "{metrics}");
    }

    #[test]
    fn sweep_rejects_bad_input() {
        assert!(fpsweep(&strs(&["--workloads", "nonesuch"])).is_err());
        assert!(fpsweep(&strs(&["--densities", "2.0"])).is_err());
        assert!(fpsweep(&strs(&["--densities", "abc"])).is_err());
        assert!(fpsweep(&strs(&["stray-positional"])).is_err());
    }

    #[test]
    fn compile_protect_run_pipeline() {
        let c_path = tmp("prog.c");
        std::fs::write(
            &c_path,
            "int main() { int s = 0; for (int i = 1; i <= 10; i = i + 1) { s = s + i; } print(s); return 0; }",
        )
        .unwrap();
        let fpx = tmp("prog.fpx");
        let msg = fpcc(&strs(&[&c_path, "--o", &fpx, "--emit-asm"])).unwrap();
        assert!(msg.contains("assembly ->"), "{msg}");

        let prot = tmp("prog.prot.fpx");
        let fpm = tmp("prog.fpm");
        fpprotect(&strs(&[
            &fpx,
            "--o",
            &prot,
            "--secmon",
            &fpm,
            "--density",
            "0.5",
            "--encrypt",
            "block",
        ]))
        .unwrap();
        let run = fprun(&strs(&[&prot, "--secmon", &fpm])).unwrap();
        assert_eq!(run.exit_code, 0, "{run:?}");
        assert_eq!(run.output, "55");
    }

    #[test]
    fn profile_flag_enables_cold_placement() {
        let c_path = tmp("prof.c");
        std::fs::write(
            &c_path,
            "int main() { int s = 0; for (int i = 0; i < 200; i += 1) { s += i; } print(s); return 0; }",
        )
        .unwrap();
        let fpx = tmp("prof.fpx");
        fpcc(&strs(&[&c_path, "--o", &fpx])).unwrap();
        let prot = tmp("prof.prot.fpx");
        let fpm = tmp("prof.fpm");
        fpprotect(&strs(&[
            &fpx,
            "--o",
            &prot,
            "--secmon",
            &fpm,
            "--density",
            "0.3",
            "--placement",
            "coldest",
            "--profile",
            "--no-spacing",
        ]))
        .unwrap();
        let run = fprun(&strs(&[&prot, "--secmon", &fpm])).unwrap();
        assert_eq!(run.exit_code, 0, "{run:?}");
        assert_eq!(run.output, "19900");
    }

    #[test]
    fn watermark_flag_embeds_payload() {
        let c_path = tmp("wm.c");
        std::fs::write(&c_path, "int main() { print(1); return 0; }").unwrap();
        let fpx = tmp("wm.fpx");
        fpcc(&strs(&[&c_path, "--o", &fpx])).unwrap();
        let prot = tmp("wm.prot.fpx");
        let fpm = tmp("wm.fpm");
        fpprotect(&strs(&[
            &fpx,
            "--o",
            &prot,
            "--secmon",
            &fpm,
            "--density",
            "1.0",
            "--watermark",
            "K9",
        ]))
        .unwrap();
        let image = Image::from_bytes(&std::fs::read(&prot).unwrap()).unwrap();
        let config =
            flexprot_secmon::SecMonConfig::from_bytes(&std::fs::read(&fpm).unwrap()).unwrap();
        let protected = flexprot_core::Protected {
            image,
            secmon: config,
            report: Default::default(),
        };
        assert_eq!(protected.extract_watermark(2).as_deref(), Some(&b"K9"[..]));
        let run = fprun(&strs(&[&prot, "--secmon", &fpm])).unwrap();
        assert_eq!(run.exit_code, 0);
        assert_eq!(run.output, "1");
    }

    #[test]
    fn compile_errors_are_surfaced() {
        let c_path = tmp("bad.c");
        std::fs::write(&c_path, "int main() { return x; }").unwrap();
        let err = fpcc(&strs(&[&c_path])).unwrap_err();
        assert!(err.to_string().contains("unknown variable"), "{err}");
    }
}
