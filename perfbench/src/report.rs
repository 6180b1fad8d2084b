//! Measurement helpers and the JSON result line.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Counts checked operations and the ones whose output was wrong.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }
}

pub enum Value {
    Real(f64),
    Count(u64),
}

pub struct Metric {
    pub name: &'static str,
    pub value: Value,
    pub unit: &'static str,
}

impl Metric {
    pub fn real(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name,
            value: Value::Real(value),
            unit,
        }
    }

    pub fn count(name: &'static str, value: u64, unit: &'static str) -> Metric {
        Metric {
            name,
            value: Value::Count(value),
            unit,
        }
    }
}

fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut sorted: Vec<f64> = values.into_iter().collect();
    assert!(!sorted.is_empty(), "median of no samples");
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// What the calibration kernel takes on the reference host, in seconds.
const CALIBRATION_REF_S: f64 = 250e-6;

/// A fixed interpreter loop — dispatch, register file, a 16 KiB memory —
/// that none of the measured code shares. Other tenants of a shared host
/// slow it down much as they slow the measured code, for seconds at a
/// time; timing it next to every round measures how slow the host is.
fn calibration_kernel(steps: u32) -> u32 {
    #[derive(Clone, Copy)]
    enum Op {
        Add(usize, usize, usize),
        Xor(usize, usize, usize),
        Mul(usize, usize, usize),
        Load(usize, usize),
        Store(usize, usize),
        AddImm(usize, u32),
        BranchNonZero(usize, usize),
    }
    const PROGRAM: [Op; 10] = [
        Op::AddImm(1, 1),
        Op::Mul(2, 1, 3),
        Op::Xor(4, 2, 1),
        Op::Load(5, 4),
        Op::Add(6, 5, 2),
        Op::Store(6, 1),
        Op::AddImm(7, u32::MAX),
        Op::Add(3, 3, 6),
        Op::BranchNonZero(7, 0),
        Op::AddImm(7, 64),
    ];
    let mut mem = [0u32; 4096];
    let mut r = [0u32; 8];
    r[3] = 7;
    r[7] = 64;
    let mut pc = 0;
    for _ in 0..steps {
        match PROGRAM[pc] {
            Op::Add(d, a, b) => r[d] = r[a].wrapping_add(r[b]),
            Op::Xor(d, a, b) => r[d] = r[a] ^ r[b],
            Op::Mul(d, a, b) => r[d] = r[a].wrapping_mul(r[b] | 1),
            Op::Load(d, a) => r[d] = mem[r[a] as usize % mem.len()],
            Op::Store(s, a) => mem[r[a] as usize % mem.len()] = r[s],
            Op::AddImm(d, imm) => r[d] = r[d].wrapping_add(imm),
            Op::BranchNonZero(c, target) if r[c] != 0 => {
                pc = target;
                continue;
            }
            Op::BranchNonZero(..) => {}
        }
        pc = (pc + 1) % PROGRAM.len();
    }
    r.iter().fold(0, |acc, &x| acc ^ x)
}

/// Seconds the calibration kernel takes right now.
fn calibrate() -> f64 {
    timed(|| calibration_kernel(std::hint::black_box(100_000)))
        .1
        .as_secs_f64()
}

/// Runs round `i` of a phase and returns the times it measured.
type Round<'a> = Box<dyn FnMut(usize, &mut Tally) -> Vec<f64> + 'a>;

/// One measured activity: its rounds and the share of the run it gets.
pub struct Phase<'a> {
    share: f64,
    round: Round<'a>,
    spent: Duration,
    /// Per round, the times it returned, scaled to the reference host.
    samples: Vec<Vec<f64>>,
}

impl<'a> Phase<'a> {
    pub fn new(share: f64, round: impl FnMut(usize, &mut Tally) -> Vec<f64> + 'a) -> Phase<'a> {
        Phase {
            share,
            round: Box::new(round),
            spent: Duration::ZERO,
            samples: Vec::new(),
        }
    }

    /// The median over rounds of time `i`, on the reference host.
    pub fn median(&self, i: usize) -> f64 {
        median(self.samples.iter().map(|row| row[i]))
    }
}

/// Calibrations on each side of a round that set its host speed.
const CALIBRATION_WINDOW: usize = 5;

/// Runs rounds of `phases` until `budget` has passed and each ran at least
/// `min` rounds. The phase furthest behind its share goes next, so the
/// phases interleave through the whole run.
///
/// The calibration kernel runs between rounds. Each time a round returns
/// is multiplied by `CALIBRATION_REF_S / c`, where `c` is the median of
/// the calibrations nearest the round (a window of `CALIBRATION_WINDOW` on
/// each side): a plain ratio, so a round that ran while other tenants
/// slowed the host is scaled down by as much as they slowed the kernel.
/// The measured code slows somewhat more than the kernel, so the ratio
/// leaves part of a slow stretch in the figures.
pub fn interleave(budget: Duration, min: usize, phases: &mut [Phase], tally: &mut Tally) {
    let start = Instant::now();
    // calibrations[k] ran just before round k; the last one after the last round.
    let mut calibrations = vec![calibrate()];
    let mut order = Vec::new();
    loop {
        let behind = |p: &Phase| (p.samples.len() >= min, p.spent.as_secs_f64() / p.share);
        let (index, next) = phases
            .iter_mut()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                behind(a)
                    .partial_cmp(&behind(b))
                    .expect("shares are positive")
            })
            .expect("at least one phase");
        if next.samples.len() >= min && start.elapsed() >= budget {
            break;
        }
        let (times, dt) = timed(|| (next.round)(next.samples.len(), tally));
        next.spent += dt;
        next.samples.push(times);
        order.push(index);
        calibrations.push(calibrate());
    }
    let mut rows = vec![0; phases.len()];
    for (k, &index) in order.iter().enumerate() {
        let window = &calibrations[k.saturating_sub(CALIBRATION_WINDOW - 1)
            ..(k + CALIBRATION_WINDOW + 1).min(calibrations.len())];
        let scale = CALIBRATION_REF_S / median(window.iter().copied());
        for t in &mut phases[index].samples[rows[index]] {
            *t *= scale;
        }
        rows[index] += 1;
    }
    let rounds: Vec<usize> = phases.iter().map(|p| p.samples.len()).collect();
    eprintln!(
        "perfbench: rounds per phase {rounds:?}, host calibration median {:.1} us (reference {:.1} us)",
        median(calibrations.iter().copied()) * 1e6,
        CALIBRATION_REF_S * 1e6
    );
}

/// Times `f` and returns its result with the elapsed time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = std::hint::black_box(f());
    (out, start.elapsed())
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn json_line(tally: &Tally, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = match m.value {
            Value::Real(v) => {
                assert!(v.is_finite(), "{} is not finite", m.name);
                format!("{v:?}")
            }
            Value::Count(c) => c.to_string(),
        };
        write!(
            out,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("}}");
    out
}
