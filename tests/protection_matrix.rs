//! Protection-matrix differential tests: every cell of the configuration
//! grid must preserve program semantics exactly.
//!
//! Three MiniC kernels (8-queens, sieve of Eratosthenes, Collatz records,
//! from `flexprot::cc::kernels`) are checked against Rust reference
//! implementations computed in-test,
//! and three assembly workloads against their recorded reference outputs —
//! each across the seven cells of the golden protection matrix
//! ([`flexprot_exec::matrix`]): no protection, guards at two densities,
//! encryption at all three keying granularities, guards+encryption.

use flexprot::core::{protect, Selection};
use flexprot::isa::Image;
use flexprot::sim::{Outcome, SimConfig};
use flexprot_exec::matrix;

/// Runs `image` through every matrix cell, asserting output and exit
/// code match the reference.
fn assert_matrix(name: &str, image: &Image, expected: &str) {
    for (cell, config) in matrix::cells() {
        let protected = protect(image, &config, None)
            .unwrap_or_else(|e| panic!("{name}/{cell}: protect failed: {e}"));
        let r = protected.run(SimConfig::default());
        assert_eq!(
            r.outcome,
            Outcome::Exit(0),
            "{name}/{cell}: wrong exit ({:?})",
            r.outcome
        );
        assert_eq!(r.output, expected, "{name}/{cell}: output diverged");
    }
}

fn compile(name: &str, source: &str) -> Image {
    flexprot::cc::compile_to_image(source).unwrap_or_else(|e| panic!("{name}: {e}"))
}

// ---------------------------------------------------------------- 8-queens

/// Rust reference: number of 8-queens placements.
fn queens_ref() -> String {
    fn solve(row: usize, cols: &mut [i32; 8]) -> u32 {
        if row == 8 {
            return 1;
        }
        let mut count = 0;
        for c in 0..8i32 {
            let safe = cols[..row]
                .iter()
                .enumerate()
                .all(|(r, &qc)| qc != c && (qc - c).abs() != (row - r) as i32);
            if safe {
                cols[row] = c;
                count += solve(row + 1, cols);
            }
        }
        count
    }
    solve(0, &mut [0; 8]).to_string()
}

#[test]
fn queens_matrix() {
    let image = compile("queens", flexprot::cc::kernels::QUEENS);
    assert_matrix("queens", &image, &queens_ref());
}

// ------------------------------------------------------------------ sieve

/// Rust reference: prime count and prime sum below 200.
fn sieve_ref() -> String {
    let n = 200usize;
    let mut flags = vec![true; n];
    let (mut count, mut sum) = (0u32, 0u32);
    for i in 2..n {
        if flags[i] {
            count += 1;
            sum += i as u32;
            let mut j = i + i;
            while j < n {
                flags[j] = false;
                j += i;
            }
        }
    }
    format!("{count} {sum}")
}

#[test]
fn sieve_matrix() {
    let image = compile("sieve", flexprot::cc::kernels::SIEVE);
    assert_matrix("sieve", &image, &sieve_ref());
}

// ---------------------------------------------------------------- collatz

/// Rust reference: the 1..=120 Collatz record holder and its step count.
fn collatz_ref() -> String {
    let steps = |mut n: u64| {
        let mut s = 0u32;
        while n != 1 {
            n = if n.is_multiple_of(2) {
                n / 2
            } else {
                3 * n + 1
            };
            s += 1;
        }
        s
    };
    let (mut best, mut arg) = (0, 1);
    for i in 1..=120u64 {
        let s = steps(i);
        if s > best {
            best = s;
            arg = i;
        }
    }
    format!("{arg} {best}")
}

#[test]
fn collatz_matrix() {
    let image = compile("collatz", flexprot::cc::kernels::COLLATZ);
    assert_matrix("collatz", &image, &collatz_ref());
}

// ------------------------------------------------- assembly workloads

#[test]
fn assembly_workload_matrix() {
    // The MiniC kernels are checked against Rust references above.
    let kernels = flexprot::cc::kernels::all().map(|(name, _)| name);
    for (name, image) in matrix::programs() {
        if !kernels.contains(&name.as_str()) {
            let workload = flexprot::workloads::by_name(&name).expect("workload");
            assert_matrix(&name, &image, &workload.expected_output());
        }
    }
}

// The matrix must exercise distinct selections (guard against a
// refactor collapsing cells into duplicates).
#[test]
fn grid_cells_are_distinct() {
    let cells = matrix::cells();
    assert_eq!(cells.len(), 7);
    let selections: Vec<String> = cells.iter().map(|(_, c)| format!("{c:?}")).collect();
    for (i, a) in selections.iter().enumerate() {
        for b in &selections[i + 1..] {
            assert_ne!(a, b);
        }
    }
    let densities: Vec<f64> = cells
        .iter()
        .filter_map(|(_, c)| c.guards.as_ref())
        .map(|g| match g.selection {
            Selection::Density(d) => d,
            _ => unreachable!("grid uses density selection"),
        })
        .collect();
    assert!(densities.contains(&0.25) && densities.contains(&1.0));
}
