//! Reference MiniC benchmark kernels, and the random-program generator.
//!
//! Shared by the protection-matrix differential tests, the `fpmatrix`
//! sweep and documentation examples, so every consumer lints and runs
//! the *same* golden programs.  Each kernel prints a small deterministic
//! result via the `print`/`printc` intrinsics and exits 0.
//! [`random_minic`] gives the property tests and fuzzers one shared
//! random corpus.

use flexprot_isa::Rng64;

/// 8-queens solution counter (recursive backtracking): prints `92`.
pub const QUEENS: &str = r#"
int col[8];

int solve(int row) {
    if (row == 8) { return 1; }
    int count = 0;
    for (int c = 0; c < 8; c = c + 1) {
        int ok = 1;
        for (int r = 0; r < row; r = r + 1) {
            int d = col[r] - c;
            if (d < 0) { d = 0 - d; }
            if (col[r] == c || d == row - r) { ok = 0; }
        }
        if (ok) {
            col[row] = c;
            count = count + solve(row + 1);
        }
    }
    return count;
}

int main() { print(solve(0)); return 0; }
"#;

/// Sieve of Eratosthenes below 200: prints prime count and prime sum.
pub const SIEVE: &str = r#"
int flags[200];

int main() {
    int n = 200;
    int count = 0;
    int sum = 0;
    for (int i = 2; i < n; i = i + 1) { flags[i] = 1; }
    for (int i = 2; i < n; i = i + 1) {
        if (flags[i]) {
            count = count + 1;
            sum = sum + i;
            for (int j = i + i; j < n; j = j + i) { flags[j] = 0; }
        }
    }
    print(count);
    printc(32);
    print(sum);
    return 0;
}
"#;

/// Collatz record holder for 1..=120: prints the argument and its step
/// count.
pub const COLLATZ: &str = r#"
int steps(int n) {
    int s = 0;
    while (n != 1) {
        if (n % 2 == 0) { n = n / 2; } else { n = 3 * n + 1; }
        s = s + 1;
    }
    return s;
}

int main() {
    int best = 0;
    int arg = 1;
    for (int i = 1; i <= 120; i = i + 1) {
        int s = steps(i);
        if (s > best) { best = s; arg = i; }
    }
    print(arg);
    printc(32);
    print(best);
    return 0;
}
"#;

/// Every named kernel, in a stable order.
pub fn all() -> [(&'static str, &'static str); 3] {
    [("queens", QUEENS), ("sieve", SIEVE), ("collatz", COLLATZ)]
}

/// A random well-formed MiniC program: straight-line assignments, nested
/// ifs, decrementing while loops and helper calls over four variables.
/// Property tests and differential fuzzers draw their corpora from it; the
/// program is a pure function of the generator state, so a seed names the
/// same corpus everywhere. Loops need not terminate within any fuel bound
/// and arithmetic may overflow: the grammar only keeps the compiler happy.
pub fn random_minic(rng: &mut Rng64) -> String {
    const VARS: [&str; 4] = ["a", "b", "c", "d"];
    fn var(rng: &mut Rng64) -> &'static str {
        VARS[rng.index(VARS.len())]
    }
    fn expr(rng: &mut Rng64) -> String {
        match rng.index(4) {
            0 => var(rng).to_owned(),
            1 => rng.index(50).to_string(),
            2 => format!(
                "{} {} {}",
                var(rng),
                ["+", "-", "*"][rng.index(3)],
                var(rng)
            ),
            _ => format!("{} + {}", var(rng), 1 + rng.index(9)),
        }
    }
    fn stmt(rng: &mut Rng64, depth: usize, out: &mut String, indent: usize) {
        let pad = "    ".repeat(indent);
        match rng.index(if depth > 0 { 5 } else { 2 }) {
            0 | 1 => {
                let (v, e) = (var(rng), expr(rng));
                out.push_str(&format!("{pad}{v} = {e};\n"));
            }
            2 => {
                out.push_str(&format!("{pad}if ({} < {}) {{\n", var(rng), rng.index(40)));
                block(rng, depth - 1, out, indent + 1);
                if rng.chance(0.5) {
                    out.push_str(&format!("{pad}}} else {{\n"));
                    block(rng, depth - 1, out, indent + 1);
                }
                out.push_str(&format!("{pad}}}\n"));
            }
            3 => {
                let v = var(rng);
                out.push_str(&format!("{pad}while ({v} > 0) {{\n"));
                block(rng, depth - 1, out, indent + 1);
                out.push_str(&format!("{}{v} = {v} - 1;\n", "    ".repeat(indent + 1)));
                out.push_str(&format!("{pad}}}\n"));
            }
            _ => {
                let v = var(rng);
                out.push_str(&format!("{pad}{v} = helper({});\n", expr(rng)));
            }
        }
    }
    fn block(rng: &mut Rng64, depth: usize, out: &mut String, indent: usize) {
        for _ in 0..1 + rng.index(3) {
            stmt(rng, depth, out, indent);
        }
    }

    let mut body = String::new();
    for v in VARS {
        body.push_str(&format!("    int {v} = {};\n", rng.index(20)));
    }
    block(rng, 2, &mut body, 1);
    body.push_str("    print(a + b + c + d);\n    return 0;\n");
    format!("int helper(int x) {{ return x * 2 + 1; }}\n\nint main() {{\n{body}}}\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kernel_compiles() {
        for (name, src) in all() {
            crate::compile_to_image(src).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }
}
