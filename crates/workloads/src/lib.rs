//! Embedded-benchmark kernels for the protection evaluation.
//!
//! Ten kernels written in SP32 assembly, spanning the workload classes the
//! original evaluation drew from MediaBench/MiBench-style suites: checksum
//! and hashing loops, dense linear algebra, sorting, graph search, DSP
//! filtering, codecs and byte scanning. Each kernel generates its input
//! deterministically with an in-kernel LCG, and each has a Rust *reference
//! implementation* that computes the exact console output the simulated
//! kernel must print — the correctness oracle for every protection
//! configuration.
//!
//! # Example
//!
//! ```
//! use flexprot_sim::{Machine, Outcome, SimConfig};
//!
//! let workload = flexprot_workloads::by_name("crc32").expect("known kernel");
//! let image = workload.image();
//! let result = Machine::new(&image, SimConfig::default()).run();
//! assert_eq!(result.outcome, Outcome::Exit(0));
//! assert_eq!(result.output, workload.expected_output());
//! ```

use flexprot_isa::Image;

/// How a kernel's assembly source is obtained.
#[derive(Debug, Clone, Copy)]
enum Source {
    /// Embedded `.s` file.
    Static(&'static str),
    /// Source synthesized at run time (e.g. the `callgrid` code-footprint
    /// stressor).
    Generated(fn() -> String),
}

/// One benchmark kernel.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Short name, e.g. `"crc32"`.
    pub name: &'static str,
    /// One-line description of the workload class.
    pub description: &'static str,
    source: Source,
    expected: fn() -> String,
}

impl Workload {
    /// The SP32 assembly source.
    pub fn source(&self) -> String {
        match self.source {
            Source::Static(text) => text.to_owned(),
            Source::Generated(make) => make(),
        }
    }

    /// Assembles the kernel.
    ///
    /// # Panics
    ///
    /// Panics if the embedded source fails to assemble (a build bug).
    pub fn image(&self) -> Image {
        flexprot_asm::assemble_or_panic(&self.source())
    }

    /// The exact console output a correct run must produce, computed by the
    /// Rust reference implementation.
    pub fn expected_output(&self) -> String {
        (self.expected)()
    }
}

/// All kernels, in canonical order.
pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: "crc32",
            description: "bitwise CRC-32 over 4 KiB (checksum loop)",
            source: Source::Static(include_str!("../asm/crc32.s")),
            expected: reference::crc32,
        },
        Workload {
            name: "matmul",
            description: "12x12 integer matrix multiply (dense loop nest)",
            source: Source::Static(include_str!("../asm/matmul.s")),
            expected: reference::matmul,
        },
        Workload {
            name: "qsort",
            description: "recursive quicksort of 128 words (control-heavy)",
            source: Source::Static(include_str!("../asm/qsort.s")),
            expected: reference::qsort,
        },
        Workload {
            name: "dijkstra",
            description: "O(n^2) shortest paths, 16 nodes (graph search)",
            source: Source::Static(include_str!("../asm/dijkstra.s")),
            expected: reference::dijkstra,
        },
        Workload {
            name: "fir",
            description: "8-tap FIR filter over 256 samples (DSP MAC loop)",
            source: Source::Static(include_str!("../asm/fir.s")),
            expected: reference::fir,
        },
        Workload {
            name: "rle",
            description: "run-length codec with self-verification",
            source: Source::Static(include_str!("../asm/rle.s")),
            expected: reference::rle,
        },
        Workload {
            name: "strsearch",
            description: "naive substring search over 2 KiB (byte scanning)",
            source: Source::Static(include_str!("../asm/strsearch.s")),
            expected: reference::strsearch,
        },
        Workload {
            name: "bitcount",
            description: "Kernighan popcount over 1024 words",
            source: Source::Static(include_str!("../asm/bitcount.s")),
            expected: reference::bitcount,
        },
        Workload {
            name: "hash",
            description: "FNV-1a over 4 KiB (dependent-chain arithmetic)",
            source: Source::Static(include_str!("../asm/hash.s")),
            expected: reference::hash,
        },
        Workload {
            name: "adpcm",
            description: "delta codec with reconstruction feedback",
            source: Source::Static(include_str!("../asm/adpcm.s")),
            expected: reference::adpcm,
        },
        Workload {
            name: "callgrid",
            description: "64-way dispatch over generated functions (I-cache stressor)",
            source: Source::Generated(callgrid::source),
            expected: callgrid::expected,
        },
        Workload {
            name: "queens",
            description: "8-queens backtracking (MiniC-compiled, deep recursion)",
            source: Source::Generated(minic::queens_source),
            expected: minic::queens_expected,
        },
        Workload {
            name: "sieve",
            description: "sieve of Eratosthenes to 2048 (MiniC-compiled)",
            source: Source::Generated(minic::sieve_source),
            expected: minic::sieve_expected,
        },
        Workload {
            name: "collatz",
            description: "longest Collatz chain below 1000 (MiniC-compiled)",
            source: Source::Generated(minic::collatz_source),
            expected: minic::collatz_expected,
        },
    ]
}

/// Workloads authored in MiniC and compiled through `flexprot-cc` — they
/// exercise compiler-shaped code (frame traffic, call-heavy control flow)
/// rather than hand-scheduled assembly, and they prove the full
/// source → assembly → image → protection chain.
mod minic {
    const QUEENS: &str = r#"
        int cols[16];
        int diag1[32];
        int diag2[32];
        int count;
        int n;

        int solve(int row) {
            if (row == n) {
                count = count + 1;
                return 0;
            }
            for (int c = 0; c < n; c = c + 1) {
                if (!cols[c] && !diag1[row + c] && !diag2[row - c + 15]) {
                    cols[c] = 1; diag1[row + c] = 1; diag2[row - c + 15] = 1;
                    solve(row + 1);
                    cols[c] = 0; diag1[row + c] = 0; diag2[row - c + 15] = 0;
                }
            }
            return 0;
        }

        int main() {
            n = 8;
            count = 0;
            solve(0);
            print(count);
            return 0;
        }
    "#;

    const SIEVE: &str = r#"
        int flags[2048];

        int main() {
            int count = 0;
            int sum = 0;
            for (int i = 2; i < 2048; i = i + 1) { flags[i] = 1; }
            for (int p = 2; p < 2048; p = p + 1) {
                if (flags[p]) {
                    count = count + 1;
                    sum = sum + p;
                    for (int m = p + p; m < 2048; m = m + p) { flags[m] = 0; }
                }
            }
            print(count);
            printc(' ');
            printh(sum);
            return 0;
        }
    "#;

    pub(crate) fn queens_source() -> String {
        flexprot_cc::compile(QUEENS).expect("queens kernel compiles")
    }

    pub(crate) fn queens_expected() -> String {
        // Reference backtracking solver mirroring the MiniC program.
        fn solve(row: u32, n: u32, cols: &mut [bool], d1: &mut [bool], d2: &mut [bool]) -> u32 {
            if row == n {
                return 1;
            }
            let mut total = 0;
            for c in 0..n as usize {
                let (i1, i2) = ((row as usize + c), (row as usize + 15 - c));
                if !cols[c] && !d1[i1] && !d2[i2] {
                    cols[c] = true;
                    d1[i1] = true;
                    d2[i2] = true;
                    total += solve(row + 1, n, cols, d1, d2);
                    cols[c] = false;
                    d1[i1] = false;
                    d2[i2] = false;
                }
            }
            total
        }
        let count = solve(0, 8, &mut [false; 16], &mut [false; 32], &mut [false; 32]);
        count.to_string()
    }

    const COLLATZ: &str = r#"
        int chain_length(int n) {
            int steps = 0;
            while (1) {
                if (n == 1) { break; }
                if (n % 2 == 0) { n /= 2; } else { n = 3 * n + 1; }
                steps += 1;
            }
            return steps;
        }

        int main() {
            int best = 0;
            int best_n = 0;
            for (int n = 1; n < 1000; n += 1) {
                int len = chain_length(n);
                if (len > best) { best = len; best_n = n; }
            }
            print(best_n);
            printc(' ');
            print(best);
            return 0;
        }
    "#;

    pub(crate) fn collatz_source() -> String {
        flexprot_cc::compile(COLLATZ).expect("collatz kernel compiles")
    }

    pub(crate) fn collatz_expected() -> String {
        let mut best = 0u32;
        let mut best_n = 0u32;
        for n in 1u32..1000 {
            let mut x = n;
            let mut steps = 0u32;
            while x != 1 {
                x = if x % 2 == 0 { x / 2 } else { 3 * x + 1 };
                steps += 1;
            }
            if steps > best {
                best = steps;
                best_n = n;
            }
        }
        format!("{best_n} {best}")
    }

    pub(crate) fn sieve_source() -> String {
        flexprot_cc::compile(SIEVE).expect("sieve kernel compiles")
    }

    pub(crate) fn sieve_expected() -> String {
        let mut flags = [true; 2048];
        let mut count = 0u32;
        let mut sum = 0u32;
        for p in 2..2048usize {
            if flags[p] {
                count += 1;
                sum += p as u32;
                let mut m = p + p;
                while m < 2048 {
                    flags[m] = false;
                    m += p;
                }
            }
        }
        format!("{count} {sum:08x}")
    }
}

/// The generated `callgrid` kernel: a large-code-footprint stressor.
///
/// 64 distinct leaf functions (each mixing a per-function constant and
/// rotation into an accumulator) are invoked through a linear
/// compare-and-call dispatch chain driven by the LCG. Static code size is a
/// few KiB — larger than the small I-cache configurations — so this kernel
/// actually exercises the fetch/decrypt miss path that the tiny loop
/// kernels never leave.
mod callgrid {
    pub(crate) const FUNCS: u32 = 64;
    pub(crate) const ITERS: u32 = 1500;
    pub(crate) const SEED: u32 = 90210;

    pub(crate) fn constant(k: u32) -> u32 {
        k.wrapping_mul(0x9E37_79B1) & 0xFFFF
    }

    pub(crate) fn rotation(k: u32) -> u32 {
        (k % 31) + 1
    }

    pub(crate) fn source() -> String {
        use std::fmt::Write;
        let mut s = String::new();
        s.push_str("        .text\n");
        s.push_str("main:   jal  grid\n");
        s.push_str("        move $a0, $v0\n");
        s.push_str("        li   $v0, 34\n");
        s.push_str("        syscall\n");
        s.push_str("        li   $v0, 10\n");
        s.push_str("        syscall\n");
        // grid(): s2 = accumulator, s3 = LCG, s0 = remaining iterations.
        writeln!(s, "grid:   addi $sp, $sp, -4").unwrap();
        writeln!(s, "        sw   $ra, 0($sp)").unwrap();
        writeln!(s, "        li   $s2, 0").unwrap();
        writeln!(s, "        li   $s3, {SEED}").unwrap();
        writeln!(s, "        li   $s0, {ITERS}").unwrap();
        writeln!(s, "gloop:  li   $t8, 1664525").unwrap();
        writeln!(s, "        mul  $s3, $s3, $t8").unwrap();
        writeln!(s, "        li   $t8, 0x3C6EF35F").unwrap();
        writeln!(s, "        addu $s3, $s3, $t8").unwrap();
        writeln!(s, "        srl  $t0, $s3, 8").unwrap();
        writeln!(s, "        andi $t0, $t0, {}", FUNCS - 1).unwrap();
        for k in 0..FUNCS {
            writeln!(s, "        li   $t1, {k}").unwrap();
            writeln!(s, "        beq  $t0, $t1, call{k}").unwrap();
        }
        writeln!(s, "        b    gnext").unwrap();
        for k in 0..FUNCS {
            writeln!(s, "call{k}: jal  f{k}").unwrap();
            writeln!(s, "        b    gnext").unwrap();
        }
        writeln!(s, "gnext:  addi $s0, $s0, -1").unwrap();
        writeln!(s, "        bgtz $s0, gloop").unwrap();
        writeln!(s, "        move $v0, $s2").unwrap();
        writeln!(s, "        lw   $ra, 0($sp)").unwrap();
        writeln!(s, "        addi $sp, $sp, 4").unwrap();
        writeln!(s, "        jr   $ra").unwrap();
        for k in 0..FUNCS {
            let c = constant(k);
            let r = rotation(k);
            writeln!(s, "f{k}:").unwrap();
            writeln!(s, "        li   $t9, {c}").unwrap();
            writeln!(s, "        xor  $s2, $s2, $t9").unwrap();
            writeln!(s, "        sll  $t2, $s2, {r}").unwrap();
            writeln!(s, "        srl  $t3, $s2, {}", 32 - r).unwrap();
            writeln!(s, "        or   $s2, $t2, $t3").unwrap();
            writeln!(s, "        jr   $ra").unwrap();
        }
        s
    }

    pub(crate) fn expected() -> String {
        let mut x = SEED;
        let mut acc = 0u32;
        for _ in 0..ITERS {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            let k = (x >> 8) & (FUNCS - 1);
            acc ^= constant(k);
            acc = acc.rotate_left(rotation(k));
        }
        format!("{acc:08x}")
    }
}

/// Looks a kernel up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

/// Reference implementations mirroring each kernel instruction-for-
/// instruction where arithmetic order matters (all arithmetic wraps).
mod reference {
    fn lcg(x: &mut u32) -> u32 {
        *x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        *x
    }

    pub(crate) fn crc32() -> String {
        let mut x: u32 = 12345;
        let mut crc: u32 = 0xFFFF_FFFF;
        for _ in 0..4096 {
            let byte = lcg(&mut x) & 0xFF;
            crc ^= byte;
            for _ in 0..8 {
                let lsb = crc & 1;
                crc >>= 1;
                if lsb == 1 {
                    crc ^= 0xEDB8_8320;
                }
            }
        }
        format!("{:08x}", !crc)
    }

    pub(crate) fn matmul() -> String {
        const N: usize = 12;
        let mut x: u32 = 54321;
        let mut a = [0u32; N * N];
        let mut b = [0u32; N * N];
        for i in 0..N * N {
            a[i] = lcg(&mut x) & 0xFF;
            b[i] = lcg(&mut x) & 0xFF;
        }
        let mut c = [0u32; N * N];
        for i in 0..N {
            for j in 0..N {
                let mut acc = 0u32;
                for k in 0..N {
                    acc = acc.wrapping_add(a[i * N + k].wrapping_mul(b[k * N + j]));
                }
                c[i * N + j] = acc;
            }
        }
        let mut v = 0u32;
        for &w in &c {
            v ^= w;
            v = v.rotate_left(1);
        }
        format!("{v:08x}")
    }

    pub(crate) fn qsort() -> String {
        let mut x: u32 = 99991;
        let mut a: Vec<u32> = (0..128).map(|_| (lcg(&mut x) >> 8) & 0xFFFF).collect();
        a.sort_unstable();
        let mut sum = 0u32;
        for (i, &v) in a.iter().enumerate() {
            sum = sum.wrapping_add(v.wrapping_mul(i as u32 + 1));
        }
        format!("{sum:08x}")
    }

    pub(crate) fn dijkstra() -> String {
        const N: usize = 16;
        const INF: u32 = 0x7FFF_FFFF;
        let mut x: u32 = 7777;
        let mut adj = [[0u32; N]; N];
        for (i, row) in adj.iter_mut().enumerate() {
            for (j, cell) in row.iter_mut().enumerate() {
                let w = ((lcg(&mut x) >> 4) & 0xFF) + 1;
                *cell = if i == j { 0 } else { w };
            }
        }
        let mut dist = [INF; N];
        let mut vis = [false; N];
        dist[0] = 0;
        for _ in 0..N {
            let mut best = usize::MAX;
            let mut best_d = INF;
            for j in 0..N {
                if !vis[j] && dist[j] < best_d {
                    best_d = dist[j];
                    best = j;
                }
            }
            if best == usize::MAX {
                break;
            }
            vis[best] = true;
            for j in 0..N {
                if j == best {
                    continue;
                }
                let cand = best_d.wrapping_add(adj[best][j]);
                if cand < dist[j] {
                    dist[j] = cand;
                }
            }
        }
        let mut v = 0u32;
        for &d in &dist {
            v ^= d;
        }
        format!("{v:08x}")
    }

    pub(crate) fn fir() -> String {
        const TAPS: [i32; 8] = [3, -1, 4, 1, -5, 9, -2, 6];
        let mut x: u32 = 31337;
        let xs: Vec<u32> = (0..256).map(|_| (lcg(&mut x) >> 16) & 0x3FF).collect();
        let mut v = 0u32;
        for n in 8..256 {
            let mut acc = 0u32;
            for (k, &tap) in TAPS.iter().enumerate() {
                acc = acc.wrapping_add(xs[n - k].wrapping_mul(tap as u32));
            }
            v ^= acc;
        }
        format!("{v:08x}")
    }

    pub(crate) fn rle() -> String {
        let mut x: u32 = 2024;
        let src: Vec<u8> = (0..512).map(|_| ((lcg(&mut x) >> 13) & 3) as u8).collect();
        let mut enc = Vec::new();
        let mut i = 0usize;
        while i < src.len() {
            let value = src[i];
            let mut run = 1usize;
            while i + run < src.len() && run < 255 && src[i + run] == value {
                run += 1;
            }
            enc.push(run as u8);
            enc.push(value);
            i += run;
        }
        let mut dec = Vec::new();
        let mut k = 0usize;
        while k < enc.len() {
            for _ in 0..enc[k] {
                dec.push(enc[k + 1]);
            }
            k += 2;
        }
        let ok = u32::from(dec == src);
        let mut h = 5381u32;
        for &b in &enc {
            h = h.wrapping_mul(33).wrapping_add(u32::from(b));
        }
        format!("{} {} {:08x}", enc.len(), ok, h)
    }

    pub(crate) fn strsearch() -> String {
        let mut x: u32 = 424242;
        let text: Vec<u8> = (0..2048)
            .map(|_| b'a' + ((lcg(&mut x) >> 10) & 3) as u8)
            .collect();
        let pat = b"abca";
        let count = (0..2045).filter(|&i| &text[i..i + 4] == pat).count();
        count.to_string()
    }

    pub(crate) fn bitcount() -> String {
        let mut x: u32 = 808017;
        let total: u32 = (0..1024).map(|_| lcg(&mut x).count_ones()).sum();
        total.to_string()
    }

    pub(crate) fn hash() -> String {
        let mut x: u32 = 65537;
        let mut h: u32 = 0x811C_9DC5;
        for _ in 0..4096 {
            let byte = lcg(&mut x) >> 24;
            h ^= byte;
            h = h.wrapping_mul(0x0100_0193);
        }
        format!("{h:08x}")
    }

    pub(crate) fn adpcm() -> String {
        let mut x: u32 = 161803;
        let samples: Vec<i32> = (0..512)
            .map(|_| ((lcg(&mut x) >> 12) & 0x3FF) as i32)
            .collect();
        let mut p: i32 = 0;
        let mut err = 0u32;
        let mut codes = 0u32;
        for &s in &samples {
            let delta = s.wrapping_sub(p);
            let q = (delta >> 3).clamp(-128, 127);
            codes ^= q as u32;
            p = p.wrapping_add(q << 3);
            let e = s.wrapping_sub(p);
            err = err.wrapping_add(e.wrapping_mul(e) as u32);
        }
        format!("{err:08x} {codes:08x}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexprot_sim::{Machine, Outcome, SimConfig};

    #[test]
    fn registry_has_unique_kernels() {
        let kernels = all();
        assert_eq!(kernels.len(), 14);
        let mut names: Vec<&str> = kernels.iter().map(|w| w.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 14);
    }

    #[test]
    fn by_name_finds_and_misses() {
        assert!(by_name("dijkstra").is_some());
        assert!(by_name("nonexistent").is_none());
    }

    fn check(name: &str) {
        let w = by_name(name).unwrap();
        let image = w.image();
        let r = Machine::new(&image, SimConfig::default()).run();
        assert_eq!(r.outcome, Outcome::Exit(0), "{name}: {:?}", r.outcome);
        assert_eq!(r.output, w.expected_output(), "{name} output mismatch");
    }

    #[test]
    fn crc32_matches_reference() {
        check("crc32");
    }

    #[test]
    fn matmul_matches_reference() {
        check("matmul");
    }

    #[test]
    fn qsort_matches_reference() {
        check("qsort");
    }

    #[test]
    fn dijkstra_matches_reference() {
        check("dijkstra");
    }

    #[test]
    fn fir_matches_reference() {
        check("fir");
    }

    #[test]
    fn rle_matches_reference() {
        check("rle");
    }

    #[test]
    fn strsearch_matches_reference() {
        check("strsearch");
    }

    #[test]
    fn bitcount_matches_reference() {
        check("bitcount");
    }

    #[test]
    fn hash_matches_reference() {
        check("hash");
    }

    #[test]
    fn adpcm_matches_reference() {
        check("adpcm");
    }

    #[test]
    fn callgrid_matches_reference() {
        check("callgrid");
    }

    #[test]
    fn queens_matches_reference() {
        check("queens");
    }

    #[test]
    fn sieve_matches_reference() {
        check("sieve");
    }

    #[test]
    fn collatz_matches_reference() {
        check("collatz");
    }

    #[test]
    fn callgrid_has_large_code_footprint() {
        let image = by_name("callgrid").unwrap().image();
        assert!(
            image.text.len() * 4 > 2048,
            "stressor must exceed the small I-cache sizes, got {} bytes",
            image.text.len() * 4
        );
    }

    #[test]
    fn rle_round_trip_self_verifies() {
        // The kernel prints its own verification flag; assert it is 1.
        let w = by_name("rle").unwrap();
        let expected = w.expected_output();
        let fields: Vec<&str> = expected.split(' ').collect();
        assert_eq!(fields[1], "1", "reference says codec round-trip failed");
    }

    #[test]
    fn every_kernel_has_functions_for_scoped_protection() {
        for w in all() {
            let image = w.image();
            assert!(
                image.symbols.len() >= 2,
                "{}: needs named functions for per-function experiments",
                w.name
            );
        }
    }
}
