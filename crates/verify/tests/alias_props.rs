//! Property tests: the points-to store partition against brute-force
//! store-target enumeration on concretely executed programs.
//!
//! [`flexprot_verify::memdom`] claims every concrete execution's store
//! targets are covered by its abstract targets, and
//! [`flexprot_verify::alias`] turns those targets into must/may/no-alias
//! verdicts against byte intervals. The oracle here is an independent
//! mini-interpreter (written against the ISA reference semantics in
//! `sim/src/exec.rs`, not calling into the simulator or the analysis)
//! that records the concrete effective address of every executed store.
//! On random MiniC programs and hand-written pointer kernels:
//!
//! * every recorded address must lie in the concretisation of the
//!   abstract target (value-set membership for `Abs`, region membership
//!   for `Stack` — assumption A1);
//! * a `NoAlias` verdict must have no recorded hit on the interval;
//! * a `MustAlias` verdict must have *only* hits, and its witness must
//!   itself hit.

use std::collections::{BTreeMap, HashMap};

use flexprot_cc::kernels::random_minic;
use flexprot_isa::{Image, Inst, Reg, Rng64, STACK_TOP};
use flexprot_verify::alias::{self, StoreClass};
use flexprot_verify::flow::Flow;
use flexprot_verify::memdom::{self, Base, MemFacts, STACK_REGION_MAX, STACK_REGION_MIN};

// ------------------------------------------------------ concrete oracle

/// Recorded store targets, keyed by text-word index.
type Observed = BTreeMap<usize, Vec<(u32, u32)>>;

/// A minimal interpreter over the decoded text: byte-addressed sparse
/// memory, registers reset per the hardware contract
/// (`$sp = $fp = STACK_TOP`), console syscalls swallowed. Records every
/// executed store's `(address, size)` and stops on exit, fault, fuel
/// exhaustion or a walk off the text segment — all fine for an oracle,
/// which only needs the stores that *did* execute.
fn run_oracle(image: &Image, flow: &Flow, fuel: usize) -> Observed {
    let mut regs = [0u32; 32];
    regs[Reg::SP.index() as usize] = STACK_TOP;
    regs[Reg::FP.index() as usize] = STACK_TOP;
    let mut mem: HashMap<u32, u8> = HashMap::new();
    for (i, &b) in image.data.iter().enumerate() {
        mem.insert(image.data_base.wrapping_add(i as u32), b);
    }
    let read = |mem: &HashMap<u32, u8>, addr: u32, size: u32| -> u32 {
        (0..size).fold(0u32, |acc, i| {
            acc | u32::from(*mem.get(&addr.wrapping_add(i)).unwrap_or(&0)) << (8 * i)
        })
    };
    let write = |mem: &mut HashMap<u32, u8>, addr: u32, size: u32, value: u32| {
        for i in 0..size {
            mem.insert(addr.wrapping_add(i), (value >> (8 * i)) as u8);
        }
    };

    macro_rules! r {
        ($reg:expr) => {
            regs[$reg.index() as usize]
        };
    }
    macro_rules! set {
        ($rd:expr, $value:expr) => {{
            let v = $value;
            if $rd != Reg::ZERO {
                regs[$rd.index() as usize] = v;
            }
        }};
    }
    macro_rules! ea {
        ($base:expr, $off:expr) => {
            r!($base).wrapping_add($off as i32 as u32)
        };
    }

    let mut observed = Observed::new();
    let mut pc = image.entry;
    for _ in 0..fuel {
        if pc < image.text_base || !pc.is_multiple_of(4) {
            break;
        }
        let index = ((pc - image.text_base) / 4) as usize;
        let Some(Some(inst)) = flow.decoded.get(index).copied() else {
            break;
        };
        let mut next = pc.wrapping_add(4);
        use Inst::*;
        match inst {
            Sll { rd, rt, sh } => set!(rd, r!(rt) << sh),
            Srl { rd, rt, sh } => set!(rd, r!(rt) >> sh),
            Sra { rd, rt, sh } => set!(rd, ((r!(rt) as i32) >> sh) as u32),
            Sllv { rd, rt, rs } => set!(rd, r!(rt) << (r!(rs) & 31)),
            Srlv { rd, rt, rs } => set!(rd, r!(rt) >> (r!(rs) & 31)),
            Srav { rd, rt, rs } => set!(rd, ((r!(rt) as i32) >> (r!(rs) & 31)) as u32),
            Jr { rs } => next = r!(rs),
            Jalr { rd, rs } => {
                next = r!(rs);
                set!(rd, pc.wrapping_add(4));
            }
            Syscall => match r!(Reg::V0) {
                // Console output is irrelevant to the oracle; keep going.
                1 | 4 | 11 | 34 => {}
                _ => break,
            },
            Break => break,
            Mul { rd, rs, rt } => set!(rd, r!(rs).wrapping_mul(r!(rt))),
            Div { rd, rs, rt } => {
                let (a, b) = (r!(rs) as i32, r!(rt) as i32);
                set!(rd, if b == 0 { 0 } else { a.wrapping_div(b) as u32 });
            }
            Rem { rd, rs, rt } => {
                let (a, b) = (r!(rs) as i32, r!(rt) as i32);
                set!(rd, if b == 0 { 0 } else { a.wrapping_rem(b) as u32 });
            }
            Add { rd, rs, rt } | Addu { rd, rs, rt } => set!(rd, r!(rs).wrapping_add(r!(rt))),
            Sub { rd, rs, rt } | Subu { rd, rs, rt } => set!(rd, r!(rs).wrapping_sub(r!(rt))),
            And { rd, rs, rt } => set!(rd, r!(rs) & r!(rt)),
            Or { rd, rs, rt } => set!(rd, r!(rs) | r!(rt)),
            Xor { rd, rs, rt } => set!(rd, r!(rs) ^ r!(rt)),
            Nor { rd, rs, rt } => set!(rd, !(r!(rs) | r!(rt))),
            Slt { rd, rs, rt } => set!(rd, u32::from((r!(rs) as i32) < (r!(rt) as i32))),
            Sltu { rd, rs, rt } => set!(rd, u32::from(r!(rs) < r!(rt))),
            Addi { rt, rs, imm } => set!(rt, r!(rs).wrapping_add(imm as i32 as u32)),
            Slti { rt, rs, imm } => set!(rt, u32::from((r!(rs) as i32) < i32::from(imm))),
            Sltiu { rt, rs, imm } => set!(rt, u32::from(r!(rs) < (imm as i32 as u32))),
            Andi { rt, rs, imm } => set!(rt, r!(rs) & u32::from(imm)),
            Ori { rt, rs, imm } => set!(rt, r!(rs) | u32::from(imm)),
            Xori { rt, rs, imm } => set!(rt, r!(rs) ^ u32::from(imm)),
            Lui { rt, imm } => set!(rt, u32::from(imm) << 16),
            Lb { rt, off, base } => set!(rt, read(&mem, ea!(base, off), 1) as i8 as i32 as u32),
            Lbu { rt, off, base } => set!(rt, read(&mem, ea!(base, off), 1)),
            Lh { rt, off, base } => {
                let addr = ea!(base, off);
                if !addr.is_multiple_of(2) {
                    break;
                }
                set!(rt, read(&mem, addr, 2) as i16 as i32 as u32);
            }
            Lhu { rt, off, base } => {
                let addr = ea!(base, off);
                if !addr.is_multiple_of(2) {
                    break;
                }
                set!(rt, read(&mem, addr, 2));
            }
            Lw { rt, off, base } => {
                let addr = ea!(base, off);
                if !addr.is_multiple_of(4) {
                    break;
                }
                set!(rt, read(&mem, addr, 4));
            }
            Sb { rt, off, base } => {
                let addr = ea!(base, off);
                write(&mut mem, addr, 1, r!(rt));
                observed.entry(index).or_default().push((addr, 1));
            }
            Sh { rt, off, base } => {
                let addr = ea!(base, off);
                if !addr.is_multiple_of(2) {
                    break;
                }
                write(&mut mem, addr, 2, r!(rt));
                observed.entry(index).or_default().push((addr, 2));
            }
            Sw { rt, off, base } => {
                let addr = ea!(base, off);
                if !addr.is_multiple_of(4) {
                    break;
                }
                write(&mut mem, addr, 4, r!(rt));
                observed.entry(index).or_default().push((addr, 4));
            }
            Beq { rs, rt, off } if r!(rs) == r!(rt) => next = branch_target(pc, off),
            Bne { rs, rt, off } if r!(rs) != r!(rt) => next = branch_target(pc, off),
            Blez { rs, off } if r!(rs) as i32 <= 0 => next = branch_target(pc, off),
            Bgtz { rs, off } if r!(rs) as i32 > 0 => next = branch_target(pc, off),
            Bltz { rs, off } if (r!(rs) as i32) < 0 => next = branch_target(pc, off),
            Bgez { rs, off } if r!(rs) as i32 >= 0 => next = branch_target(pc, off),
            Beq { .. } | Bne { .. } | Blez { .. } | Bgtz { .. } | Bltz { .. } | Bgez { .. } => {}
            J { target } => next = target << 2,
            Jal { target } => {
                set!(Reg::RA, pc.wrapping_add(4));
                next = target << 2;
            }
        }
        pc = next;
    }
    observed
}

fn branch_target(pc: u32, off: i16) -> u32 {
    pc.wrapping_add(4).wrapping_add(((off as i32) << 2) as u32)
}

// -------------------------------------------------- soundness assertions

/// The interval-hit spec the partition is judged against: a store
/// `[a, a+size)` touches `[lo, hi)` iff it writes at least one byte of it.
fn hits(a: u32, size: u32, lo: u32, hi: u32) -> bool {
    a.wrapping_add(size) > lo && a < hi
}

/// The intervals each store is classified against: the program's own text
/// segment (the window the provers care about), the data segment, and
/// tight synthetic windows around every recorded target — the adversarial
/// cases where an unsound `NoAlias` is most likely to slip through.
fn intervals(image: &Image, targets: &[(u32, u32)]) -> Vec<(u32, u32)> {
    let text_end = image.text_base + 4 * image.text.len() as u32;
    let mut out = vec![
        (image.text_base, text_end),
        (image.data_base, image.data_base + 256),
    ];
    for &(a, size) in targets {
        out.push((a, a.wrapping_add(size)));
        out.push((a.wrapping_sub(4), a.wrapping_add(1)));
        out.push((a.wrapping_add(size), a.wrapping_add(size + 64)));
    }
    out
}

/// Checks every executed store of one program against the analysis.
/// Returns the number of (store, interval) verdicts checked.
fn assert_partition_sound(name: &str, image: &Image, flow: &Flow) -> usize {
    let mem: MemFacts = memdom::analyze_memory(image, flow);
    let observed = run_oracle(image, flow, 50_000);
    let mut checked = 0;
    for (&index, targets) in &observed {
        let inst = flow.decoded[index].expect("executed word decodes");
        let state = mem.at(index).unwrap_or_else(|| {
            panic!("{name}: store at word {index} executed but analyzed unreachable")
        });
        let site = alias::store_site(index, inst, &state).expect("store resolves");
        // Value-set membership: the concrete target is a concretisation
        // of the abstract one.
        for &(a, size) in targets {
            assert_eq!(size, site.size, "{name}: word {index} size");
            match site.target.base {
                Base::Abs => {
                    if let Some(vs) = site.target.off.values() {
                        assert!(
                            vs.contains(&a),
                            "{name}: word {index} stored to {a:#010x}, \
                             abstract target {vs:x?} excludes it"
                        );
                    }
                }
                Base::Stack => assert!(
                    (STACK_REGION_MIN..STACK_REGION_MAX).contains(&a),
                    "{name}: word {index} stored to {a:#010x} under \
                     stack provenance, outside the stack region (A1)"
                ),
            }
        }
        // Partition soundness against every interval.
        for (lo, hi) in intervals(image, targets) {
            if lo >= hi {
                continue;
            }
            match alias::classify(&site.target, site.size, lo, hi) {
                StoreClass::NoAlias => {
                    for &(a, size) in targets {
                        assert!(
                            !hits(a, size, lo, hi),
                            "{name}: word {index} classified NoAlias against \
                             [{lo:#010x}, {hi:#010x}) but stored to {a:#010x}"
                        );
                    }
                }
                StoreClass::MustAlias { addr } => {
                    assert!(
                        hits(addr, site.size, lo, hi),
                        "{name}: word {index} MustAlias witness {addr:#010x} \
                         misses [{lo:#010x}, {hi:#010x})"
                    );
                    for &(a, size) in targets {
                        assert!(
                            hits(a, size, lo, hi),
                            "{name}: word {index} classified MustAlias against \
                             [{lo:#010x}, {hi:#010x}) but stored to {a:#010x}"
                        );
                    }
                }
                StoreClass::MayAlias => {}
            }
            checked += 1;
        }
    }
    checked
}

// -------------------------------------------------- random MiniC corpus

#[test]
fn store_partition_matches_concrete_execution_on_random_minic() {
    let mut rng = Rng64::new(0xA11A_50FA_CE00_0001);
    let mut stores_seen = 0usize;
    for case in 0..64 {
        let source = random_minic(&mut rng);
        let name = format!("random-{case}");
        let image =
            flexprot_cc::compile_to_image(&source).unwrap_or_else(|e| panic!("{name}: {e}"));
        let flow = Flow::recover(&image, &image.text);
        stores_seen += assert_partition_sound(&name, &image, &flow);
    }
    // The corpus must actually exercise the partition: every program has
    // at least a prologue spill, so silence would mean a broken oracle.
    assert!(stores_seen > 1000, "only {stores_seen} verdicts checked");
}

#[test]
fn store_partition_matches_concrete_execution_on_reference_kernels() {
    for (name, source) in flexprot_cc::kernels::all() {
        let image = flexprot_cc::compile_to_image(source).unwrap_or_else(|e| panic!("{name}: {e}"));
        let flow = Flow::recover(&image, &image.text);
        assert_partition_sound(name, &image, &flow);
    }
}

/// Hand-written pointer kernel: scalar-addressed data stores resolve to
/// `MustAlias` with exact witnesses, while the frame store stays provably
/// off the text segment — the discharge the provers rely on.
#[test]
fn scalar_and_stack_stores_partition_as_designed() {
    let image = flexprot_asm::assemble_or_panic(
        "main: addi $sp, $sp, -16\n \
         li $t0, 0x10010000\n \
         li $t1, 0xABCD\n \
         sw $t1, 0($t0)\n \
         sh $t1, 8($t0)\n \
         sb $t1, 13($t0)\n \
         sw $t1, 4($sp)\n \
         li $v0, 10\n \
         syscall\n",
    );
    let flow = Flow::recover(&image, &image.text);
    assert_partition_sound("pointer-kernel", &image, &flow);

    let mem = memdom::analyze_memory(&image, &flow);
    let text_end = image.text_base + 4 * image.text.len() as u32;
    let mut saw = (false, false);
    for (index, decoded) in flow.decoded.iter().enumerate() {
        let Some(inst) = *decoded else { continue };
        let Some(state) = mem.at(index) else {
            continue;
        };
        let Some(site) = alias::store_site(index, inst, &state) else {
            continue;
        };
        // Every store in this kernel is provably off the text segment…
        assert_eq!(
            alias::classify(&site.target, site.size, image.text_base, text_end),
            StoreClass::NoAlias,
            "word {index}"
        );
        // …and the scalar-addressed word store must-aliases its own cell.
        match site.target.base {
            Base::Abs if site.size == 4 => {
                assert_eq!(
                    alias::classify(&site.target, 4, 0x1001_0000, 0x1001_0004),
                    StoreClass::MustAlias { addr: 0x1001_0000 }
                );
                saw.0 = true;
            }
            Base::Stack => saw.1 = true,
            _ => {}
        }
    }
    assert!(saw.0 && saw.1, "kernel must exercise both provenances");
}
