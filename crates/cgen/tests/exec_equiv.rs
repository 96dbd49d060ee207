//! The plan executor (`cgen::run_kernel`) must be indistinguishable from
//! the tree-walking executor it replaced (`oracle::run_kernel`): the same
//! arrays bit for bit, the same `ExecCounts` and the same error string
//! on every example kernel and on hand-made broken ones. Its inner loops
//! must not allocate.

mod oracle;

use cgen::ir::{AffineAddr, ArrAccess, CExpr, CKernel, CParam, CStmt, ParamRole};
use cgen::{build_kernel, CodegenOptions};
use pschedule::{reschedule, Dependences, KernelModel, Schedule, SchedulerOptions};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;
use teil::layout::LayoutPlan;
use teil::lower::lower;
use teil::transform::factorize;

/// Counting wrapper around the system allocator.
struct CountingAlloc;

thread_local! {
    /// Allocations made by this thread. Each test runs on its own
    /// thread, so tests running concurrently cannot pollute each
    /// other's counts.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

/// Allocations made so far by the calling thread.
fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: the slot is gone while the thread is torn down.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

type Mem = HashMap<String, Vec<f64>>;

/// Every kernel of every `cfdlang::examples` program.
fn example_sources() -> Vec<(String, String)> {
    use cfdlang::examples::*;
    vec![
        ("inverse_helmholtz(3)".into(), inverse_helmholtz(3)),
        ("inverse_helmholtz(4)".into(), inverse_helmholtz(4)),
        ("interpolation(3, 5)".into(), interpolation(3, 5)),
        ("matrix_sandwich(4)".into(), matrix_sandwich(4)),
        ("axpy(3)".into(), axpy(3)),
        ("simulation_step(3)".into(), simulation_step(3)),
        ("axpy_chain(3)".into(), axpy_chain(3)),
    ]
}

/// One generated kernel per (example kernel, factored, schedule,
/// decoupled): the reference schedule and the one the compile pipeline
/// picks (`reschedule` with default options).
fn example_kernels() -> Vec<(String, CKernel)> {
    let mut out = Vec::new();
    for (label, src) in example_sources() {
        let set = cfdlang::check_set(&cfdlang::parse_set(&src).unwrap()).unwrap();
        for tk in &set.kernels {
            for factored in [false, true] {
                let mut m = lower(&tk.typed).unwrap();
                if factored {
                    m = factorize(&m);
                }
                let km = KernelModel::build(&m, &LayoutPlan::row_major(&m));
                let deps = Dependences::analyze(&km);
                let schedules = [
                    ("reference", Schedule::reference(&km)),
                    (
                        "pipeline",
                        reschedule(&m, &km, &deps, &SchedulerOptions::default()),
                    ),
                ];
                for (sched_name, s) in &schedules {
                    for decoupled in [true, false] {
                        let opts = CodegenOptions {
                            decoupled,
                            ..Default::default()
                        };
                        out.push((
                            format!(
                                "{label} kernel '{}' factored={factored} \
                                 decoupled={decoupled} schedule={sched_name}",
                                tk.name
                            ),
                            build_kernel(&m, &km, s, &opts),
                        ));
                    }
                }
            }
        }
    }
    out
}

/// Every parameter filled with seeded values in [-1, 1).
fn random_mem(k: &CKernel, seed: u64) -> Mem {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    };
    k.params
        .iter()
        .map(|p| (p.name.clone(), (0..p.words).map(|_| next()).collect()))
        .collect()
}

fn assert_same_bits(label: &str, got: &Mem, want: &Mem) {
    let mut keys: Vec<&String> = want.keys().collect();
    keys.sort();
    let mut got_keys: Vec<&String> = got.keys().collect();
    got_keys.sort();
    assert_eq!(got_keys, keys, "{label}: array sets differ");
    for key in keys {
        let (g, w) = (&got[key], &want[key]);
        assert_eq!(g.len(), w.len(), "{label}: '{key}' length");
        for (i, (a, b)) in g.iter().zip(w).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{label}: '{key}'[{i}] = {a} vs oracle {b}"
            );
        }
    }
}

#[test]
fn plan_executor_matches_oracle_on_every_example_kernel() {
    let kernels = example_kernels();
    // 7 programs, 10 kernels, × 2 factorings × 2 schedules × 2 modes.
    assert_eq!(kernels.len(), 10 * 8);
    // Per (kernel, factoring), four in a row: the reference and the
    // pipeline schedule, each decoupled and not.
    assert!(
        kernels.chunks(4).any(|c| c[0].1 != c[2].1),
        "the pipeline schedule never differs from the reference"
    );
    for (seed, (label, k)) in kernels.iter().enumerate() {
        let mut got = random_mem(k, seed as u64);
        let mut want = got.clone();
        let c_got = cgen::run_kernel(k, &mut got).unwrap();
        let c_want = oracle::run_kernel(k, &mut want).unwrap();
        assert_eq!(c_got, c_want, "{label}: ExecCounts differ");
        assert_same_bits(label, &got, &want);
    }
}

fn access(array: &str, coeffs: &[i64], constant: i64) -> ArrAccess {
    ArrAccess {
        array: array.into(),
        addr: AffineAddr {
            coeffs: coeffs.to_vec(),
            constant,
        },
    }
}

fn load(array: &str, coeffs: &[i64], constant: i64) -> CExpr {
    CExpr::Load(access(array, coeffs, constant))
}

fn bin(op: cfdlang::BinOp, lhs: CExpr, rhs: CExpr) -> CExpr {
    CExpr::Bin {
        op,
        lhs: Box::new(lhs),
        rhs: Box::new(rhs),
    }
}

fn for_(var: &str, extent: usize, body: Vec<CStmt>) -> CStmt {
    CStmt::For {
        var: var.into(),
        extent,
        body,
    }
}

/// `x`, `o`: 4 words each; local `t`: 4 words.
fn small_kernel(body: Vec<CStmt>) -> CKernel {
    let param = |name: &str, role| CParam {
        name: name.into(),
        words: 4,
        role,
    };
    CKernel {
        name: "broken".into(),
        params: vec![param("x", ParamRole::Input), param("o", ParamRole::Output)],
        locals: vec![param("t", ParamRole::Temp)],
        body,
    }
}

/// Hand-made kernels that fail part-way: (label, kernel, expected error).
fn broken_kernels() -> Vec<(&'static str, CKernel, &'static str)> {
    use cfdlang::BinOp::{Add, Mul};
    let store = |target: ArrAccess, expr: CExpr| CStmt::Store { target, expr };
    // o[i] = x[i] * 2 for i < 4 — the working statement the breakages
    // follow, so each failure comes after real stores.
    let good = || {
        for_(
            "i0",
            4,
            vec![store(
                access("o", &[1], 0),
                bin(Mul, load("x", &[1], 0), CExpr::Const(2.0)),
            )],
        )
    };
    vec![
        (
            "load of an unknown array",
            small_kernel(vec![
                good(),
                for_(
                    "i0",
                    4,
                    vec![store(access("o", &[1], 0), load("ghost", &[1], 0))],
                ),
            ]),
            "unknown array 'ghost'",
        ),
        (
            "store to an unknown array",
            small_kernel(vec![
                good(),
                for_(
                    "i0",
                    4,
                    vec![store(access("ghost", &[1], 0), load("x", &[1], 0))],
                ),
            ]),
            "unknown array 'ghost'",
        ),
        (
            "load past the end",
            small_kernel(vec![for_(
                "i0",
                4,
                vec![store(access("o", &[1], 0), load("x", &[1], 1))],
            )]),
            "load OOB: x[4]",
        ),
        (
            "store below zero",
            small_kernel(vec![
                good(),
                for_(
                    "i0",
                    4,
                    vec![store(access("o", &[1], -1), load("x", &[1], 0))],
                ),
            ]),
            "store OOB: o[-1]",
        ),
        (
            "store past the end of a local, nested",
            small_kernel(vec![for_(
                "i0",
                2,
                vec![for_(
                    "i1",
                    3,
                    vec![CStmt::StoreAccum {
                        target: access("t", &[2, 1], 0),
                        expr: load("x", &[0, 1], 0),
                    }],
                )],
            )]),
            "store OOB: t[4]",
        ),
        (
            "failure on the right of a working load",
            small_kernel(vec![for_(
                "i0",
                4,
                vec![store(
                    access("o", &[1], 0),
                    bin(Add, load("x", &[1], 2), load("ghost", &[1], 0)),
                )],
            )]),
            "unknown array 'ghost'",
        ),
        (
            "first failure in evaluation order wins",
            small_kernel(vec![for_(
                "i0",
                4,
                vec![store(
                    access("o", &[1], 0),
                    bin(Add, load("x", &[1], 4), load("ghost", &[1], 0)),
                )],
            )]),
            "load OOB: x[4]",
        ),
        (
            "accumulation into an undeclared scalar",
            small_kernel(vec![
                good(),
                for_(
                    "i0",
                    4,
                    vec![CStmt::AccumScalar {
                        name: "acc".into(),
                        expr: load("x", &[1], 0),
                    }],
                ),
            ]),
            "undeclared scalar 'acc'",
        ),
        (
            "read of a scalar declared only in a zero-trip loop",
            small_kernel(vec![
                good(),
                for_(
                    "i0",
                    0,
                    vec![CStmt::DeclScalar {
                        name: "acc".into(),
                        init: 0.0,
                    }],
                ),
                for_(
                    "i0",
                    4,
                    vec![store(access("o", &[1], 0), CExpr::Var("acc".into()))],
                ),
            ]),
            "undeclared scalar 'acc'",
        ),
    ]
}

#[test]
fn plan_executor_ignores_coefficients_of_loops_not_enclosing_the_access() {
    // The write-back of a reduction sits outside its reduction loops, so
    // its address names more loops than enclose it; the extra ones must
    // not move it. Here o[i0 + 100·i1] is stored at depth 1.
    let k = small_kernel(vec![for_(
        "i0",
        4,
        vec![
            for_(
                "i1",
                2,
                vec![CStmt::StoreAccum {
                    target: access("t", &[1, 0], 0),
                    expr: load("x", &[1, 0], 0),
                }],
            ),
            CStmt::Store {
                target: access("o", &[1, 100], 0),
                expr: load("t", &[1, 100, 1000], 0),
            },
        ],
    )]);
    let mut got = random_mem(&k, 5);
    let mut want = got.clone();
    let c_got = cgen::run_kernel(&k, &mut got).unwrap();
    let c_want = oracle::run_kernel(&k, &mut want).unwrap();
    assert_eq!(c_got, c_want);
    assert_same_bits("write-back", &got, &want);
}

#[test]
fn plan_executor_fails_like_oracle_on_broken_kernels() {
    for (label, k, expected) in broken_kernels() {
        let mut got = random_mem(&k, 7);
        let mut want = got.clone();
        let e_got = cgen::run_kernel(&k, &mut got).unwrap_err();
        let e_want = oracle::run_kernel(&k, &mut want).unwrap_err();
        assert_eq!(e_got, e_want, "{label}");
        assert_eq!(e_got, expected, "{label}");
        // The oracle leaves its locals behind on error; the parameters,
        // with the writes made before the failure, must agree.
        for l in &k.locals {
            want.remove(&l.name);
        }
        assert_same_bits(label, &got, &want);
    }
}

#[test]
fn plan_executor_does_not_allocate_per_iteration() {
    // Lowering, the locals and the odometer allocate once per call; the
    // executed loops allocate nothing. The same kernel at two sizes
    // (3^4 = 81 vs 5^4 = 625 iterations per contraction stage) must
    // allocate exactly as often.
    let count_run = |p: usize, decoupled: bool| {
        let src = cfdlang::examples::inverse_helmholtz(p);
        let m =
            factorize(&lower(&cfdlang::check(&cfdlang::parse(&src).unwrap()).unwrap()).unwrap());
        let km = KernelModel::build(&m, &LayoutPlan::row_major(&m));
        let opts = CodegenOptions {
            decoupled,
            ..Default::default()
        };
        let k = build_kernel(&m, &km, &Schedule::reference(&km), &opts);
        let mut mem = random_mem(&k, 3);
        cgen::run_kernel(&k, &mut mem).unwrap(); // warm-up
        let before = allocations();
        cgen::run_kernel(&k, &mut mem).unwrap();
        allocations() - before
    };
    for decoupled in [true, false] {
        let small = count_run(3, decoupled);
        let large = count_run(5, decoupled);
        assert_eq!(
            small, large,
            "decoupled={decoupled}: {small} allocations at p=3 vs {large} at p=5"
        );
    }
}
