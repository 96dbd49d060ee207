//! Direct execution of generated loop programs.
//!
//! This is the repository's stand-in for "compile the generated C and run
//! it": the loop program is executed over flat `f64` arrays, producing
//! both the functional result (validated against the `teil` interpreter)
//! and the operation counts that parameterize the ARM cost model for the
//! paper's *SW HLS code* measurement (Figure 10).
//!
//! [`run_kernel`] lowers the [`CKernel`] into a plan on every call (it
//! costs microseconds, so nothing is cached):
//!
//! - array names become slot indices and scalar names scalar slots;
//! - every access keeps its current address, which moves by a fixed step
//!   when an enclosing loop advances (an odometer), so no address is
//!   recomputed from the loop variables;
//! - control flow does not depend on data, so the [`ExecCounts`] of a run
//!   that completes are totalled at lowering.
//!
//! The caller's arrays move into the slots for the run and back out
//! afterwards, on success and on error alike; the executed loops do no
//! name lookup and no allocation. The tree-walking executor this
//! replaced, which resolved every access by name, is kept under `tests/`
//! as the differential oracle.

use crate::ir::{ArrAccess, CExpr, CKernel, CStmt};
use cfdlang::BinOp;
use std::collections::HashMap;

/// Operation counts of one kernel execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecCounts {
    pub fp_ops: u64,
    pub loads: u64,
    pub stores: u64,
    /// Integer multiplies spent on address computation.
    pub addr_muls: u64,
    /// Integer additions spent on address computation.
    pub addr_adds: u64,
    /// Loop iterations executed (innermost bodies).
    pub iters: u64,
}

impl ExecCounts {
    /// Add `n` executions of a statement costing `per`.
    fn add_times(&mut self, per: &ExecCounts, n: u64) {
        self.fp_ops += per.fp_ops * n;
        self.loads += per.loads * n;
        self.stores += per.stores * n;
        self.addr_muls += per.addr_muls * n;
        self.addr_adds += per.addr_adds * n;
        self.iters += per.iters * n;
    }

    /// Count one evaluation of an address.
    fn add_addr(&mut self, a: &ArrAccess) {
        self.addr_muls += a.addr.mul_terms() as u64;
        self.addr_adds += a.addr.add_terms() as u64;
    }
}

/// Execute a kernel over named flat arrays. Arrays listed as parameters
/// must be present in `mem` with the right size; locals start zeroed on
/// every call and are never left in `mem`, whether the run succeeds or
/// fails. A failed run leaves the writes it made before the failure in
/// the caller's arrays.
pub fn run_kernel(k: &CKernel, mem: &mut HashMap<String, Vec<f64>>) -> Result<ExecCounts, String> {
    for p in &k.params {
        let a = mem
            .get(&p.name)
            .ok_or_else(|| format!("missing array '{}'", p.name))?;
        if a.len() != p.words {
            return Err(format!(
                "array '{}' has {} words, expected {}",
                p.name,
                a.len(),
                p.words
            ));
        }
    }
    let plan = Plan::lower(k);
    // Move the arrays into their slots. A name that is neither a
    // parameter nor a local resolves through `mem` like a parameter; an
    // absent one binds an empty array marked unknown, so every access to
    // it fails.
    let mut keys: Vec<Option<String>> = Vec::with_capacity(plan.arrays.len());
    let mut arrays: Vec<Vec<f64>> = Vec::with_capacity(plan.arrays.len());
    let mut unknown: Vec<bool> = Vec::with_capacity(plan.arrays.len());
    for (slot, name) in plan.arrays.iter().enumerate() {
        // A local named like a parameter is that parameter.
        let local = (slot >= k.params.len())
            .then(|| k.locals.iter().find(|l| l.name == *name))
            .flatten();
        let (key, a) = match local {
            Some(l) => {
                mem.remove(*name);
                (None, Some(vec![0.0; l.words]))
            }
            None => mem.remove_entry(*name).unzip(),
        };
        unknown.push(a.is_none());
        keys.push(key);
        arrays.push(a.unwrap_or_default());
    }
    let mut m = Machine {
        plan: &plan,
        arrays: &mut arrays,
        unknown,
        addrs: plan.constants.clone(),
        scalars: vec![None; plan.scalars.len()],
    };
    let run = m.steps(&plan.body);
    for (key, a) in keys.into_iter().zip(arrays) {
        if let Some(key) = key {
            mem.insert(key, a);
        }
    }
    run.map(|()| plan.counts)
}

/// A [`CKernel`] lowered for execution.
struct Plan<'k> {
    /// Array names by slot: parameters, locals, then any other name the
    /// body accesses, in order of first appearance.
    arrays: Vec<&'k str>,
    /// Scalar names by slot.
    scalars: Vec<&'k str>,
    /// Address of each access (by access id) with every loop variable at
    /// zero: the starting point of the odometer.
    constants: Vec<i64>,
    /// Coefficients of each access by loop depth. Only needed while
    /// lowering.
    coeffs: Vec<&'k [i64]>,
    body: Vec<Step>,
    /// Counts of a run that completes.
    counts: ExecCounts,
}

/// A lowered statement.
enum Step {
    /// `extent` iterations of `body`. After each one, every access inside
    /// the loop whose address depends on its variable moves by that
    /// variable's coefficient (`bumps`: access id, coefficient). Only
    /// enclosing loops move an access: an address may name more loops
    /// than enclose it (a write-back outside its reduction loops), and
    /// those coefficients are never read.
    Loop {
        extent: i64,
        bumps: Box<[(usize, i64)]>,
        body: Vec<Step>,
    },
    Decl {
        scalar: usize,
        init: f64,
    },
    Accum {
        scalar: usize,
        expr: Expr,
    },
    Store {
        target: Access,
        expr: Expr,
        accum: bool,
    },
}

/// A lowered scalar expression.
enum Expr {
    Const(f64),
    Scalar(usize),
    Load(Access),
    Bin {
        op: BinOp,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
}

/// An array access: the array's slot and the access id that indexes its
/// current address.
struct Access {
    slot: usize,
    id: usize,
}

impl<'k> Plan<'k> {
    fn lower(k: &'k CKernel) -> Plan<'k> {
        let mut plan = Plan {
            arrays: Vec::new(),
            scalars: Vec::new(),
            constants: Vec::new(),
            coeffs: Vec::new(),
            body: Vec::new(),
            counts: ExecCounts::default(),
        };
        for p in k.params.iter().chain(&k.locals) {
            intern(&mut plan.arrays, &p.name);
        }
        plan.body = plan.steps(&k.body, 0, 1);
        plan
    }

    /// Lower `stmts` at loop nesting `depth`, executed `trips` times.
    fn steps(&mut self, stmts: &'k [CStmt], depth: usize, trips: u64) -> Vec<Step> {
        stmts
            .iter()
            .map(|s| {
                let mut per = ExecCounts::default();
                let step = match s {
                    CStmt::For { extent, body, .. } => {
                        let first = self.constants.len();
                        let body = self.steps(body, depth + 1, trips * *extent as u64);
                        let bumps = (first..self.constants.len())
                            .filter_map(|id| {
                                let c = self.coeffs[id].get(depth).copied().unwrap_or(0);
                                (c != 0).then_some((id, c))
                            })
                            .collect();
                        Step::Loop {
                            extent: *extent as i64,
                            bumps,
                            body,
                        }
                    }
                    CStmt::DeclScalar { name, init } => Step::Decl {
                        scalar: intern(&mut self.scalars, name),
                        init: *init,
                    },
                    CStmt::AccumScalar { name, expr } => {
                        per.fp_ops += 1;
                        per.iters += 1;
                        Step::Accum {
                            expr: self.expr(expr, &mut per),
                            scalar: intern(&mut self.scalars, name),
                        }
                    }
                    CStmt::Store { target, expr } | CStmt::StoreAccum { target, expr } => {
                        let accum = matches!(s, CStmt::StoreAccum { .. });
                        per.fp_ops += u64::from(accum);
                        per.stores += 1;
                        per.iters += 1;
                        per.add_addr(target);
                        Step::Store {
                            expr: self.expr(expr, &mut per),
                            target: self.access(target),
                            accum,
                        }
                    }
                };
                self.counts.add_times(&per, trips);
                step
            })
            .collect()
    }

    fn expr(&mut self, e: &'k CExpr, per: &mut ExecCounts) -> Expr {
        match e {
            CExpr::Const(c) => Expr::Const(*c),
            CExpr::Var(name) => Expr::Scalar(intern(&mut self.scalars, name)),
            CExpr::Load(a) => {
                per.loads += 1;
                per.add_addr(a);
                Expr::Load(self.access(a))
            }
            CExpr::Bin { op, lhs, rhs } => {
                per.fp_ops += 1;
                Expr::Bin {
                    op: *op,
                    lhs: Box::new(self.expr(lhs, per)),
                    rhs: Box::new(self.expr(rhs, per)),
                }
            }
        }
    }

    fn access(&mut self, a: &'k ArrAccess) -> Access {
        self.constants.push(a.addr.constant);
        self.coeffs.push(&a.addr.coeffs);
        Access {
            slot: intern(&mut self.arrays, &a.array),
            id: self.constants.len() - 1,
        }
    }

    fn undeclared(&self, scalar: usize) -> String {
        format!("undeclared scalar '{}'", self.scalars[scalar])
    }
}

/// Slot of `name` in `names`, appending it on first sight.
fn intern<'k>(names: &mut Vec<&'k str>, name: &'k str) -> usize {
    names.iter().position(|n| *n == name).unwrap_or_else(|| {
        names.push(name);
        names.len() - 1
    })
}

/// Run state of a plan: the bound arrays (with which of them are
/// unknown), the current address of every access and the scalars
/// (`None` until declared).
struct Machine<'a, 'k> {
    plan: &'a Plan<'k>,
    arrays: &'a mut [Vec<f64>],
    unknown: Vec<bool>,
    addrs: Vec<i64>,
    scalars: Vec<Option<f64>>,
}

impl Machine<'_, '_> {
    fn steps(&mut self, steps: &[Step]) -> Result<(), String> {
        for s in steps {
            match s {
                Step::Loop {
                    extent,
                    bumps,
                    body,
                } => {
                    for _ in 0..*extent {
                        self.steps(body)?;
                        for &(id, c) in bumps.iter() {
                            self.addrs[id] += c;
                        }
                    }
                    for &(id, c) in bumps.iter() {
                        self.addrs[id] -= c * extent;
                    }
                }
                Step::Decl { scalar, init } => self.scalars[*scalar] = Some(*init),
                Step::Accum { scalar, expr } => {
                    let v = self.value(expr)?;
                    let acc = self.scalars[*scalar]
                        .as_mut()
                        .ok_or_else(|| self.plan.undeclared(*scalar))?;
                    *acc += v;
                }
                Step::Store {
                    target,
                    expr,
                    accum,
                } => {
                    let v = self.value(expr)?;
                    let addr = self.addrs[target.id];
                    let Some(slot) = self.arrays[target.slot].get_mut(addr as usize) else {
                        return Err(self.access_error("store", target.slot, addr));
                    };
                    if *accum {
                        *slot += v;
                    } else {
                        *slot = v;
                    }
                }
            }
        }
        Ok(())
    }

    /// Evaluate `e`, recording the first failed access in `fault` (left
    /// to right, as a short-circuiting walk would stop). A failed access
    /// reads as NaN; loads have no side effects, so the caller checks
    /// `fault` once after the whole expression.
    fn eval(&self, e: &Expr, fault: &mut Option<String>) -> f64 {
        match e {
            Expr::Const(c) => *c,
            Expr::Scalar(s) => self.scalars[*s].unwrap_or_else(|| {
                fault.get_or_insert_with(|| self.plan.undeclared(*s));
                f64::NAN
            }),
            Expr::Load(a) => {
                let addr = self.addrs[a.id];
                self.arrays[a.slot]
                    .get(addr as usize)
                    .copied()
                    .unwrap_or_else(|| {
                        fault.get_or_insert_with(|| self.access_error("load", a.slot, addr));
                        f64::NAN
                    })
            }
            Expr::Bin { op, lhs, rhs } => {
                let a = self.eval(lhs, fault);
                let b = self.eval(rhs, fault);
                match op {
                    BinOp::Add => a + b,
                    BinOp::Sub => a - b,
                    BinOp::Mul => a * b,
                    BinOp::Div => a / b,
                }
            }
        }
    }

    /// Why a `kind` ("load" or "store") access to `slot` at `addr`
    /// failed.
    fn access_error(&self, kind: &str, slot: usize, addr: i64) -> String {
        let name = self.plan.arrays[slot];
        if self.unknown[slot] {
            format!("unknown array '{name}'")
        } else {
            format!("{kind} OOB: {name}[{addr}]")
        }
    }

    /// Evaluate `e`, failing on its first failed access.
    fn value(&self, e: &Expr) -> Result<f64, String> {
        let mut fault = None;
        let v = self.eval(e, &mut fault);
        fault.map_or(Ok(v), Err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_kernel, CodegenOptions};
    use pschedule::{KernelModel, Schedule};
    use teil::interp::{inputs_from, Interpreter, Tensor};
    use teil::layout::LayoutPlan;
    use teil::lower::lower;
    use teil::transform::factorize;

    fn setup(src: &str, factored: bool, decoupled: bool) -> (teil::ir::Module, CKernel) {
        let typed = cfdlang::check(&cfdlang::parse(src).unwrap()).unwrap();
        let mut m = lower(&typed).unwrap();
        if factored {
            m = factorize(&m);
        }
        let layout = LayoutPlan::row_major(&m);
        let km = KernelModel::build(&m, &layout);
        let s = Schedule::reference(&km);
        let opts = CodegenOptions {
            decoupled,
            ..Default::default()
        };
        let k = build_kernel(&m, &km, &s, &opts);
        (m, k)
    }

    fn rand_tensor(shape: &[usize], seed: usize) -> Tensor {
        Tensor::from_fn(shape, |idx| {
            let h = idx
                .iter()
                .enumerate()
                .fold(seed * 2654435761, |a, (d, &i)| {
                    a.wrapping_mul(31).wrapping_add(i * 7 + d)
                });
            ((h % 1000) as f64) / 499.5 - 1.0
        })
    }

    /// Generated code must agree with the interpreter bit-for-bit when
    /// both use the same evaluation order (reference schedule).
    #[test]
    fn generated_code_matches_interpreter_exactly() {
        for factored in [false, true] {
            for decoupled in [true, false] {
                let (m, k) = setup(
                    &cfdlang::examples::inverse_helmholtz(5),
                    factored,
                    decoupled,
                );
                let s = rand_tensor(&[5, 5], 1);
                let d = rand_tensor(&[5, 5, 5], 2);
                let u = rand_tensor(&[5, 5, 5], 3);
                let ex = Interpreter::new(&m)
                    .run(&inputs_from(vec![
                        ("S", s.clone()),
                        ("D", d.clone()),
                        ("u", u.clone()),
                    ]))
                    .unwrap();
                let mut mem: HashMap<String, Vec<f64>> = HashMap::new();
                for p in &k.params {
                    mem.insert(p.name.clone(), vec![0.0; p.words]);
                }
                mem.insert("S".into(), s.data.clone());
                mem.insert("D".into(), d.data.clone());
                mem.insert("u".into(), u.data.clone());
                run_kernel(&k, &mut mem).unwrap();
                let v_ref = ex.value(&m, "v").unwrap();
                assert_eq!(
                    mem["v"], v_ref.data,
                    "factored={factored} decoupled={decoupled}"
                );
            }
        }
    }

    #[test]
    fn axpy_kernel_runs() {
        let (m, k) = setup(&cfdlang::examples::axpy(3), false, true);
        let mut mem: HashMap<String, Vec<f64>> = HashMap::new();
        for p in &k.params {
            mem.insert(p.name.clone(), vec![0.0; p.words]);
        }
        mem.insert("x".into(), vec![1.0; 27]);
        mem.insert("y".into(), vec![2.0; 27]);
        mem.insert("a".into(), vec![3.0]);
        run_kernel(&k, &mut mem).unwrap();
        assert!(mem["o"].iter().all(|&v| v == 5.0));
        drop(m);
    }

    #[test]
    fn op_counts_scale_with_volume() {
        let (_m, k) = setup(&cfdlang::examples::inverse_helmholtz(4), true, true);
        let mut mem: HashMap<String, Vec<f64>> = HashMap::new();
        for p in &k.params {
            mem.insert(p.name.clone(), vec![0.0; p.words]);
        }
        let c = run_kernel(&k, &mut mem).unwrap();
        // 6 stages × 4^4 iterations × (1 mul + 1 acc) + hadamard 4^3.
        let stage_iters = 6 * 4u64.pow(4);
        assert_eq!(c.iters, stage_iters + 4u64.pow(3) + 6 * 4u64.pow(3));
        assert!(c.fp_ops >= 2 * stage_iters);
        assert!(c.addr_muls > 0, "flat addressing costs integer muls");
    }

    #[test]
    fn missing_array_is_error() {
        let (_m, k) = setup(&cfdlang::examples::axpy(2), false, true);
        let mut mem = HashMap::new();
        assert!(run_kernel(&k, &mut mem)
            .unwrap_err()
            .contains("missing array"));
    }

    #[test]
    fn wrong_size_is_error() {
        let (_m, k) = setup(&cfdlang::examples::axpy(2), false, true);
        let mut mem: HashMap<String, Vec<f64>> = HashMap::new();
        for p in &k.params {
            mem.insert(p.name.clone(), vec![0.0; p.words + 1]);
        }
        assert!(run_kernel(&k, &mut mem).unwrap_err().contains("words"));
    }

    #[test]
    fn failed_run_removes_locals_and_returns_params() {
        let (_m, mut k) = setup(&cfdlang::examples::inverse_helmholtz(3), true, false);
        assert!(!k.locals.is_empty());
        // A final store one past the end of the output `v` (27 words).
        k.body.push(CStmt::Store {
            target: ArrAccess {
                array: "v".into(),
                addr: crate::ir::AffineAddr {
                    coeffs: vec![],
                    constant: 27,
                },
            },
            expr: CExpr::Const(1.0),
        });
        let mut mem: HashMap<String, Vec<f64>> = HashMap::new();
        for p in &k.params {
            mem.insert(p.name.clone(), vec![0.5; p.words]);
        }
        let err = run_kernel(&k, &mut mem).unwrap_err();
        assert_eq!(err, "store OOB: v[27]");
        for l in &k.locals {
            assert!(!mem.contains_key(&l.name), "local '{}' leaked", l.name);
        }
        assert_eq!(mem.len(), k.params.len());
        for p in &k.params {
            assert_eq!(mem[&p.name].len(), p.words, "'{}' returned", p.name);
        }
        // The stores made before the failure stay in the output.
        assert!(mem["v"].iter().any(|&x| x != 0.5));
    }

    #[test]
    fn locals_start_zeroed_even_when_the_map_holds_their_name() {
        use crate::ir::{AffineAddr, CParam, ParamRole};
        let at0 = |array: &str| ArrAccess {
            array: array.into(),
            addr: AffineAddr {
                coeffs: vec![],
                constant: 0,
            },
        };
        let word = |name: &str, role| CParam {
            name: name.into(),
            words: 1,
            role,
        };
        // t[0] += 1; o[0] = t[0]
        let k = CKernel {
            name: "k".into(),
            params: vec![word("o", ParamRole::Output)],
            locals: vec![word("t", ParamRole::Temp)],
            body: vec![
                CStmt::StoreAccum {
                    target: at0("t"),
                    expr: CExpr::Const(1.0),
                },
                CStmt::Store {
                    target: at0("o"),
                    expr: CExpr::Load(at0("t")),
                },
            ],
        };
        let mut mem: HashMap<String, Vec<f64>> = HashMap::new();
        mem.insert("o".into(), vec![0.0]);
        mem.insert("t".into(), vec![41.0]);
        run_kernel(&k, &mut mem).unwrap();
        assert_eq!(mem["o"], vec![1.0]);
        assert!(!mem.contains_key("t"));
    }

    #[test]
    fn locals_are_cleaned_up() {
        let (_m, k) = setup(&cfdlang::examples::inverse_helmholtz(3), true, false);
        let mut mem: HashMap<String, Vec<f64>> = HashMap::new();
        for p in &k.params {
            mem.insert(p.name.clone(), vec![0.0; p.words]);
        }
        run_kernel(&k, &mut mem).unwrap();
        assert!(!mem.contains_key("t0"), "locals must not leak");
        assert!(mem.contains_key("v"));
    }
}
