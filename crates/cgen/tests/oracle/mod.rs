//! The tree-walking executor that `cgen::exec` used before it ran
//! lowered plans, frozen as the differential oracle: every array access
//! looks its array up by name in the caller's map and recomputes its
//! address from the loop-variable stack, and every scalar is a name
//! lookup. Test-only; the library has one executor.

use cgen::ir::{ArrAccess, CExpr, CKernel, CStmt};
use cgen::ExecCounts;
use std::collections::HashMap;

/// Execute a kernel over named flat arrays. Arrays listed as parameters
/// must be present in `mem` with the right size; locals are allocated and
/// dropped internally.
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
    // Locals live only for the call.
    for l in &k.locals {
        mem.entry(l.name.clone())
            .or_insert_with(|| vec![0.0; l.words]);
    }
    let mut counts = ExecCounts::default();
    let mut vars: Vec<(String, i64)> = Vec::new();
    let mut scalars: HashMap<String, f64> = HashMap::new();
    for s in &k.body {
        exec_stmt(s, mem, &mut vars, &mut scalars, &mut counts)?;
    }
    for l in &k.locals {
        mem.remove(&l.name);
    }
    Ok(counts)
}

fn exec_stmt(
    s: &CStmt,
    mem: &mut HashMap<String, Vec<f64>>,
    vars: &mut Vec<(String, i64)>,
    scalars: &mut HashMap<String, f64>,
    counts: &mut ExecCounts,
) -> Result<(), String> {
    match s {
        CStmt::For { var, extent, body } => {
            vars.push((var.clone(), 0));
            for i in 0..*extent as i64 {
                vars.last_mut().expect("pushed").1 = i;
                for b in body {
                    exec_stmt(b, mem, vars, scalars, counts)?;
                }
            }
            vars.pop();
            Ok(())
        }
        CStmt::DeclScalar { name, init } => {
            scalars.insert(name.clone(), *init);
            Ok(())
        }
        CStmt::AccumScalar { name, expr } => {
            let v = eval(expr, mem, vars, scalars, counts)?;
            let slot = scalars
                .get_mut(name)
                .ok_or_else(|| format!("undeclared scalar '{name}'"))?;
            *slot += v;
            counts.fp_ops += 1;
            counts.iters += 1;
            Ok(())
        }
        CStmt::Store { target, expr } => {
            let v = eval(expr, mem, vars, scalars, counts)?;
            store(target, v, false, mem, vars, counts)?;
            counts.iters += 1;
            Ok(())
        }
        CStmt::StoreAccum { target, expr } => {
            let v = eval(expr, mem, vars, scalars, counts)?;
            store(target, v, true, mem, vars, counts)?;
            counts.fp_ops += 1;
            counts.iters += 1;
            Ok(())
        }
    }
}

fn addr_of(a: &ArrAccess, vars: &[(String, i64)], counts: &mut ExecCounts) -> i64 {
    // The loop variables of the *innermost* enclosing nest appear in
    // order; an access's coefficients index the nest from its outermost
    // loop. Addresses may reference fewer loops than are live (e.g. the
    // write-back sits outside the reduction loops), so align by prefix.
    let n = a.addr.coeffs.len().min(vars.len());
    let vals: Vec<i64> = vars[..n].iter().map(|(_, v)| *v).collect();
    counts.addr_muls += a.addr.mul_terms() as u64;
    counts.addr_adds += a.addr.add_terms() as u64;
    let mut addr = a.addr.constant;
    for (c, v) in a.addr.coeffs[..n].iter().zip(&vals) {
        addr += c * v;
    }
    addr
}

fn store(
    target: &ArrAccess,
    v: f64,
    accum: bool,
    mem: &mut HashMap<String, Vec<f64>>,
    vars: &[(String, i64)],
    counts: &mut ExecCounts,
) -> Result<(), String> {
    let addr = addr_of(target, vars, counts);
    let arr = mem
        .get_mut(&target.array)
        .ok_or_else(|| format!("unknown array '{}'", target.array))?;
    let slot = arr
        .get_mut(addr as usize)
        .ok_or_else(|| format!("store OOB: {}[{addr}]", target.array))?;
    if accum {
        *slot += v;
    } else {
        *slot = v;
    }
    counts.stores += 1;
    Ok(())
}

fn eval(
    e: &CExpr,
    mem: &HashMap<String, Vec<f64>>,
    vars: &[(String, i64)],
    scalars: &HashMap<String, f64>,
    counts: &mut ExecCounts,
) -> Result<f64, String> {
    match e {
        CExpr::Const(c) => Ok(*c),
        CExpr::Var(v) => scalars
            .get(v)
            .copied()
            .ok_or_else(|| format!("undeclared scalar '{v}'")),
        CExpr::Load(a) => {
            let addr = addr_of(a, vars, counts);
            counts.loads += 1;
            mem.get(&a.array)
                .ok_or_else(|| format!("unknown array '{}'", a.array))?
                .get(addr as usize)
                .copied()
                .ok_or_else(|| format!("load OOB: {}[{addr}]", a.array))
        }
        CExpr::Bin { op, lhs, rhs } => {
            let a = eval(lhs, mem, vars, scalars, counts)?;
            let b = eval(rhs, mem, vars, scalars, counts)?;
            counts.fp_ops += 1;
            Ok(match op {
                cfdlang::BinOp::Add => a + b,
                cfdlang::BinOp::Sub => a - b,
                cfdlang::BinOp::Mul => a * b,
                cfdlang::BinOp::Div => a / b,
            })
        }
    }
}
