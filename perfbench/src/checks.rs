//! Once-per-run figures and checks: the paper's simulated figures, the
//! cross-check against the committed serving figures, the fault loop's
//! scaling, and the executor's computed operation counts.

use crate::stats::{median, Ops};
use crate::workloads::{Inputs, Setup, ELEMENTS};
use cfd_core::dse::DseEngine;
use cfd_core::{Arrival, RecoveryPolicy, RuntimeOptions};
use std::collections::HashMap;
use sysgen::{Platform, SystemConfig};
use zynq::SimConfig;

/// Paper Fig. 9: total speedup of k = 16 over k = 1 on the zcu106.
pub const PAPER_FIG9_K16: f64 = 12.58;
/// Paper Fig. 10: k = 16 against the ARM software reference.
pub const PAPER_FIG10_K16_VS_ARM: f64 = 8.62;
/// Paper: 16 parallel kernels fit with PLM sharing (8 without).
pub const PAPER_MAX_KERNELS: usize = 16;
/// `BENCH_pr10.json`, `runtime`: 64 closed requests on the zcu106.
pub const PR10_BATCHED_RPS: &str = "10396.564";
pub const PR10_P99_S: &str = "0.006156";

pub struct PaperFigures {
    pub speedup_vs_arm: f64,
    pub speedup_k16_vs_k1: f64,
    pub max_kernels: usize,
}

/// The paper kernel on the zcu106 at 50,000 elements: its largest
/// feasible replication against one kernel and against the ARM model.
pub fn paper_figures(inp: &Inputs, ops: &mut Ops) -> Option<PaperFigures> {
    let opts = inp.flow(Platform::zcu106());
    let engine = ops.ok(
        DseEngine::prepare(&inp.paper, &opts),
        "prepare inverse_helmholtz(11)",
    )?;
    let best = ops.ok(engine.artifacts_for(&opts), "paper kernel, largest k")?;
    let single = ops.ok(
        engine.artifacts_for(&cfd_core::FlowOptions {
            system: Some(SystemConfig { k: 1, m: 1 }),
            ..opts.clone()
        }),
        "paper kernel, k = 1",
    )?;
    let sim = SimConfig {
        elements: ELEMENTS,
        ..Default::default()
    };
    let hw = ops.ok(best.simulate(&sim), "simulate largest k")?;
    let hw1 = ops.ok(single.simulate(&sim), "simulate k = 1")?;
    let (arm, _) = ops.ok(best.sw_times(ELEMENTS), "ARM model")?;
    let max_kernels = best.system.as_ref().map_or(0, |s| s.config.k);
    ops.check(max_kernels == PAPER_MAX_KERNELS, || {
        format!("largest feasible k is {max_kernels}, the paper fits {PAPER_MAX_KERNELS}")
    });
    Some(PaperFigures {
        speedup_vs_arm: arm.total_s / hw.total_s,
        speedup_k16_vs_k1: hw1.total_s / hw.total_s,
        max_kernels,
    })
}

/// A timing-only 64-request closed backlog on the zcu106 must reproduce
/// the committed `BENCH_pr10.json` serving figures.
pub fn cross_check_pr10(setup: &Setup, ops: &mut Ops) {
    let opts = RuntimeOptions {
        requests: 64,
        ..Default::default()
    };
    if let Some(out) = ops.ok(setup.program.serve(&opts), "64-request closed backlog") {
        let rps = format!("{:.3}", out.report.throughput_rps);
        let p99 = format!("{:.6}", out.report.latency_p99_s);
        ops.check(rps == PR10_BATCHED_RPS && p99 == PR10_P99_S, || {
            format!(
                "64-request backlog gives {rps} req/s, p99 {p99} s; \
                 BENCH_pr10.json has {PR10_BATCHED_RPS} and {PR10_P99_S}"
            )
        });
    }
}

/// Per-request host cost of `simulate_faulty_stream` at `2n` requests
/// over its cost at `n`: 1.0 when the loop is linear, 2.0 when it is
/// quadratic.
pub fn faulty_scaling_ratio(inp: &Inputs, setup: &Setup, seed: u64, ops: &mut Ops) -> f64 {
    const N: usize = 4096;
    const REPS: usize = 3;
    let design = &setup.boards[0].design;
    let base = RuntimeOptions::default();
    let capacity = base.batch.capacity(design.config.m);
    let spec = RecoveryPolicy::default().to_spec();
    // 0.8x of the board's own closed-backlog rate, like the faulty segment.
    let rate = 0.8 * setup.capacity_rps * 0.5;
    let mut per_request = Vec::new();
    for n in [N, 2 * N] {
        let Some(reqs) = ops.ok(
            runtime::generate_timing_requests(n, &Arrival::Poisson { rate_rps: rate }, seed),
            "scaling-probe arrivals",
        ) else {
            return 0.0;
        };
        let arrivals: Vec<u64> = reqs.iter().map(|r| zynq::des::secs(r.arrival_s)).collect();
        let times: Vec<f64> = (0..REPS)
            .map(|_| {
                let t = std::time::Instant::now();
                std::hint::black_box(zynq::simulate_faulty_stream(
                    design,
                    &base.sim,
                    &arrivals,
                    capacity,
                    true,
                    &inp.faults,
                    &spec,
                ));
                t.elapsed().as_secs_f64()
            })
            .collect();
        per_request.push(median(&times) / n as f64);
    }
    per_request[1] / per_request[0]
}

/// Operations and bytes one request moves through the executor,
/// computed from `cgen::ExecCounts` by running the chain kernel by
/// kernel (the handoff rule of `zynq::run_program_chain`). The outputs
/// must equal the chain's.
pub fn exec_counts(setup: &Setup, seed: u64, ops: &mut Ops) -> (f64, f64) {
    let names = &setup.program.names;
    let modules = setup.modules();
    let kernels = setup.kernels();
    let Some(req) = ops
        .ok(
            runtime::generate_requests(&modules, 1, &Arrival::Closed, seed),
            "generate one request",
        )
        .and_then(|mut v| v.pop())
    else {
        return (0.0, 0.0);
    };
    let mut produced: HashMap<String, Vec<f64>> = HashMap::new();
    let mut out: HashMap<String, Vec<f64>> = HashMap::new();
    let (mut fp_ops, mut words) = (0u64, 0u64);
    for ((name, module), kernel) in names.iter().zip(&modules).zip(&kernels) {
        let mut mem: HashMap<String, Vec<f64>> = kernel
            .params
            .iter()
            .map(|p| (p.name.clone(), vec![0.0; p.words]))
            .collect();
        for id in module.of_kind(teil::TensorKind::Input) {
            let n = module.name(id);
            let data = produced
                .get(n)
                .cloned()
                .or_else(|| req.inputs.get(n).map(|t| t.data.clone()))
                .unwrap_or_default();
            mem.insert(n.to_string(), data);
        }
        let Some(c) = ops.ok(cgen::run_kernel(kernel, &mut mem), "run kernel") else {
            return (0.0, 0.0);
        };
        fp_ops += c.fp_ops;
        words += c.loads + c.stores;
        for id in module.of_kind(teil::TensorKind::Output) {
            let n = module.name(id);
            let v = mem.get(n).cloned().unwrap_or_default();
            out.insert(format!("{name}.{n}"), v.clone());
            produced.insert(n.to_string(), v);
        }
    }
    if let Some(chain) = ops.ok(
        zynq::run_program_chain(names, &modules, &kernels, &req.inputs),
        "kernel chain",
    ) {
        ops.check(crate::workloads::same_bits(&chain, &out), || {
            "kernel-by-kernel run differs from the chain".into()
        });
    }
    (fp_ops as f64, words as f64 * 8.0)
}
