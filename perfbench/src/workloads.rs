//! The three workloads: set-up, and one iteration of each.
//!
//! Every iteration times its user-facing calls (`call`, the
//! end-to-end figure) and then runs untimed verification or layer
//! probes around the same data. Traced and untraced iterations do the
//! same work; only whether spans are recorded differs.

use crate::stats::{quantile, ratio, Digest, Ops};
use crate::trace::{Cost, Tracer};
use cfd_core::dse::{DseEngine, DseGrid};
use cfd_core::program::{ProgramArtifacts, ProgramFlow, ProgramOptions};
use cfd_core::{
    Arrival, FaultPlan, FleetBoard, FleetOptions, FleetReport, FlowOptions, OnlinePolicy, Pipeline,
    RecoveryPolicy, RequestOutcome, RoutePolicy, RuntimeOptions,
};
use std::collections::HashMap;
use sysgen::Platform;
use teil::interp::Tensor;
use teil::Module;

/// Worker threads for compile and DSE calls. One: the metrics count
/// CPU time, and with two workers `explore` spent about 37% more CPU
/// per call, with twice the run-to-run spread, on thread hand-offs and
/// shared polyhedral memo tables. The fleet still runs one thread per
/// board, so a run uses at most 2 threads.
pub const JOBS: usize = 1;
/// The paper's problem size.
pub const ELEMENTS: usize = 50_000;
/// Closed backlog served per `serve_execute` iteration.
pub const EXEC_REQUESTS: usize = 8;
/// Poisson stream length per `serve_stream` segment.
pub const STREAM_REQUESTS: usize = 8192;
/// Closed backlog per board that measures the fleet's capacity.
pub const CAPACITY_BACKLOG_PER_BOARD: usize = 64;
/// Fault plan armed on board 0 in the `faulty` segment.
pub const FAULTS: &str = "7:transient=0.05,stall=0.05";
pub const PRIORITY_TIERS: u8 = 2;
pub const SHED_QUEUE: usize = 256;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Explore,
    ServeExecute,
    ServeStream,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Explore, Kind::ServeExecute, Kind::ServeStream];

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::Explore => "explore",
            Kind::ServeExecute => "serve_execute",
            Kind::ServeStream => "serve_stream",
        }
    }

    /// What `IterOut::items` counts.
    pub fn items(self) -> &'static str {
        match self {
            Kind::Explore => "design points",
            Kind::ServeExecute => "verified requests",
            Kind::ServeStream => "served requests",
        }
    }
}

/// Fixed inputs shared by every iteration.
pub struct Inputs {
    pub simstep: String,
    pub paper: String,
    pub dense_grid: DseGrid,
    pub faults: FaultPlan,
}

impl Inputs {
    pub fn new() -> Inputs {
        Inputs {
            simstep: cfdlang::examples::simulation_step(7),
            paper: cfdlang::examples::inverse_helmholtz(11),
            // The dense grid of the committed portfolio figure: 11
            // replications x 3 batch factors x sharing x decoupling x 2
            // partitions = 264 points per (platform, clock).
            dense_grid: DseGrid {
                k: vec![1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 16],
                batch: vec![1, 2, 4],
                sharing: vec![true, false],
                decoupled: vec![true, false],
                partition: vec![1, 2],
            },
            faults: FaultPlan::parse(FAULTS).expect("fault plan spec is well formed"),
        }
    }

    pub fn flow(&self, platform: Platform) -> FlowOptions {
        FlowOptions {
            jobs: JOBS,
            elements: ELEMENTS,
            ..FlowOptions::for_platform(platform)
        }
    }

    pub fn program(&self, platform: Platform) -> ProgramOptions {
        ProgramOptions {
            flow: self.flow(platform),
            ..Default::default()
        }
    }
}

/// What set-up builds: the simulation_step(7) program compiled for the
/// zcu106 and the zc706, and the 2-board fleet's measured capacity.
pub struct Setup {
    pub program: ProgramArtifacts,
    pub boards: Vec<FleetBoard>,
    pub faulty_boards: Vec<FleetBoard>,
    pub capacity_rps: f64,
    pub slo_s: f64,
}

impl Setup {
    pub fn build(inp: &Inputs) -> Result<Setup, String> {
        polyhedra::intern::clear_memo();
        let mut arts = Vec::new();
        for platform in [Platform::zcu106(), Platform::zc706()] {
            let id = platform.id.clone();
            let art = ProgramFlow::compile(&inp.simstep, &inp.program(platform))
                .map_err(|e| format!("compile for {id}: {e}"))?;
            if art.system.is_none() {
                return Err(format!("simulation_step(7) does not fit the {id}"));
            }
            arts.push(art);
        }
        let boards: Vec<FleetBoard> = arts
            .iter()
            .map(|a| FleetBoard::healthy(a.system.clone().expect("checked above")))
            .collect();
        let mut faulty_boards = boards.clone();
        faulty_boards[0].faults = inp.faults.clone();
        let program = arts.swap_remove(0);
        let backlog = CAPACITY_BACKLOG_PER_BOARD * boards.len();
        let closed = program
            .serve_fleet(
                &boards,
                &FleetOptions {
                    route: RoutePolicy::Predictive,
                    parallel: true,
                    base: RuntimeOptions {
                        requests: backlog,
                        ..Default::default()
                    },
                },
            )
            .map_err(|e| format!("capacity probe: {e}"))?
            .report;
        Ok(Setup {
            program,
            boards,
            faulty_boards,
            capacity_rps: closed.aggregate_rps,
            slo_s: closed.latency_p99_s,
        })
    }

    pub fn modules(&self) -> Vec<&Module> {
        self.program.kernels.iter().map(|a| &*a.module).collect()
    }

    pub fn kernels(&self) -> Vec<&cgen::CKernel> {
        self.program.kernels.iter().map(|a| &a.kernel).collect()
    }
}

/// One iteration's figures: `counts` are layer counts and ratios
/// (polyhedra oracle, DSE, DES), `times` CPU seconds of named pieces of
/// the iteration (so they scale with machine speed), `sim` simulated
/// figures.
pub struct IterOut {
    pub call: Cost,
    pub items: usize,
    pub digest: u64,
    pub counts: Vec<(&'static str, f64)>,
    pub times: Vec<(&'static str, f64)>,
    pub sim: Vec<(&'static str, f64)>,
}

pub fn run(
    kind: Kind,
    inp: &Inputs,
    setup: &Setup,
    seed: u64,
    tr: &mut Tracer,
    ops: &mut Ops,
) -> Option<IterOut> {
    match kind {
        Kind::Explore => explore(inp, tr, ops),
        Kind::ServeExecute => serve_execute(setup, seed, tr, ops),
        Kind::ServeStream => serve_stream(inp, setup, seed, tr, ops),
    }
}

/// Cold compile of simulation_step(7), then a cold portfolio
/// exploration of the paper kernel over the whole board catalog.
fn explore(inp: &Inputs, tr: &mut Tracer, ops: &mut Ops) -> Option<IterOut> {
    polyhedra::intern::clear_memo();
    let oracle_base = polyhedra::OracleCounters::snapshot();
    let zcu106 = inp.flow(Platform::zcu106());

    let (compiled, t_compile) = tr.span("cfd-core.compile", |_| {
        ProgramFlow::compile(&inp.simstep, &inp.program(Platform::zcu106()))
    });
    let art = ops.ok(compiled, "compile simulation_step(7)")?;
    ops.check(art.kernel_count() == 3 && art.system.is_some(), || {
        "simulation_step(7) must compile to 3 kernels that fit the zcu106".into()
    });
    let (engine, t_prepare) = tr.span("dse.prepare", |_| DseEngine::prepare(&inp.paper, &zcu106));
    let engine = ops.ok(engine, "prepare inverse_helmholtz(11)")?;
    let catalog = Platform::catalog();
    let (portfolio, t_portfolio) = tr.span("dse.portfolio", |_| {
        engine.run_portfolio(&catalog, &inp.dense_grid, JOBS, ELEMENTS)
    });
    ops.check(
        portfolio.evaluated == 4488 && portfolio.feasible == 3206,
        || {
            format!(
                "dense portfolio: {} evaluated / {} feasible, expected 4488 / 3206",
                portfolio.evaluated, portfolio.feasible
            )
        },
    );

    // The paper's memory claim on the prepared engine: without sharing
    // the PLMs take 28 BRAMs and 8 kernels fit; with sharing 16 and 16.
    let mut dig = Digest::new();
    for (sharing, brams, k) in [(false, 28usize, 8usize), (true, 16, 16)] {
        let mut opts = zcu106.clone();
        opts.memory.sharing = sharing;
        let (be, _) = tr.span("cfd-core.backend", |_| {
            engine.pipeline().backend(engine.scheduled(), &opts)
        });
        let (sys, _) = tr.span("cfd-core.system", |_| engine.pipeline().system(&be, &opts));
        let got_k = sys.ok().and_then(|s| s.system).map_or(0, |d| d.config.k);
        ops.check(be.memory.brams == brams && got_k == k, || {
            format!(
                "paper kernel, sharing={sharing}: {} PLM BRAMs / max k {got_k}, \
                 expected {brams} / {k}",
                be.memory.brams
            )
        });
        dig.u64(be.memory.brams as u64).u64(got_k as u64);
    }

    // The compile stages one by one on a fresh pipeline, cold, so each
    // front- and middle-end layer is timed from outside.
    polyhedra::intern::clear_memo();
    let pipeline = Pipeline::new();
    let (fronts, _) = tr.span("cfdlang.program_frontend", |_| {
        pipeline.program_frontend(&inp.simstep)
    });
    let fronts = ops.ok(fronts, "program frontend")?;
    let kopts = FlowOptions {
        system: None,
        ..zcu106.clone()
    };
    let mut scheds = Vec::with_capacity(fronts.len());
    for (name, fe) in &fronts {
        let (me, _) = tr.span("teil.middle_end", |_| pipeline.middle_end(fe, &kopts));
        let me = ops.ok(me, &format!("middle end of {name}"))?;
        let (sc, _) = tr.span("pschedule.schedule", |_| pipeline.schedule(&me, &kopts));
        scheds.push(sc);
    }
    let names: Vec<String> = fronts.iter().map(|(n, _)| n.clone()).collect();
    let (link, _) = tr.span("pschedule.link", |_| pipeline.link(&names, &scheds));
    ops.ok(link, "link")?;
    let oracle = polyhedra::OracleCounters::snapshot().since(oracle_base);

    let system = art.system.as_ref().expect("checked above");
    dig.u64(system.config.m as u64)
        .u64(system.luts as u64)
        .u64(system.brams as u64)
        .u64(art.memory.brams as u64)
        .u64(portfolio.evaluated as u64)
        .u64(portfolio.feasible as u64)
        .u64(portfolio.backend_compiles as u64)
        .u64(portfolio.backend_reuses as u64);
    let mut rows: Vec<String> = portfolio
        .outcomes
        .iter()
        .map(|p| {
            let o = &p.outcome;
            format!(
                "{} {} {} {} {} {} {} {} {} {:x} {:x} {:x} {} {}",
                p.platform,
                p.clock_mhz.to_bits(),
                o.point.label(),
                o.feasible,
                o.luts,
                o.ffs,
                o.dsps,
                o.brams,
                o.plm_brams,
                o.total_s.to_bits(),
                o.service_rps.to_bits(),
                o.service_p99_s.to_bits(),
                p.pareto,
                p.service_pareto,
            )
        })
        .collect();
    rows.sort();
    for r in &rows {
        dig.str(r);
    }

    let lookups = (oracle.memo_hits + oracle.memo_misses) as f64;
    let proj = (oracle.proj_hits + oracle.proj_misses) as f64;
    let backends = (portfolio.backend_compiles + portfolio.backend_reuses) as f64;
    Some(IterOut {
        call: t_compile + t_prepare + t_portfolio,
        items: portfolio.evaluated,
        digest: dig.0,
        counts: vec![
            ("polyhedra.simplex_calls", oracle.simplex_calls as f64),
            ("polyhedra.fm_fallbacks", oracle.fm_fallbacks as f64),
            (
                "polyhedra.memo_hit_ratio",
                ratio(oracle.memo_hits as f64, lookups),
            ),
            (
                "polyhedra.proj_hit_ratio",
                ratio(oracle.proj_hits as f64, proj),
            ),
            ("dse.points_evaluated", portfolio.evaluated as f64),
            (
                "dse.feasible_ratio",
                ratio(portfolio.feasible as f64, portfolio.evaluated as f64),
            ),
            (
                "dse.backend_reuse_ratio",
                ratio(portfolio.backend_reuses as f64, backends),
            ),
        ],
        times: vec![
            ("compile", t_compile.cpu_s),
            ("explore", t_prepare.cpu_s + t_portfolio.cpu_s),
        ],
        sim: Vec::new(),
    })
}

/// `true` when every tensor of `got` equals `want` bit for bit.
pub fn same_bits(got: &HashMap<String, Vec<f64>>, want: &HashMap<String, Vec<f64>>) -> bool {
    got.len() == want.len()
        && got.iter().all(|(k, v)| {
            want.get(k).is_some_and(|w| {
                w.len() == v.len() && w.iter().zip(v).all(|(a, b)| a.to_bits() == b.to_bits())
            })
        })
}

fn tensor_data(t: HashMap<String, Tensor>) -> HashMap<String, Vec<f64>> {
    t.into_iter().map(|(k, v)| (k, v.data)).collect()
}

/// Serve a closed backlog with execution on the zcu106, then check
/// every output against the standalone chain and the reference
/// interpreter.
fn serve_execute(setup: &Setup, seed: u64, tr: &mut Tracer, ops: &mut Ops) -> Option<IterOut> {
    let opts = RuntimeOptions {
        requests: EXEC_REQUESTS,
        execute: true,
        seed,
        ..Default::default()
    };
    let (served, t_serve) = tr.span("cfd-core.serve", |_| setup.program.serve(&opts));
    let served = ops.ok(served, "serve with execution")?;
    ops.check(
        served.report.completed == EXEC_REQUESTS && served.outputs.len() == EXEC_REQUESTS,
        || {
            format!(
                "{} of {EXEC_REQUESTS} requests completed",
                served.report.completed
            )
        },
    );

    // Untimed verification on the same inputs the serve call drew.
    let names = &setup.program.names;
    let modules = setup.modules();
    let kernels = setup.kernels();
    let (requests, _) = tr.span("runtime.generate_requests", |_| {
        runtime::generate_requests(&modules, EXEC_REQUESTS, &Arrival::Closed, seed)
    });
    let requests = ops.ok(requests, "generate requests")?;
    let mut dig = Digest::new();
    dig.str(&served.report.to_json());
    for (i, req) in requests.iter().enumerate() {
        let Some(out) = served.outputs.get(i) else {
            break;
        };
        let (chain, _) = tr.span("cgen.run_program_chain", |_| {
            zynq::run_program_chain(names, &modules, &kernels, &req.inputs)
        });
        let (reference, _) = tr.span("teil.run_program_reference", |_| {
            zynq::run_program_reference(names, &modules, &req.inputs)
        });
        if let Some(chain) = ops.ok(chain, "standalone kernel chain") {
            ops.check(same_bits(&chain, out), || {
                format!("request {i}: standalone chain differs from the served output")
            });
        }
        if let Some(reference) = ops.ok(reference, "reference interpreter") {
            ops.check(same_bits(&tensor_data(reference), out), || {
                format!("request {i}: served output is not bit-exact against the reference")
            });
        }
        let mut keys: Vec<&String> = out.keys().collect();
        keys.sort();
        for k in keys {
            dig.str(k);
            for v in &out[k] {
                dig.f64(*v);
            }
        }
    }
    Some(IterOut {
        call: t_serve,
        items: served.report.completed,
        digest: dig.0,
        counts: Vec::new(),
        times: Vec::new(),
        sim: Vec::new(),
    })
}

/// Fleet-level p99 over completed requests, in simulated seconds.
fn p99_completed_s(report: &FleetReport) -> f64 {
    let lat: Vec<f64> = report
        .boards
        .iter()
        .filter_map(|b| b.report.as_ref())
        .flat_map(|r| r.traces.iter())
        .filter(|t| t.outcome == RequestOutcome::Completed)
        .map(|t| t.latency_s)
        .collect();
    quantile(&lat, 0.99)
}

/// Completed + timed-out + shed + failed must account for every request.
fn conserved(report: &FleetReport, offered: usize) -> bool {
    report.requests == offered
        && report.completed + report.timed_out + report.shed + report.failed == offered
}

/// Board 0's share of a fleet run: its arrival ticks in admission
/// order, with the tier of each.
fn board0_arrivals(report: &FleetReport, requests: &[runtime::Request]) -> (Vec<u64>, Vec<u8>) {
    let mut mine: Vec<&runtime::Request> = report
        .assignment
        .iter()
        .filter(|(_, b)| *b == 0)
        .map(|(id, _)| &requests[*id])
        .collect();
    mine.sort_by(|a, b| a.arrival_s.total_cmp(&b.arrival_s).then(a.id.cmp(&b.id)));
    (
        mine.iter().map(|r| zynq::des::secs(r.arrival_s)).collect(),
        mine.iter().map(|r| r.tier).collect(),
    )
}

/// One seeded Poisson stream served by the 2-board fleet through two
/// segments, each report rendered to JSON as `cfdc serve --json` does;
/// then board 0's DES rerun on its own as a layer probe.
fn serve_stream(
    inp: &Inputs,
    setup: &Setup,
    seed: u64,
    tr: &mut Tracer,
    ops: &mut Ops,
) -> Option<IterOut> {
    let n = STREAM_REQUESTS;
    let names = &setup.program.names;
    let modules = setup.modules();
    let kernels = setup.kernels();
    let segment = |rate: f64, online: OnlinePolicy| FleetOptions {
        route: RoutePolicy::Predictive,
        parallel: true,
        base: RuntimeOptions {
            requests: n,
            arrival: Arrival::Poisson { rate_rps: rate },
            seed,
            online,
            ..Default::default()
        },
    };
    let mut dig = Digest::new();

    // Faulty: the offline scheduler at 0.8x capacity, faults on board 0.
    let fopts = segment(0.8 * setup.capacity_rps, OnlinePolicy::default());
    let (freqs, g1) = tr.span("runtime.generate_timing_requests", |_| {
        runtime::generate_timing_requests(n, &fopts.base.arrival, seed)
    });
    let freqs = ops.ok(freqs, "generate faulty-segment arrivals")?;
    let (faulty, s1) = tr.span("runtime.serve_fleet.faulty", |_| {
        runtime::serve_fleet(
            &setup.faulty_boards,
            names,
            &modules,
            &kernels,
            &freqs,
            &fopts,
        )
    });
    let faulty = ops.ok(faulty, "faulty segment")?.report;
    let (fjson, j1) = tr.span("runtime.to_json", |_| faulty.to_json());
    ops.check(conserved(&faulty, n), || {
        "faulty segment loses requests".into()
    });

    // Online: the event loop at 2x capacity with an SLO, priority tiers
    // (cycled by id, as single-board serving assigns them) and a
    // bounded shed queue.
    let oopts = segment(
        2.0 * setup.capacity_rps,
        OnlinePolicy {
            event_loop: true,
            slo_s: Some(setup.slo_s),
            shed_queue: Some(SHED_QUEUE),
            priority_tiers: PRIORITY_TIERS,
        },
    );
    let (oreqs, g2) = tr.span("runtime.generate_timing_requests", |_| {
        runtime::generate_timing_requests(n, &oopts.base.arrival, seed)
    });
    let mut oreqs = ops.ok(oreqs, "generate online-segment arrivals")?;
    for r in &mut oreqs {
        r.tier = (r.id % PRIORITY_TIERS as usize) as u8;
    }
    let (online, s2) = tr.span("runtime.serve_fleet.online", |_| {
        runtime::serve_fleet(&setup.boards, names, &modules, &kernels, &oreqs, &oopts)
    });
    let online = ops.ok(online, "online segment")?.report;
    let (ojson, j2) = tr.span("runtime.to_json", |_| online.to_json());
    ops.check(conserved(&online, n), || {
        "online segment loses requests".into()
    });
    dig.str(&fjson).str(&ojson);

    // Layer probe: board 0's DES on board 0's arrivals, which must
    // reproduce the board's own report.
    let design = &setup.boards[0].design;
    let base = &fopts.base;
    let capacity = base.batch.capacity(design.config.m);
    let spec = RecoveryPolicy::default().to_spec();
    let (arr, _) = board0_arrivals(&faulty, &freqs);
    let (fso, z1) = tr.span("zynq.simulate_faulty_stream", |_| {
        zynq::simulate_faulty_stream(design, &base.sim, &arr, capacity, true, &inp.faults, &spec)
    });
    let retried = fso.attempts.iter().filter(|&&a| a > 1).count();
    let board_f = faulty.boards[0].report.as_ref();
    ops.check(
        board_f.is_some_and(|r| r.rounds == fso.stream.rounds() && r.retried == retried),
        || "faulty DES probe does not reproduce board 0's report".into(),
    );
    let (arr, mut tiers) = board0_arrivals(&online, &oreqs);
    // The runtime passes tiers to the DES only when some are non-zero.
    if tiers.iter().all(|&t| t == 0) {
        tiers.clear();
    }
    let ospec = zynq::OnlineSpec {
        slo_ticks: Some(zynq::des::secs(setup.slo_s)),
        max_queue: Some(SHED_QUEUE),
        tiers,
    };
    let (oo, z2) = tr.span("zynq.simulate_online_stream", |_| {
        zynq::simulate_online_stream(
            design,
            &base.sim,
            &arr,
            capacity,
            true,
            &FaultPlan::none(),
            &spec,
            &ospec,
        )
    });
    let status_count =
        |want: zynq::StreamStatus| oo.fault.statuses.iter().filter(|&&s| s == want).count();
    let shed = status_count(zynq::StreamStatus::Shed);
    let timed_out = status_count(zynq::StreamStatus::TimedOut);
    let board_o = online.boards[0].report.as_ref();
    ops.check(
        board_o.is_some_and(|r| {
            r.rounds == oo.fault.stream.rounds()
                && r.early_closed_rounds == oo.early_closed_rounds
                && r.shed == shed
                && r.timed_out == timed_out
        }),
        || "online DES probe does not reproduce board 0's report".into(),
    );

    let rounds = (fso.stream.rounds() + oo.fault.stream.rounds()) as f64;
    let ff = (fso.stream.fast_forwarded_rounds + oo.fault.stream.fast_forwarded_rounds) as f64;
    let faulty_cost = g1 + s1 + j1;
    let online_cost = g2 + s2 + j2;
    Some(IterOut {
        call: faulty_cost + online_cost,
        items: 2 * n,
        digest: dig.0,
        counts: vec![
            ("zynq.rounds", rounds),
            ("zynq.fast_forward_ratio", ratio(ff, rounds)),
            ("zynq.early_closed_rounds", oo.early_closed_rounds as f64),
            ("zynq.retried", retried as f64),
            ("zynq.timed_out", timed_out as f64),
            ("zynq.shed", shed as f64),
            (
                "runtime.report_json_bytes",
                (fjson.len() + ojson.len()) as f64,
            ),
        ],
        times: vec![
            ("faulty_per_request", faulty_cost.cpu_s / n as f64),
            ("online_per_request", online_cost.cpu_s / n as f64),
            (
                "zynq.faulty_per_request",
                z1.cpu_s / fso.statuses.len().max(1) as f64,
            ),
            (
                "zynq.online_per_request",
                z2.cpu_s / oo.fault.statuses.len().max(1) as f64,
            ),
        ],
        sim: vec![
            ("sim_goodput_rps", online.goodput_rps.unwrap_or(0.0)),
            ("sim_p99_completed_s", p99_completed_s(&online)),
        ],
    })
}
