//! Parallel design-space exploration over the staged pipeline.
//!
//! The paper's evaluation is fundamentally a sweep over the replication
//! and memory parameters (k, m, PLM sharing, decoupling, array
//! partitioning). With the monolithic flow each of those design points
//! re-ran the frontend and middle end from source; here a [`DseEngine`]
//! compiles every kernel of the source through [`Pipeline::schedule`]
//! (plus the cross-kernel link) exactly once and fans the per-point
//! backend/system stages out across a scoped worker pool. A
//! single-kernel source is the one-kernel program: one engine and one
//! sweep loop serve both.
//!
//! On top of the single-board sweep, [`DseEngine::run_portfolio`]
//! crosses the grid with a **platform catalog and each platform's
//! fabric-clock ladder**: backends are memoized per (clock, backend
//! options), every combination is costed under its platform's Eq. (3)
//! budget, and the [`PortfolioReport`] marks each platform's Pareto
//! frontier over (simulated time, resource fit) — the
//! heterogeneous-portfolio view: pick the node that fits the job.
//!
//! ```
//! use cfd_core::dse::{DseEngine, DseGrid};
//! use cfd_core::FlowOptions;
//!
//! let src = cfdlang::examples::inverse_helmholtz(4);
//! let engine = DseEngine::prepare(&src, &FlowOptions::default()).unwrap();
//! let grid = DseGrid {
//!     k: vec![1, 2],
//!     batch: vec![1],
//!     sharing: vec![true],
//!     decoupled: vec![true, false],
//!     partition: vec![1],
//! };
//! let report = engine.run(&grid, 2, 1_000);
//! assert_eq!(report.outcomes.len(), 4);
//! // The shared stages ran once, regardless of grid size or jobs.
//! assert_eq!(engine.pipeline().counters().frontend, 1);
//! assert_eq!(engine.pipeline().counters().middle_end, 1);
//! ```

use std::cmp::Reverse;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use pschedule::CrossLiveness;
use sysgen::{MultiSystemDesign, Platform, ProgramSystemConfig, SystemConfig};
use teil::TensorKind;
use zynq::{ProgramRound, SimConfig};

use runtime::json;

use crate::cache::CacheCounters;
use crate::pipeline::{
    write_cache, write_oracle, Backend, Pipeline, Scheduled, StageCounts, StageTimings,
};
use crate::program::{ProgramBuild, ProgramOptions};
use crate::{Artifacts, FlowError, FlowOptions};

/// One point of the exploration grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DsePoint {
    /// Accelerator replicas.
    pub k: usize,
    /// PLM systems (`m = 2^j · k`).
    pub m: usize,
    /// Mnemosyne PLM sharing.
    pub sharing: bool,
    /// Temporaries exported to PLMs (decoupled) vs kept inside.
    pub decoupled: bool,
    /// Cyclic partition factor applied to the kernel's largest input
    /// array (1 = no partitioning).
    pub partition: u32,
}

impl DsePoint {
    pub fn label(&self) -> String {
        format!(
            "k={} m={} sharing={} decoupled={} partition={}",
            self.k, self.m, self.sharing, self.decoupled, self.partition
        )
    }

    /// A key that orders points exactly like their [`DsePoint::label`]
    /// strings, built without allocating. Past the common `k=` prefix,
    /// the labels compare number by number: a number's digits first,
    /// then the separator space (or the label's end), which sorts
    /// below every digit, so `k=10` comes before `k=2` and `k=1`
    /// before `k=10`. The booleans compare like their words
    /// (`false < true`, as `"false" < "true"`).
    fn label_key(&self) -> LabelKey {
        LabelKey {
            k: decimal_key(self.k as u64),
            m: decimal_key(self.m as u64),
            sharing: self.sharing,
            decoupled: self.decoupled,
            partition: decimal_key(u64::from(self.partition)),
        }
    }

    /// The backend-relevant subset of the point: grid axes that only
    /// differ in system-stage knobs (`k`, `m`) share one compiled
    /// backend (kernel, HLS estimate, memory subsystem).
    fn backend_key(&self) -> BackendKey {
        BackendKey {
            sharing: self.sharing,
            decoupled: self.decoupled,
            partition: self.partition,
        }
    }
}

/// [`DsePoint::label`] order as a plain value (see
/// [`DsePoint::label_key`]); fields compare in label order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct LabelKey {
    k: u128,
    m: u128,
    sharing: bool,
    decoupled: bool,
    partition: u128,
}

/// The decimal digits of `v` as nibbles `digit + 1`, most significant
/// digit in the top nibble, zero below the last digit. Two keys compare
/// like the decimal strings: at the first differing digit, or, when one
/// number's digits are a prefix of the other's, the shorter first (its
/// zero nibble sorts below every `digit + 1`). A `u64` has at most 20
/// digits, 80 of the 128 bits.
fn decimal_key(mut v: u64) -> u128 {
    let digits = v.checked_ilog10().map_or(1, |l| l + 1);
    let mut key = 0;
    for i in (0..digits).rev() {
        key |= u128::from(v % 10 + 1) << (124 - 4 * i);
        v /= 10;
    }
    key
}

/// `f64::total_cmp` order as an integer key (the same bit transform).
fn total_key(x: f64) -> i64 {
    let bits = x.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// Key identifying a unique backend compilation within a sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BackendKey {
    sharing: bool,
    decoupled: bool,
    partition: u32,
}

/// The cartesian exploration grid. `m` is derived as `k · batch`, so
/// with `k ≥ 1` and power-of-two batch factors every generated point
/// satisfies the paper's batching constraint. Any other point (`k = 0`,
/// a batch factor of 0 or 3) is still swept, and comes back as an
/// infeasible row.
#[derive(Debug, Clone)]
pub struct DseGrid {
    pub k: Vec<usize>,
    /// Batch factors (executions per accelerator per round); powers of
    /// two.
    pub batch: Vec<usize>,
    pub sharing: Vec<bool>,
    pub decoupled: Vec<bool>,
    pub partition: Vec<u32>,
}

impl Default for DseGrid {
    /// The paper-shaped default sweep: replication × batching × sharing
    /// × decoupling (32 points).
    fn default() -> Self {
        DseGrid {
            k: vec![1, 2, 4, 8],
            batch: vec![1, 2],
            sharing: vec![true, false],
            decoupled: vec![true, false],
            partition: vec![1],
        }
    }
}

impl DseGrid {
    /// Materialize the grid points (row-major over the option axes).
    pub fn points(&self) -> Vec<DsePoint> {
        let mut out = Vec::new();
        for &k in &self.k {
            for &batch in &self.batch {
                for &sharing in &self.sharing {
                    for &decoupled in &self.decoupled {
                        for &partition in &self.partition {
                            out.push(DsePoint {
                                k,
                                m: k * batch,
                                sharing,
                                decoupled,
                                partition: partition.max(1),
                            });
                        }
                    }
                }
            }
        }
        out
    }
}

/// Evaluation result for one design point.
#[derive(Debug, Clone)]
pub struct DseOutcome {
    pub point: DsePoint,
    /// Kernel (or joined program-kernel) name the point was evaluated
    /// on — sweep rows are labelled by name, not bare grid index.
    pub kernel: String,
    /// Whether the configuration fits the board (Eq. 3).
    pub feasible: bool,
    /// System totals including integration logic (0 when infeasible).
    pub luts: usize,
    pub ffs: usize,
    pub dsps: usize,
    pub brams: usize,
    /// Memory-subsystem BRAMs per PLM system.
    pub plm_brams: usize,
    /// Per-kernel latency estimate.
    pub latency_cycles: u64,
    /// Simulated end-to-end time for the report's element count.
    pub total_s: f64,
    /// Elements per second (0 when infeasible).
    pub throughput_eps: f64,
    /// Batched-serving throughput of the design (requests/sec for a
    /// closed backlog of [`SERVICE_PROBE_REQUESTS`] requests, batch
    /// fill `m`, double-buffered DMA; 0 when infeasible) — the
    /// **throughput objective** of the service-level Pareto view.
    /// Scored by [`runtime::closed_backlog_probe`], once per distinct
    /// round signature of a sweep: designs with the same round tick
    /// costs, `m` and DMA schedule share one probe run through a memo
    /// that lives as long as the sweep.
    pub service_rps: f64,
    /// p99 request latency of the same probe (0 when infeasible).
    pub service_p99_s: f64,
    /// Wall-clock seconds spent evaluating this point.
    pub eval_s: f64,
}

/// Closed-backlog size of the serving probe every feasible design is
/// scored with ([`runtime::closed_backlog_probe`], memoized per sweep
/// on the design's round signature).
pub const SERVICE_PROBE_REQUESTS: usize = 64;

/// Everything the serving probe's round loop reads from a design: the
/// round's tick costs, the fill capacity `m`, and whether the
/// double-buffered schedule runs (every `m ≥ 2·k_i`).
type ProbeKey = (ProgramRound, usize, bool);

/// The serving probe's results by [`ProbeKey`], for one sweep: created
/// by [`DseEngine::sweep`], shared by its workers and dropped when it
/// returns, so every sweep scores its own designs. The probe is a pure
/// function of the key, so which worker fills an entry first does not
/// matter.
#[derive(Default)]
struct ProbeMemo(Mutex<HashMap<ProbeKey, (f64, f64)>>);

/// Score a design's serving behavior: requests/sec and p99 latency of a
/// closed backlog of [`SERVICE_PROBE_REQUESTS`] requests under the
/// `Auto` batch policy (fill `m`) with double-buffered DMA, through
/// [`runtime::closed_backlog_probe`] — by construction the figures a
/// timing-only `cfdc serve` of that backlog reports. Designs that share
/// a round signature share one probe run through `memo`.
fn service_probe(design: &MultiSystemDesign, memo: &ProbeMemo) -> (f64, f64) {
    let cfg = &design.config;
    let key = (
        zynq::program_round(design, &SimConfig::default()),
        cfg.m,
        cfg.ks.iter().all(|&k| cfg.m >= 2 * k),
    );
    // A poisoned lock still holds complete entries: nothing panics
    // while holding it.
    let lock = || memo.0.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(&scored) = lock().get(&key) {
        return scored;
    }
    let scored = runtime::closed_backlog_probe(design, SERVICE_PROBE_REQUESTS);
    lock().insert(key, scored);
    scored
}

/// Ranked sweep results plus the evidence that the shared stages ran
/// only once.
#[derive(Debug, Clone)]
pub struct DseReport {
    /// Outcomes ranked best-first: feasible before infeasible, then by
    /// throughput, then by BRAM and LUT cost.
    pub outcomes: Vec<DseOutcome>,
    pub evaluated: usize,
    pub feasible: usize,
    pub jobs: usize,
    /// Element count every point was simulated with.
    pub elements: usize,
    /// Wall-clock seconds for the whole sweep (excluding `prepare`).
    pub wall_s: f64,
    /// Cost of the shared frontend/middle-end/schedule stages.
    pub shared: StageTimings,
    /// Stage-invocation counters after the sweep.
    pub counts: StageCounts,
    /// Compile-cache counters (zero: the engine compiles uncached).
    pub cache: CacheCounters,
    /// Polyhedra-oracle counters accumulated over the sweep (delta of
    /// the process totals across `run`).
    pub oracle: polyhedra::OracleCounters,
    /// Unique backend configurations compiled during the sweep.
    pub backend_compiles: usize,
    /// Points that reused a memoized backend instead of recompiling.
    pub backend_reuses: usize,
    /// Wall-clock seconds spent compiling the unique backends.
    pub backend_s: f64,
    /// Sum of per-point evaluation times (system stage + simulation)
    /// across all workers — CPU time, not wall-clock.
    pub eval_total_s: f64,
    /// Mean per-point evaluation time.
    pub eval_mean_s: f64,
    /// Slowest single point.
    pub eval_max_s: f64,
}

impl DseReport {
    /// The best-ranked feasible outcome, if any.
    pub fn best(&self) -> Option<&DseOutcome> {
        self.outcomes.first().filter(|o| o.feasible)
    }

    /// Render as an aligned text table.
    pub fn render_table(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "{} configurations ({} feasible), {} jobs, sweep {:.3} s, shared stages {:.3} s, \
             {} backends compiled ({} reused), point eval {:.3} s total / {:.4} s mean\n",
            self.evaluated,
            self.feasible,
            self.jobs,
            self.wall_s,
            self.shared.total_s(),
            self.backend_compiles,
            self.backend_reuses,
            self.eval_total_s,
            self.eval_mean_s,
        ));
        let name_w = self
            .outcomes
            .iter()
            .map(|o| o.kernel.len())
            .max()
            .unwrap_or(6)
            .max(6);
        s.push_str(&format!(
            "  {:<name_w$}   k    m  share  decouple  part      LUT      FF   DSP   BRAM    el/s   req/s  feasible\n",
            "kernel"
        ));
        for o in &self.outcomes {
            let p = &o.point;
            s.push_str(&format!(
                "  {:<name_w$}  {:>2}  {:>3}  {:>5}  {:>8}  {:>4}  {:>7}  {:>6}  {:>4}  {:>5}  {:>6.0}  {:>6.0}  {}\n",
                o.kernel,
                p.k,
                p.m,
                p.sharing,
                p.decoupled,
                p.partition,
                o.luts,
                o.ffs,
                o.dsps,
                o.brams,
                o.throughput_eps,
                o.service_rps,
                if o.feasible { "yes" } else { "no" },
            ));
        }
        s
    }

    /// Serialize the report as JSON through [`runtime::json::document`].
    pub fn to_json(&self) -> String {
        json::document(|w| {
            w.field("evaluated", self.evaluated)
                .field("feasible", self.feasible)
                .field("jobs", self.jobs)
                .field("elements", self.elements)
                .fixed("wall_s", self.wall_s, 6);
            w.object("shared_stages", |w| {
                w.fixed("frontend_s", self.shared.frontend_s, 6)
                    .fixed("middle_end_s", self.shared.middle_end_s, 6)
                    .fixed("schedule_s", self.shared.schedule_s, 6);
            });
            w.object("stage_invocations", |w| {
                w.field("frontend", self.counts.frontend)
                    .field("middle_end", self.counts.middle_end)
                    .field("schedule", self.counts.schedule)
                    .field("backend", self.counts.backend)
                    .field("system", self.counts.system);
            });
            w.object("backend_cache", |w| {
                w.field("compiles", self.backend_compiles)
                    .field("reuses", self.backend_reuses)
                    .fixed("compile_s", self.backend_s, 6);
            });
            w.object("compile_cache", |w| write_cache(w, &self.cache));
            w.object("polyhedra", |w| write_oracle(w, &self.oracle));
            w.object("eval_timing", |w| {
                w.fixed("total_s", self.eval_total_s, 6)
                    .fixed("mean_s", self.eval_mean_s, 6)
                    .fixed("max_s", self.eval_max_s, 6);
            });
            w.array_lines("outcomes", |w| {
                for o in &self.outcomes {
                    w.row(|w| {
                        write_outcome(w, o);
                        w.fixed("eval_s", o.eval_s, 6);
                    });
                }
            });
        })
    }
}

/// Write the members every sweep row shares, kernel label through
/// `service_p99_s`, into the object `w` has open.
fn write_outcome(w: &mut json::Writer, o: &DseOutcome) {
    let p = &o.point;
    w.string("kernel", &o.kernel)
        .field("k", p.k)
        .field("m", p.m)
        .field("sharing", p.sharing)
        .field("decoupled", p.decoupled)
        .field("partition", p.partition)
        .field("feasible", o.feasible)
        .field("luts", o.luts)
        .field("ffs", o.ffs)
        .field("dsps", o.dsps)
        .field("brams", o.brams)
        .field("plm_brams", o.plm_brams)
        .field("latency_cycles", o.latency_cycles)
        .fixed("total_s", o.total_s, 6)
        .fixed("throughput_eps", o.throughput_eps, 3)
        .fixed("service_rps", o.service_rps, 3)
        .fixed("service_p99_s", o.service_p99_s, 6);
}

/// The exploration engine over a program of one or more kernels (a
/// plain source is the one-kernel program). Every kernel's frontend,
/// middle end and schedule, plus the cross-kernel link, run exactly once
/// at [`DseEngine::prepare_program`]. A grid point then fixes the backend
/// axes (sharing, decoupling, partitioning) for every kernel plus a
/// uniform replication `k`/`m`, and the whole chain is costed under the
/// platform's board budget through the same program build
/// [`ProgramFlow`](crate::ProgramFlow) uses, so sweep rankings always
/// match what a real compile would build.
#[derive(Debug)]
pub struct DseEngine {
    pipeline: Pipeline,
    base: ProgramOptions,
    names: Vec<String>,
    /// Label of every sweep row: the kernel names joined by `+`.
    label: String,
    scheds: Vec<Scheduled>,
    cross: Arc<CrossLiveness>,
    /// Largest input array per kernel: the target of the grid's
    /// `partition` axis.
    partition_targets: Vec<Option<String>>,
    shared: StageTimings,
}

impl DseEngine {
    /// [`DseEngine::prepare_program`] with default program options:
    /// `base` supplies everything the grid does not vary (scheduler and
    /// canonicalization options, board, HLS clock, element count).
    pub fn prepare(source: &str, base: &FlowOptions) -> Result<DseEngine, FlowError> {
        DseEngine::prepare_program(
            source,
            &ProgramOptions {
                flow: base.clone(),
                ..ProgramOptions::default()
            },
        )
    }

    /// Compile every kernel's shared stages plus the link stage once.
    pub fn prepare_program(source: &str, base: &ProgramOptions) -> Result<DseEngine, FlowError> {
        let pipeline = Pipeline::new();
        let fronts = pipeline.program_frontend(source)?;
        let names: Vec<String> = fronts.iter().map(|(n, _)| n.clone()).collect();
        let kopts = FlowOptions {
            system: None,
            ..base.flow.clone()
        };
        let mut scheds = Vec::with_capacity(fronts.len());
        for (_, fe) in &fronts {
            let me = pipeline.middle_end(fe, &kopts)?;
            scheds.push(pipeline.schedule(&me, &kopts));
        }
        let link = pipeline.link(&names, &scheds)?;
        let partition_targets = scheds
            .iter()
            .map(|sc| {
                let module = &sc.middle.module;
                module
                    .of_kind(TensorKind::Input)
                    .into_iter()
                    .max_by_key(|&id| module.shape(id).iter().product::<usize>())
                    .map(|id| module.name(id).to_string())
            })
            .collect();
        let shared = StageTimings {
            frontend_s: fronts.iter().map(|(_, f)| f.elapsed_s).sum(),
            middle_end_s: scheds.iter().map(|s| s.middle.elapsed_s).sum(),
            schedule_s: scheds.iter().map(|s| s.elapsed_s).sum(),
            link_s: link.elapsed_s,
            ..Default::default()
        };
        Ok(DseEngine {
            pipeline,
            base: base.clone(),
            label: names.join("+"),
            names,
            scheds,
            cross: link.cross,
            partition_targets,
            shared,
        })
    }

    /// The label sweep rows carry: the kernel name, or the program's
    /// kernel names joined by `+`.
    pub fn kernel_name(&self) -> &str {
        &self.label
    }

    pub fn pipeline(&self) -> &Pipeline {
        &self.pipeline
    }

    /// The first kernel's scheduling-stage output (the only one of a
    /// one-kernel program).
    pub fn scheduled(&self) -> &Scheduled {
        &self.scheds[0]
    }

    /// Kernel `kernel`'s backend options for one point.
    fn kernel_options(&self, point: &DsePoint, kernel: usize) -> FlowOptions {
        let mut opts = self.base.flow.clone();
        opts.system = None;
        opts.decoupled = point.decoupled;
        opts.memory.sharing = point.sharing;
        // A factor > 1 overrides the partition set; factor 1 means "as the
        // base options say", so any base partitioning is left untouched.
        if point.partition > 1 {
            if let Some(name) = &self.partition_targets[kernel] {
                opts.hls.partition = vec![(name.clone(), point.partition)];
            }
        }
        opts
    }

    /// The flow options for one design point: the engine's base options
    /// with the point's backend/system axes applied (the partition axis
    /// targets the first kernel).
    pub fn options_for(&self, point: &DsePoint) -> FlowOptions {
        FlowOptions {
            system: Some(SystemConfig {
                k: point.k,
                m: point.m,
            }),
            ..self.kernel_options(point, 0)
        }
    }

    /// Compile every kernel's backend for `point` at `clock_mhz` and
    /// merge them into the program build all of the point's (platform,
    /// `k`, `m`) variants are costed from.
    fn build(&self, point: &DsePoint, clock_mhz: f64) -> ProgramBuild {
        let backends: Vec<Backend> = self
            .scheds
            .iter()
            .enumerate()
            .map(|(i, sc)| {
                let mut opts = self.kernel_options(point, i);
                opts.hls.clock_mhz = clock_mhz;
                self.pipeline.backend(sc, &opts)
            })
            .collect();
        let mut memory = self.base.flow.memory.clone();
        memory.sharing = point.sharing;
        let brefs: Vec<&Backend> = backends.iter().collect();
        ProgramBuild::prepare(
            &self.names,
            &self.cross,
            &brefs,
            &memory,
            self.base.cross_sharing && point.sharing,
        )
    }

    /// System stage, chained simulation and serving probe for one point
    /// against its program build. A point whose configuration breaks the
    /// `m = 2^j · k` relation (`k = 0`, a batch factor that is not a
    /// power of two) is infeasible, like a design that does not fit.
    fn cost(
        &self,
        build: &ProgramBuild,
        platform: &Platform,
        point: &DsePoint,
        elements: usize,
        memo: &ProbeMemo,
        started: Instant,
    ) -> DseOutcome {
        self.pipeline.count_system();
        let cfg = ProgramSystemConfig::uniform(point.k, point.m, self.names.len());
        let mut outcome = DseOutcome {
            point: *point,
            kernel: self.label.clone(),
            feasible: false,
            luts: 0,
            ffs: 0,
            dsps: 0,
            brams: 0,
            plm_brams: build.memory.brams,
            latency_cycles: build.stages.iter().map(|(_, r)| r.latency_cycles).sum(),
            total_s: 0.0,
            throughput_eps: 0.0,
            service_rps: 0.0,
            service_p99_s: 0.0,
            eval_s: 0.0,
        };
        let design = cfg.valid().then(|| build.design_for(platform, cfg));
        if let Some(design) = design.flatten() {
            let sim = zynq::simulate_program(
                &design,
                &SimConfig {
                    elements,
                    ..Default::default()
                },
            );
            (outcome.service_rps, outcome.service_p99_s) = service_probe(&design, memo);
            outcome.feasible = true;
            outcome.luts = design.luts;
            outcome.ffs = design.ffs;
            outcome.dsps = design.dsps;
            outcome.brams = design.brams;
            outcome.total_s = sim.total_s;
            if sim.total_s > 0.0 {
                outcome.throughput_eps = elements as f64 / sim.total_s;
            }
        }
        outcome.eval_s = started.elapsed().as_secs_f64();
        outcome
    }

    /// Evaluate one point on the base platform, compiling its backends
    /// inline ([`DseEngine::run`] memoizes them across the grid).
    pub fn evaluate(&self, point: &DsePoint, elements: usize) -> DseOutcome {
        let t = Instant::now();
        let build = self.build(point, self.base.flow.hls.clock_mhz);
        let memo = ProbeMemo::default();
        self.cost(&build, &self.base.flow.platform, point, elements, &memo, t)
    }

    /// The sweep behind [`DseEngine::run`] and
    /// [`DseEngine::run_portfolio`]: every (platform, clock) target ×
    /// every grid point, outcomes in that order. The kernels' backends
    /// and their program build are compiled once per **(clock, backend
    /// key)** slot and shared by every platform and `k`/`m` that uses
    /// it; both phases fan out over `jobs` workers (0 = one per core).
    /// The serving probe is memoized for the sweep's duration only
    /// ([`ProbeMemo`]).
    fn sweep(
        &self,
        targets: &[(&Platform, f64)],
        points: &[DsePoint],
        jobs: usize,
        elements: usize,
    ) -> Sweep {
        let n = targets.len() * points.len();
        let jobs = crate::resolve_jobs(jobs).min(n.max(1));
        // Unique (clock, backend key) slots in first-seen order, with a
        // representative point each.
        let mut slots: Vec<(u64, BackendKey, DsePoint)> = Vec::new();
        let mut slot_of = Vec::with_capacity(n);
        for &(_, clock) in targets {
            for p in points {
                let key = (clock.to_bits(), p.backend_key());
                let s = match slots.iter().position(|&(c, k, _)| (c, k) == key) {
                    Some(s) => s,
                    None => {
                        slots.push((key.0, key.1, *p));
                        slots.len() - 1
                    }
                };
                slot_of.push(s);
            }
        }
        let t = Instant::now();
        let builds = par_map(jobs, slots.len(), |s| {
            let (clock, _, rep) = slots[s];
            self.build(&rep, f64::from_bits(clock))
        });
        let backend_s = t.elapsed().as_secs_f64();
        let memo = ProbeMemo::default();
        let outcomes = par_map(jobs, n, |i| {
            let started = Instant::now();
            let platform = targets[i / points.len()].0;
            let point = &points[i % points.len()];
            let build = &builds[slot_of[i]];
            self.cost(build, platform, point, elements, &memo, started)
        });
        let nk = self.names.len();
        Sweep {
            outcomes,
            jobs,
            backend_compiles: slots.len() * nk,
            backend_reuses: (n - slots.len()) * nk,
            backend_s,
        }
    }

    /// Sweep the grid on the base platform with `jobs` worker threads
    /// (0 = one per available core) and return the ranked report.
    ///
    /// Backends are **memoized on the backend-relevant point subset**
    /// (sharing, decoupling, partitioning): grid points that differ only
    /// in the system-stage knobs `k`/`m` share one compiled kernel, HLS
    /// estimate and memory subsystem per kernel — the default 32-point
    /// grid over a 3-kernel program compiles 12 backends.
    pub fn run(&self, grid: &DseGrid, jobs: usize, elements: usize) -> DseReport {
        let points = grid.points();
        let oracle_base = polyhedra::OracleCounters::snapshot();
        let t = Instant::now();
        let base = &self.base.flow;
        let sweep = self.sweep(
            &[(&base.platform, base.hls.clock_mhz)],
            &points,
            jobs,
            elements,
        );
        let mut outcomes = sweep.outcomes;
        outcomes.sort_by_cached_key(|o| {
            (
                Reverse(o.feasible),
                Reverse(total_key(o.throughput_eps)),
                o.brams,
                o.luts,
                o.point.label_key(),
            )
        });
        let feasible = outcomes.iter().filter(|o| o.feasible).count();
        let eval_total_s: f64 = outcomes.iter().map(|o| o.eval_s).sum();
        let eval_max_s = outcomes.iter().map(|o| o.eval_s).fold(0.0, f64::max);
        DseReport {
            evaluated: outcomes.len(),
            feasible,
            jobs: sweep.jobs,
            elements,
            wall_s: t.elapsed().as_secs_f64(),
            shared: self.shared,
            counts: self.pipeline.counters(),
            cache: self.pipeline.cache_counters(),
            oracle: polyhedra::OracleCounters::snapshot().since(oracle_base),
            backend_compiles: sweep.backend_compiles,
            backend_reuses: sweep.backend_reuses,
            backend_s: sweep.backend_s,
            eval_total_s,
            eval_mean_s: if outcomes.is_empty() {
                0.0
            } else {
                eval_total_s / outcomes.len() as f64
            },
            eval_max_s,
            outcomes,
        }
    }

    /// Build full [`Artifacts`] for one option combination on top of the
    /// shared stages — the cheap replacement for `Flow::compile` when
    /// only backend/system options differ from the engine's base (the
    /// canonicalization and scheduler axes are taken from the base, not
    /// from `opts`). One-kernel engines only.
    pub fn artifacts_for(&self, opts: &FlowOptions) -> Result<Artifacts, FlowError> {
        let [sc] = self.scheds.as_slice() else {
            return Err(FlowError::Backend(format!(
                "artifacts_for builds one kernel, but {} has {}: use ProgramFlow",
                self.label,
                self.scheds.len()
            )));
        };
        let be = self.pipeline.backend(sc, opts);
        let sys = self.pipeline.system(&be, opts)?;
        let fe = crate::pipeline::Frontend {
            typed: Arc::clone(&sc.middle.typed),
            elapsed_s: self.shared.frontend_s,
        };
        Ok(Artifacts::assemble(&fe, sc, be, sys, opts))
    }
}

/// What one [`DseEngine::sweep`] produced.
struct Sweep {
    /// One outcome per (target, point), target-major.
    outcomes: Vec<DseOutcome>,
    jobs: usize,
    backend_compiles: usize,
    backend_reuses: usize,
    /// Wall-clock seconds spent compiling the memoized slots.
    backend_s: f64,
}

/// `f(0), …, f(n - 1)` on up to `jobs` scoped workers pulling indices
/// from a shared counter, each into its own buffer (no lock on the hot
/// path). Results come back in index order, so the output is the same
/// for every worker count.
fn par_map<T: Send>(jobs: usize, n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let mut indexed: Vec<(usize, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs.min(n).max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break local;
                        }
                        local.push((i, f(i)));
                    }
                })
            })
            .collect();
        // `join` fails only when `f` already panicked in that worker;
        // this re-raises that panic on the caller's thread.
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("DSE worker panicked"))
            .collect()
    });
    indexed.sort_unstable_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, t)| t).collect()
}

// ---------------------------------------------------------------------
// Multi-board portfolio exploration
// ---------------------------------------------------------------------

/// One platform × clock × grid-point outcome of a portfolio sweep.
#[derive(Debug, Clone)]
pub struct PortfolioOutcome {
    /// Catalog id of the platform (`zcu106`, `pynq-z2`, ...).
    pub platform: String,
    /// Display name of the board.
    pub board: String,
    /// Fabric clock the kernel was synthesized at (from the platform's
    /// achievable ladder).
    pub clock_mhz: f64,
    pub outcome: DseOutcome,
    /// Largest resource-utilization fraction across LUT/FF/DSP/BRAM —
    /// the "fit" axis of the Pareto frontier (0 when infeasible).
    pub utilization: f64,
    /// Whether this point sits on its platform's Pareto frontier of
    /// (simulated time, utilization). The portfolio frontier is the
    /// union over platforms — pick the node that fits the job.
    pub pareto: bool,
    /// Whether this point sits on its platform's **service** Pareto
    /// frontier — maximize requests/sec against minimizing p99 latency
    /// and utilization (the throughput objective: pick the node that
    /// serves the most traffic per resource).
    pub service_pareto: bool,
}

/// Per-platform feasibility summary of a portfolio sweep.
#[derive(Debug, Clone)]
pub struct PlatformSummary {
    pub platform: String,
    pub board: String,
    /// Grid × clock combinations evaluated on this platform.
    pub evaluated: usize,
    pub feasible: usize,
    /// Points on the platform's time-vs-fit Pareto frontier.
    pub pareto_points: usize,
    /// Best simulated end-to-end time (`None` when nothing fits).
    pub best_total_s: Option<f64>,
}

/// Ranked results of a platform × clock × (k, m) portfolio sweep.
#[derive(Debug, Clone)]
pub struct PortfolioReport {
    /// Outcomes ranked feasible-first, then by simulated time.
    pub outcomes: Vec<PortfolioOutcome>,
    pub summaries: Vec<PlatformSummary>,
    pub evaluated: usize,
    pub feasible: usize,
    pub jobs: usize,
    pub elements: usize,
    pub wall_s: f64,
    /// Unique (clock, backend-option) combinations compiled.
    pub backend_compiles: usize,
    /// Evaluations that reused a memoized backend.
    pub backend_reuses: usize,
    /// Compile-cache counters (zero: the engine compiles uncached).
    pub cache: CacheCounters,
    /// Polyhedra-oracle counters accumulated over the sweep.
    pub oracle: polyhedra::OracleCounters,
}

/// Pareto flags over objective vectors, all minimized (callers negate
/// maximization axes), for the feasible subset: infeasible (`None`)
/// entries are never on the frontier, and of several points with
/// *identical* objectives only the first stays (ties would otherwise all
/// survive and clutter the frontier).
fn pareto_flags<const N: usize>(objectives: &[Option<[f64; N]>]) -> Vec<bool> {
    objectives
        .iter()
        .enumerate()
        .map(|(i, o)| {
            let Some(a) = o else {
                return false;
            };
            !objectives.iter().enumerate().any(|(j, o2)| match o2 {
                Some(b) => {
                    (b.iter().zip(a).all(|(y, x)| y <= x) && b.iter().zip(a).any(|(y, x)| y < x))
                        || (j < i && b == a)
                }
                None => false,
            })
        })
        .collect()
}

impl PortfolioReport {
    /// The portfolio Pareto frontier: every platform's non-dominated
    /// (time, fit) points, best time first.
    pub fn pareto_frontier(&self) -> Vec<&PortfolioOutcome> {
        self.outcomes.iter().filter(|o| o.pareto).collect()
    }

    /// The portfolio **service** frontier: every platform's
    /// non-dominated (requests/sec ↑, p99 latency ↓, utilization ↓)
    /// points — where to place traffic for throughput rather than
    /// single-job latency.
    pub fn service_frontier(&self) -> Vec<&PortfolioOutcome> {
        self.outcomes.iter().filter(|o| o.service_pareto).collect()
    }

    /// Platforms with at least one feasible point.
    pub fn feasible_platforms(&self) -> Vec<&PlatformSummary> {
        self.summaries.iter().filter(|s| s.feasible > 0).collect()
    }

    /// The portfolio **cost-efficiency** frontier: non-dominated points
    /// over (requests/sec ↑, requests/sec per 1000 design LUTs ↑) —
    /// which boards earn their silicon when a fleet dispatcher shards
    /// one stream across the catalog. Returned with each point's
    /// req/s-per-kLUT figure, best throughput first (the ranking order
    /// of `outcomes`).
    pub fn cost_frontier(&self) -> Vec<(&PortfolioOutcome, f64)> {
        let per_kluts =
            |o: &PortfolioOutcome| o.outcome.service_rps / (o.outcome.luts as f64 / 1000.0);
        let objectives: Vec<Option<[f64; 2]>> = self
            .outcomes
            .iter()
            .map(|o| {
                (o.outcome.feasible && o.outcome.luts > 0)
                    .then(|| [-o.outcome.service_rps, -per_kluts(o)])
            })
            .collect();
        self.outcomes
            .iter()
            .zip(pareto_flags(&objectives))
            .filter(|(_, flag)| *flag)
            .map(|(o, _)| (o, per_kluts(o)))
            .collect()
    }

    /// Render as an aligned text table (Pareto rows marked `*`).
    pub fn render_table(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "portfolio: {} platforms, {} combinations ({} feasible), {} jobs, {:.3} s, \
             {} backends compiled ({} reused)\n",
            self.summaries.len(),
            self.evaluated,
            self.feasible,
            self.jobs,
            self.wall_s,
            self.backend_compiles,
            self.backend_reuses,
        ));
        for sum in &self.summaries {
            s.push_str(&format!(
                "  {:<10} {:<22} {:>3}/{:<3} feasible, {} pareto{}\n",
                sum.platform,
                sum.board,
                sum.feasible,
                sum.evaluated,
                sum.pareto_points,
                match sum.best_total_s {
                    Some(t) => format!(", best {t:.4} s"),
                    None => ", nothing fits".to_string(),
                }
            ));
        }
        s.push_str(
            "    platform     MHz   k    m  share  decouple  part      LUT   BRAM   util%     el/s    req/s  pareto\n",
        );
        for o in &self.outcomes {
            let p = &o.outcome.point;
            s.push_str(&format!(
                "  {} {:<10}  {:>4.0}  {:>2}  {:>3}  {:>5}  {:>8}  {:>4}  {:>7}  {:>5}  {:>6.1}  {:>7.0}  {:>7.0}  {}\n",
                if o.pareto { "*" } else { " " },
                o.platform,
                o.clock_mhz,
                p.k,
                p.m,
                p.sharing,
                p.decoupled,
                p.partition,
                o.outcome.luts,
                o.outcome.brams,
                o.utilization * 100.0,
                o.outcome.throughput_eps,
                o.outcome.service_rps,
                if o.outcome.feasible {
                    match (o.pareto, o.service_pareto) {
                        (true, true) => "pareto+serve",
                        (true, false) => "pareto",
                        (false, true) => "serve",
                        (false, false) => "yes",
                    }
                } else {
                    "no"
                },
            ));
        }
        s
    }

    /// Serialize as JSON through [`runtime::json::document`].
    pub fn to_json(&self) -> String {
        json::document(|w| {
            w.field("evaluated", self.evaluated)
                .field("feasible", self.feasible)
                .field("jobs", self.jobs)
                .field("elements", self.elements)
                .fixed("wall_s", self.wall_s, 6);
            w.object("backend_cache", |w| {
                w.field("compiles", self.backend_compiles)
                    .field("reuses", self.backend_reuses);
            });
            w.object("compile_cache", |w| write_cache(w, &self.cache));
            w.object("polyhedra", |w| write_oracle(w, &self.oracle));
            w.array_lines("platforms", |w| {
                for p in &self.summaries {
                    w.row(|w| {
                        w.string("platform", &p.platform)
                            .string("board", &p.board)
                            .field("evaluated", p.evaluated)
                            .field("feasible", p.feasible)
                            .field("pareto_points", p.pareto_points)
                            .fixed("best_total_s", p.best_total_s, 6);
                    });
                }
            });
            w.array_lines("pareto_frontier", |w| {
                for o in self.pareto_frontier() {
                    w.row(|w| {
                        write_frontier_point(w, o);
                        w.fixed("total_s", o.outcome.total_s, 6)
                            .fixed("throughput_eps", o.outcome.throughput_eps, 3)
                            .fixed("utilization", o.utilization, 4);
                    });
                }
            });
            w.array_lines("service_frontier", |w| {
                for o in self.service_frontier() {
                    w.row(|w| {
                        write_frontier_point(w, o);
                        w.fixed("service_rps", o.outcome.service_rps, 3)
                            .fixed("service_p99_s", o.outcome.service_p99_s, 6)
                            .fixed("utilization", o.utilization, 4);
                    });
                }
            });
            w.array_lines("cost_frontier", |w| {
                for (o, per_kluts) in self.cost_frontier() {
                    w.row(|w| {
                        write_frontier_point(w, o);
                        w.field("luts", o.outcome.luts)
                            .fixed("service_rps", o.outcome.service_rps, 3)
                            .fixed("rps_per_kluts", per_kluts, 4);
                    });
                }
            });
            w.array_lines("outcomes", |w| {
                for o in &self.outcomes {
                    w.row(|w| {
                        w.string("platform", &o.platform)
                            .fixed("clock_mhz", o.clock_mhz, 1);
                        write_outcome(w, &o.outcome);
                        w.fixed("utilization", o.utilization, 4)
                            .field("pareto", o.pareto)
                            .field("service_pareto", o.service_pareto);
                    });
                }
            });
        })
    }
}

/// Write the `platform`, `clock_mhz`, `k` and `m` members that open
/// every frontier row into the object `w` has open.
fn write_frontier_point(w: &mut json::Writer, o: &PortfolioOutcome) {
    w.string("platform", &o.platform)
        .fixed("clock_mhz", o.clock_mhz, 1)
        .field("k", o.outcome.point.k)
        .field("m", o.outcome.point.m);
}

/// Largest resource-utilization fraction of a feasible outcome against a
/// platform's board (0 when infeasible).
fn outcome_utilization(platform: &Platform, o: &DseOutcome) -> f64 {
    if !o.feasible {
        return 0.0;
    }
    let b = &platform.board;
    [
        o.luts as f64 / b.luts as f64,
        o.ffs as f64 / b.ffs as f64,
        o.dsps as f64 / b.dsps as f64,
        o.brams as f64 / b.brams as f64,
    ]
    .into_iter()
    .fold(0.0, f64::max)
}

impl DseEngine {
    /// Sweep the **platform × clock × (k, m, sharing, decoupling,
    /// partition)** cross product: the multi-board portfolio view.
    /// The shared stages stay compiled once (from
    /// [`DseEngine::prepare_program`]); backends are memoized per
    /// **(clock, backend key)** — a backend compiled at 200 MHz is reused
    /// across every platform whose ladder contains 200 MHz and every
    /// `k`/`m`.
    pub fn run_portfolio(
        &self,
        platforms: &[Platform],
        grid: &DseGrid,
        jobs: usize,
        elements: usize,
    ) -> PortfolioReport {
        let points = grid.points();
        let oracle_base = polyhedra::OracleCounters::snapshot();
        let t = Instant::now();
        let targets: Vec<(&Platform, f64)> = platforms
            .iter()
            .flat_map(|p| p.clock_ladder_mhz.iter().map(move |&c| (p, c)))
            .collect();
        let sweep = self.sweep(&targets, &points, jobs, elements);
        let mut outcomes: Vec<PortfolioOutcome> = sweep
            .outcomes
            .into_iter()
            .enumerate()
            .map(|(i, outcome)| {
                let (platform, clock_mhz) = targets[i / points.len()];
                PortfolioOutcome {
                    platform: platform.id.clone(),
                    board: platform.board.name.clone(),
                    clock_mhz,
                    utilization: outcome_utilization(platform, &outcome),
                    outcome,
                    pareto: false,
                    service_pareto: false,
                }
            })
            .collect();
        // Per-platform Pareto frontiers: the latency view over
        // (total_s, utilization) and the service view over
        // (requests/sec ↑, p99 ↓, utilization ↓).
        for p in platforms {
            let idx: Vec<usize> = (0..outcomes.len())
                .filter(|&i| outcomes[i].platform == p.id)
                .collect();
            let objectives: Vec<Option<[f64; 2]>> = idx
                .iter()
                .map(|&i| {
                    let o = &outcomes[i];
                    o.outcome
                        .feasible
                        .then_some([o.outcome.total_s, o.utilization])
                })
                .collect();
            for (&i, flag) in idx.iter().zip(pareto_flags(&objectives)) {
                outcomes[i].pareto = flag;
            }
            let service: Vec<Option<[f64; 3]>> = idx
                .iter()
                .map(|&i| {
                    let o = &outcomes[i];
                    o.outcome.feasible.then_some([
                        -o.outcome.service_rps,
                        o.outcome.service_p99_s,
                        o.utilization,
                    ])
                })
                .collect();
            for (&i, flag) in idx.iter().zip(pareto_flags(&service)) {
                outcomes[i].service_pareto = flag;
            }
        }
        // Platforms rank by id (string order), as a count of the ids
        // below their own.
        let platform_rank = |id: &str| platforms.iter().filter(|q| q.id.as_str() < id).count();
        outcomes.sort_by_cached_key(|o| {
            (
                Reverse(o.outcome.feasible),
                total_key(o.outcome.total_s),
                total_key(o.utilization),
                platform_rank(&o.platform),
                total_key(o.clock_mhz),
                o.outcome.point.label_key(),
            )
        });
        let summaries: Vec<PlatformSummary> = platforms
            .iter()
            .map(|p| {
                let of_p: Vec<&PortfolioOutcome> =
                    outcomes.iter().filter(|o| o.platform == p.id).collect();
                PlatformSummary {
                    platform: p.id.clone(),
                    board: p.board.name.clone(),
                    evaluated: of_p.len(),
                    feasible: of_p.iter().filter(|o| o.outcome.feasible).count(),
                    pareto_points: of_p.iter().filter(|o| o.pareto).count(),
                    best_total_s: of_p
                        .iter()
                        .filter(|o| o.outcome.feasible)
                        .map(|o| o.outcome.total_s)
                        .min_by(f64::total_cmp),
                }
            })
            .collect();
        let feasible = outcomes.iter().filter(|o| o.outcome.feasible).count();
        PortfolioReport {
            evaluated: outcomes.len(),
            feasible,
            jobs: sweep.jobs,
            elements,
            wall_s: t.elapsed().as_secs_f64(),
            backend_compiles: sweep.backend_compiles,
            backend_reuses: sweep.backend_reuses,
            cache: self.pipeline.cache_counters(),
            oracle: polyhedra::OracleCounters::snapshot().since(oracle_base),
            summaries,
            outcomes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SplitMix64: a seeded stream for the generated cases.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn coin(&mut self) -> bool {
            self.next() & 1 == 1
        }

        /// Mostly `lo..=hi`, sometimes a digit-count edge case.
        fn number(&mut self, lo: u64, hi: u64, max: u64) -> u64 {
            const EDGES: [u64; 8] = [0, 9, 10, 99, 100, 1_000_000, u32::MAX as u64, u64::MAX];
            if self.below(16) == 0 {
                EDGES[self.below(EDGES.len() as u64) as usize].min(max)
            } else {
                lo + self.below(hi - lo + 1)
            }
        }

        fn point(&mut self) -> DsePoint {
            DsePoint {
                k: self.number(1, 128, usize::MAX as u64) as usize,
                m: self.number(1, 128, usize::MAX as u64) as usize,
                sharing: self.coin(),
                decoupled: self.coin(),
                partition: self.number(1, 16, u32::MAX as u64) as u32,
            }
        }

        /// `a` with each field independently kept or redrawn, so pairs
        /// reach every tie-break of the label.
        fn near(&mut self, a: &DsePoint) -> DsePoint {
            let b = self.point();
            DsePoint {
                k: if self.coin() { a.k } else { b.k },
                m: if self.coin() { a.m } else { b.m },
                sharing: if self.coin() { a.sharing } else { b.sharing },
                decoupled: if self.coin() {
                    a.decoupled
                } else {
                    b.decoupled
                },
                partition: if self.coin() {
                    a.partition
                } else {
                    b.partition
                },
            }
        }
    }

    fn point(k: usize, m: usize, partition: u32) -> DsePoint {
        DsePoint {
            k,
            m,
            sharing: true,
            decoupled: false,
            partition,
        }
    }

    #[test]
    fn label_key_orders_like_the_label() {
        // The orders a numeric comparison would get wrong.
        let by_label = |ps: &[DsePoint]| {
            let mut ps = ps.to_vec();
            ps.sort_by_key(DsePoint::label_key);
            ps.iter().map(|p| (p.k, p.m)).collect::<Vec<_>>()
        };
        let ks = [point(2, 4, 1), point(10, 4, 1), point(1, 4, 1)];
        assert_eq!(by_label(&ks), [(1, 4), (10, 4), (2, 4)]);
        let ms = [point(1, 40, 1), point(1, 4, 1), point(1, 5, 1)];
        assert_eq!(by_label(&ms), [(1, 4), (1, 40), (1, 5)]);

        // Every (k, m) with k, m in 1..=128, the remaining fields drawn
        // per point: sorted by key, the labels strictly increase.
        let mut rng = Rng(0x5EED_0016);
        let mut plane: Vec<DsePoint> = (1..=128)
            .flat_map(|k| (1..=128).map(move |m| (k, m)))
            .map(|(k, m)| DsePoint {
                k,
                m,
                sharing: rng.coin(),
                decoupled: rng.coin(),
                partition: 1 + rng.below(16) as u32,
            })
            .collect();
        plane.sort_by_key(DsePoint::label_key);
        for w in plane.windows(2) {
            assert!(w[0].label() < w[1].label(), "{:?} before {:?}", w[0], w[1]);
        }

        // Seeded pairs over both booleans, partitions in 1..=16 and
        // digit-count edge cases up to the largest `usize` and `u32`.
        for _ in 0..50_000 {
            let a = rng.point();
            let b = rng.near(&a);
            assert_eq!(
                a.label_key().cmp(&b.label_key()),
                a.label().cmp(&b.label()),
                "{a:?} vs {b:?}"
            );
        }
    }

    #[test]
    fn total_key_orders_like_total_cmp() {
        let xs = [
            f64::NEG_INFINITY,
            -1.5,
            -0.0,
            0.0,
            f64::MIN_POSITIVE / 2.0,
            1e-300,
            2.5,
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        for a in xs {
            for b in xs {
                assert_eq!(
                    total_key(a).cmp(&total_key(b)),
                    a.total_cmp(&b),
                    "{a} vs {b}"
                );
            }
        }
    }

    /// Every feasible design of a small portfolio scores the same bits
    /// through the probe entry point, a timing-only `runtime::serve` of
    /// the same backlog, and the sweep's memoized probe.
    #[test]
    fn probe_matches_serve_and_the_memoized_sweep() {
        let src = cfdlang::examples::inverse_helmholtz(4);
        let engine = DseEngine::prepare(&src, &FlowOptions::default()).unwrap();
        let catalog = Platform::catalog();
        let grid = DseGrid::default();
        let serve_opts = runtime::RuntimeOptions {
            requests: SERVICE_PROBE_REQUESTS,
            arrival: runtime::Arrival::Closed,
            batch: runtime::BatchPolicy::Auto,
            overlap_dma: true,
            seed: 0,
            execute: false,
            ..runtime::RuntimeOptions::default()
        };
        let requests =
            runtime::generate_timing_requests(SERVICE_PROBE_REQUESTS, &runtime::Arrival::Closed, 0)
                .unwrap();
        for jobs in [1, 2] {
            let report = engine.run_portfolio(&catalog, &grid, jobs, 1_000);
            let mut builds: HashMap<(u64, bool, bool), ProgramBuild> = HashMap::new();
            let mut checked = 0;
            for o in &report.outcomes {
                let platform = catalog.iter().find(|p| p.id == o.platform).unwrap();
                let p = &o.outcome.point;
                let build = builds
                    .entry((o.clock_mhz.to_bits(), p.sharing, p.decoupled))
                    .or_insert_with(|| engine.build(p, o.clock_mhz));
                let cfg = ProgramSystemConfig::uniform(p.k, p.m, 1);
                let Some(design) = build.design_for(platform, cfg) else {
                    assert!(!o.outcome.feasible, "{} {}", o.platform, p.label());
                    continue;
                };
                assert!(o.outcome.feasible, "{} {}", o.platform, p.label());
                let served = runtime::serve(&design, &[], &[], &[], &requests, &serve_opts)
                    .unwrap()
                    .report;
                let bits = |(rps, p99): (f64, f64)| (rps.to_bits(), p99.to_bits());
                let want = bits((served.throughput_rps, served.latency_p99_s));
                let probe = runtime::closed_backlog_probe(&design, SERVICE_PROBE_REQUESTS);
                assert_eq!(bits(probe), want, "probe: {} {}", o.platform, p.label());
                let swept = (o.outcome.service_rps, o.outcome.service_p99_s);
                assert_eq!(bits(swept), want, "sweep: {} {}", o.platform, p.label());
                checked += 1;
            }
            assert_eq!(checked, report.feasible);
            assert!(checked > 0);
        }
    }

    /// Grid points whose configuration breaks `m = 2^j · k` come back
    /// as infeasible rows from both sweeps, at any worker count, and
    /// leave the valid rows as a grid without them reports them.
    #[test]
    fn invalid_grid_points_are_infeasible_rows() {
        let src = cfdlang::examples::inverse_helmholtz(4);
        let engine = DseEngine::prepare(&src, &FlowOptions::default()).unwrap();
        let catalog = Platform::catalog();
        let grid = |k: Vec<usize>, batch: Vec<usize>| DseGrid {
            k,
            batch,
            sharing: vec![true],
            decoupled: vec![true],
            partition: vec![1],
        };
        let mixed = grid(vec![0, 1, 2], vec![0, 1, 3]);
        let valid = grid(vec![1, 2], vec![1]);
        let is_valid = |p: &DsePoint| p.k >= 1 && p.m == p.k;
        let row = |o: &DseOutcome| {
            let bits = [o.total_s, o.service_rps, o.service_p99_s].map(f64::to_bits);
            (o.point.label(), o.feasible, o.luts, o.brams, bits)
        };
        for jobs in [1, 2] {
            let run = engine.run(&mixed, jobs, 1_000);
            assert_eq!(run.evaluated, 9);
            let (ok, bad): (Vec<_>, Vec<_>) = run.outcomes.iter().partition(|o| is_valid(&o.point));
            assert!(bad.iter().all(|o| !o.feasible && o.service_rps == 0.0));
            let want: Vec<_> = engine
                .run(&valid, jobs, 1_000)
                .outcomes
                .iter()
                .map(row)
                .collect();
            assert_eq!(ok.into_iter().map(row).collect::<Vec<_>>(), want);
            assert!(want.iter().any(|r| r.1), "a valid point fits the zcu106");

            let portfolio = engine.run_portfolio(&catalog, &mixed, jobs, 1_000);
            let targets: usize = catalog.iter().map(|p| p.clock_ladder_mhz.len()).sum();
            assert_eq!(portfolio.evaluated, 9 * targets);
            let want = engine.run_portfolio(&catalog, &valid, jobs, 1_000);
            let rows = |r: &PortfolioReport, keep: bool| {
                r.outcomes
                    .iter()
                    .filter(|o| is_valid(&o.outcome.point) == keep)
                    .map(|o| (o.platform.clone(), o.clock_mhz.to_bits(), row(&o.outcome)))
                    .collect::<Vec<_>>()
            };
            assert_eq!(rows(&portfolio, true), rows(&want, true));
            assert!(rows(&portfolio, false).iter().all(|r| !r.2 .1));
            assert_eq!(portfolio.feasible, want.feasible);
        }
    }
}
