//! The repository benchmark: one command that runs a workload from a
//! seed, checks its outputs, and prints end-to-end or per-layer metrics.
//!
//! ```sh
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload explore --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports
//! the end-to-end metrics, `--trace 1` the per-layer metrics of a
//! traced run (see `NOTES.md`). The exit code is 1 when any check
//! failed and 2 on a usage error.

mod checks;
mod stats;
mod trace;
mod workloads;

use stats::{median, mix, quantile, ratio, Ops};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::time::Instant;
use trace::{calibration_s, layer_of, Cost, Stamp, Tracer, CALIBRATION_REF_S, OPAQUE};
use workloads::{IterOut, Kind};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// Mixed into the workload seed for the held-out correctness pass.
const HELD_OUT: u64 = 0x4845_4c44_5f4f_5554;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "perfbench: {msg}\nusage: perfbench --workload explore|serve_execute|serve_stream \
         --seed N --seconds S --trace 0|1"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            usage(&format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => kind = Kind::parse(&value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    Args {
        kind: kind.unwrap_or_else(|| usage("--workload must name a workload")),
        seed: seed.unwrap_or_else(|| usage("--seed must be a whole number")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds must be positive")),
        trace: trace.unwrap_or_else(|| usage("--trace must be 0 or 1")),
    }
}

/// Runs the calibration loop between pieces of work and turns their CPU
/// times into normalized times.
struct Calibrator {
    last_s: f64,
    measured: Vec<f64>,
}

impl Calibrator {
    fn new() -> Calibrator {
        let last_s = calibration_s();
        Calibrator {
            last_s,
            measured: vec![last_s],
        }
    }

    /// Call after a piece of work: calibrates again and returns the
    /// factor that normalizes the work's CPU time, from the mean of the
    /// calibrations before and after it.
    fn scale(&mut self) -> f64 {
        let next = calibration_s();
        let around = 0.5 * (self.last_s + next);
        self.last_s = next;
        self.measured.push(next);
        CALIBRATION_REF_S / around
    }
}

/// One finished iteration.
struct Rec {
    kind: Kind,
    id: u64,
    traced: bool,
    /// Part of the timed loop (not the check phase).
    in_loop: bool,
    /// The whole iteration, verification included.
    cost: Cost,
    /// Normalizes this iteration's CPU times.
    scale: f64,
    out: IterOut,
}

impl Rec {
    fn lookup(list: &[(&str, f64)], key: &str) -> Option<f64> {
        list.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }

    fn count(&self, key: &str) -> Option<f64> {
        Rec::lookup(&self.out.counts, key)
    }

    /// A named piece of the iteration, in normalized seconds.
    fn time(&self, key: &str) -> Option<f64> {
        Rec::lookup(&self.out.times, key).map(|s| s * self.scale)
    }

    fn call_ms(&self) -> f64 {
        self.out.call.cpu_s * self.scale * 1e3
    }

    fn throughput(&self) -> f64 {
        self.out.items as f64 / (self.out.call.cpu_s * self.scale)
    }
}

struct Run {
    args: Args,
    inp: workloads::Inputs,
    setup: workloads::Setup,
    tracer: Tracer,
    ops: Ops,
    cal: Calibrator,
    recs: Vec<Rec>,
}

impl Run {
    fn iterate(&mut self, kind: Kind, seed: u64, traced: bool, in_loop: bool) -> Option<u64> {
        let id = self.recs.len() as u64;
        self.tracer.set_on(traced);
        self.tracer.begin_iteration(id);
        let t = Stamp::now();
        let out = workloads::run(
            kind,
            &self.inp,
            &self.setup,
            seed,
            &mut self.tracer,
            &mut self.ops,
        );
        let cost = t.cost();
        let scale = self.cal.scale();
        let out = out?;
        let digest = out.digest;
        self.recs.push(Rec {
            kind,
            id,
            traced,
            in_loop,
            cost,
            scale,
            out,
        });
        Some(digest)
    }

    fn scale_of(&self, iteration: u64) -> f64 {
        self.recs.get(iteration as usize).map_or(1.0, |r| r.scale)
    }
}

fn seed_for(seed: u64, i: u64) -> u64 {
    mix(seed.wrapping_add(mix(i)))
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

fn main() {
    let args = parse_args();
    let inp = workloads::Inputs::new();
    let mut cal = Calibrator::new();

    // Set-up, several times; the last one is kept.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut setup = None;
    for _ in 0..SETUP_REPS {
        let t = Stamp::now();
        let built = workloads::Setup::build(&inp);
        let cpu_s = t.cost().cpu_s;
        setup_s.push(cpu_s * cal.scale());
        match built {
            Ok(s) => setup = Some(s),
            Err(e) => {
                eprintln!("perfbench: set-up failed: {e}");
                std::process::exit(1)
            }
        }
    }
    let mut run = Run {
        inp,
        setup: setup.expect("SETUP_REPS >= 1"),
        tracer: Tracer::new(),
        ops: Ops::default(),
        cal,
        recs: Vec::new(),
        args,
    };
    let (kind, seed, trace) = (run.args.kind, run.args.seed, run.args.trace);

    // The timed loop. A traced run alternates traced and untraced
    // iterations so the tracing overhead is measured on the same work.
    let start = Instant::now();
    let mut i = 0u64;
    let mut first_digest = None;
    while i == 0 || start.elapsed().as_secs_f64() < run.args.seconds {
        let traced = trace && i.is_multiple_of(2);
        let d = run.iterate(kind, seed_for(seed, i), traced, true);
        if i == 0 {
            first_digest = d;
        }
        i += 1;
    }
    let loop_s = start.elapsed().as_secs_f64();
    let peak_rss_mb = stats::peak_rss_mb();

    // Check phase: one iteration of each other workload on the first
    // seed, the digest and held-out passes, and the once-per-run figures.
    let seed0 = seed_for(seed, 0);
    for other in Kind::ALL.into_iter().filter(|k| *k != kind) {
        run.iterate(other, seed0, trace, false);
    }
    let traced_again = run.iterate(kind, seed0, true, false);
    let untraced_again = run.iterate(kind, seed0, false, false);
    run.ops.check(
        first_digest.is_some() && first_digest == traced_again && traced_again == untraced_again,
        || {
            format!(
                "simulated digests differ for one seed: first {first_digest:x?}, \
                 traced {traced_again:x?}, untraced {untraced_again:x?}"
            )
        },
    );
    let held_out = run.iterate(kind, mix(seed ^ HELD_OUT), trace, false);
    run.ops
        .check(held_out.is_some(), || "held-out seed failed".into());
    let paper = checks::paper_figures(&run.inp, &mut run.ops);
    checks::cross_check_pr10(&run.setup, &mut run.ops);
    let scaling = checks::faulty_scaling_ratio(&run.inp, &run.setup, seed0, &mut run.ops);
    let (exec_ops, exec_bytes) = checks::exec_counts(&run.setup, seed0, &mut run.ops);

    // End-to-end figures, from every loop iteration.
    let lp: Vec<&Rec> = run.recs.iter().filter(|r| r.in_loop).collect();
    let call_ms: Vec<f64> = lp.iter().map(|r| r.call_ms()).collect();
    let rate: Vec<f64> = lp.iter().map(|r| r.throughput()).collect();
    let raw_ms: Vec<f64> = lp.iter().map(|r| r.out.call.cpu_s * 1e3).collect();
    let wall_ms: Vec<f64> = lp.iter().map(|r| r.out.call.wall_s * 1e3).collect();
    let wall = [quantile(&wall_ms, 0.5), quantile(&wall_ms, 0.9)];
    // The simulated serving figures come from the first serve_stream
    // iteration, which always runs on the first seed.
    let stream0 = run.recs.iter().find(|r| r.kind == Kind::ServeStream);
    let sim = |key: &str| {
        stream0
            .and_then(|r| Rec::lookup(&r.out.sim, key))
            .unwrap_or(0.0)
    };
    let paper_fig = |f: fn(&checks::PaperFigures) -> f64| paper.as_ref().map_or(0.0, f);
    let e2e: Metrics = vec![
        ("setup_s", median(&setup_s), "s"),
        ("call_ms_p50", quantile(&call_ms, 0.5), "ms"),
        ("call_ms_p90", quantile(&call_ms, 0.9), "ms"),
        ("throughput_per_s", median(&rate), "1/s"),
        ("peak_rss_mb", peak_rss_mb, "MiB"),
        ("paper_speedup_vs_arm", paper_fig(|p| p.speedup_vs_arm), "x"),
        (
            "paper_speedup_k16_vs_k1",
            paper_fig(|p| p.speedup_k16_vs_k1),
            "x",
        ),
        (
            "paper_max_kernels",
            paper_fig(|p| p.max_kernels as f64),
            "count",
        ),
        ("sim_goodput_rps", sim("sim_goodput_rps"), "req/sim_s"),
        ("sim_p99_completed_s", sim("sim_p99_completed_s"), "sim_s"),
    ];

    let mut report = String::new();
    let _ = writeln!(
        report,
        "perfbench: workload {} seed {seed} trace {} | {} loop iterations in {loop_s:.2} s \
         ({} traced), set-up x{SETUP_REPS}",
        kind.name(),
        trace as u8,
        lp.len(),
        lp.iter().filter(|r| r.traced).count(),
    );
    let items = lp.first().map_or(0, |r| r.out.items);
    let _ = writeln!(
        report,
        "end to end ({} per call = {items}; times are normalized CPU time):",
        kind.items()
    );
    for (name, v, unit) in &e2e {
        let _ = writeln!(report, "  {name:<30} {v:>14.6} {unit}");
    }
    named_figures(&mut report, kind, &lp);
    let _ = writeln!(
        report,
        "  raw per call (not gated): CPU p50 {:.3} ms, wall p50 {:.3} ms, p90 {:.3} ms; \
         calibration median {:.3} ms (reference {:.3} ms)",
        quantile(&raw_ms, 0.5),
        wall[0],
        wall[1],
        median(&run.cal.measured) * 1e3,
        CALIBRATION_REF_S * 1e3,
    );
    let _ = writeln!(
        report,
        "  paper error: vs ARM {:+.1}% (Fig. 10: {}), k16/k1 {:+.1}% (Fig. 9: {}), \
         max k {} (paper {})",
        100.0 * (e2e[5].1 / checks::PAPER_FIG10_K16_VS_ARM - 1.0),
        checks::PAPER_FIG10_K16_VS_ARM,
        100.0 * (e2e[6].1 / checks::PAPER_FIG9_K16 - 1.0),
        checks::PAPER_FIG9_K16,
        e2e[7].1,
        checks::PAPER_MAX_KERNELS,
    );
    let run_digest = lp
        .iter()
        .fold(stats::Digest::new(), |mut d, r| *d.u64(r.out.digest))
        .0;
    let _ = writeln!(
        report,
        "checks: {} attempted, {} failed; run digest {run_digest:016x}",
        run.ops.attempted, run.ops.failed
    );
    for f in &run.ops.failures {
        let _ = writeln!(report, "  FAILED: {f}");
    }

    let metrics = if trace {
        self_time_report(&mut report, &run);
        write_spans(&run, &mut report);
        per_layer(&run, scaling, (exec_ops, exec_bytes), wall)
    } else {
        e2e
    };
    print!("{report}");

    let correct = run.ops.failed == 0;
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        run.ops.attempted, run.ops.failed
    );
    for (i, (name, v, unit)) in metrics.iter().enumerate() {
        let v = if v.is_finite() { *v } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push_str("}}");
    println!("{json}");
    std::process::exit(if correct { 0 } else { 1 })
}

/// The workload's own named figures, from the loop iterations.
fn named_figures(report: &mut String, kind: Kind, lp: &[&Rec]) {
    let times = |key: &str| -> Vec<f64> { lp.iter().filter_map(|r| r.time(key)).collect() };
    let pairs: Vec<(&str, f64)> = match kind {
        Kind::Explore => {
            let (c, e) = (times("compile"), times("explore"));
            vec![
                ("compile_ms_p50", 1e3 * quantile(&c, 0.5)),
                ("compile_ms_p90", 1e3 * quantile(&c, 0.9)),
                ("explore_ms_p50", 1e3 * quantile(&e, 0.5)),
                ("explore_ms_p90", 1e3 * quantile(&e, 0.9)),
            ]
        }
        Kind::ServeExecute => vec![(
            "exec_requests_per_s",
            median(&lp.iter().map(|r| r.throughput()).collect::<Vec<_>>()),
        )],
        Kind::ServeStream => vec![
            (
                "stream_faulty_requests_per_s",
                1.0 / median(&times("faulty_per_request")),
            ),
            (
                "stream_online_requests_per_s",
                1.0 / median(&times("online_per_request")),
            ),
        ],
    };
    for (name, v) in pairs {
        let _ = writeln!(report, "  {name:<30} {v:>14.6}");
    }
}

/// Per-layer metrics of a traced run: span figures over the traced
/// iterations (loop and check phase), counts over the same iterations.
fn per_layer(run: &Run, scaling: f64, exec: (f64, f64), wall: [f64; 2]) -> Metrics {
    let traced: Vec<&Rec> = run.recs.iter().filter(|r| r.traced).collect();
    let traced_ids: BTreeSet<u64> = traced.iter().map(|r| r.id).collect();
    // Normalized span times per (name, iteration), and per call.
    let mut per_iter: BTreeMap<(&str, u64), f64> = BTreeMap::new();
    let mut calls: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for s in run
        .tracer
        .spans
        .iter()
        .filter(|s| traced_ids.contains(&s.iteration))
    {
        let ms = s.cpu_ns as f64 / 1e6 * run.scale_of(s.iteration);
        *per_iter.entry((s.name, s.iteration)).or_default() += ms;
        calls.entry(s.name).or_default().push(ms);
    }
    let iter_ms = |names: &[&str]| -> f64 {
        let mut sums: BTreeMap<u64, f64> = BTreeMap::new();
        for ((name, it), ms) in &per_iter {
            if names.contains(name) {
                *sums.entry(*it).or_default() += ms;
            }
        }
        median(&sums.into_values().collect::<Vec<_>>())
    };
    let call_q = |name: &str, q: f64| calls.get(name).map_or(0.0, |v| quantile(v, q));
    let count = |key: &str| {
        median(
            &traced
                .iter()
                .filter_map(|r| r.count(key))
                .collect::<Vec<_>>(),
        )
    };
    let time = |key: &str| {
        median(
            &traced
                .iter()
                .filter_map(|r| r.time(key))
                .collect::<Vec<_>>(),
        )
    };
    let (on, off) = (iteration_ms(run, true), iteration_ms(run, false));
    vec![
        (
            "cfdlang.frontend_ms",
            iter_ms(&["cfdlang.program_frontend"]),
            "ms",
        ),
        ("teil.middle_end_ms", iter_ms(&["teil.middle_end"]), "ms"),
        (
            "pschedule.schedule_ms",
            iter_ms(&["pschedule.schedule"]),
            "ms",
        ),
        ("pschedule.link_ms", iter_ms(&["pschedule.link"]), "ms"),
        (
            "polyhedra.simplex_calls",
            count("polyhedra.simplex_calls"),
            "count",
        ),
        (
            "polyhedra.fm_fallbacks",
            count("polyhedra.fm_fallbacks"),
            "count",
        ),
        (
            "polyhedra.memo_hit_ratio",
            count("polyhedra.memo_hit_ratio"),
            "ratio",
        ),
        (
            "polyhedra.proj_hit_ratio",
            count("polyhedra.proj_hit_ratio"),
            "ratio",
        ),
        ("cfd-core.compile_ms", iter_ms(&["cfd-core.compile"]), "ms"),
        ("cfd-core.backend_ms", iter_ms(&["cfd-core.backend"]), "ms"),
        ("cfd-core.system_ms", iter_ms(&["cfd-core.system"]), "ms"),
        ("dse.prepare_ms", iter_ms(&["dse.prepare"]), "ms"),
        ("dse.portfolio_ms", iter_ms(&["dse.portfolio"]), "ms"),
        (
            "dse.points_evaluated",
            count("dse.points_evaluated"),
            "count",
        ),
        ("dse.feasible_ratio", count("dse.feasible_ratio"), "ratio"),
        (
            "dse.backend_reuse_ratio",
            count("dse.backend_reuse_ratio"),
            "ratio",
        ),
        ("cfd-core.serve_ms", iter_ms(&["cfd-core.serve"]), "ms"),
        (
            "runtime.request_gen_ms",
            iter_ms(&[
                "runtime.generate_requests",
                "runtime.generate_timing_requests",
            ]),
            "ms",
        ),
        (
            "cgen.exec_ms_per_request_p50",
            call_q("cgen.run_program_chain", 0.5),
            "ms",
        ),
        (
            "cgen.exec_ms_per_request_p99",
            call_q("cgen.run_program_chain", 0.99),
            "ms",
        ),
        ("cgen.ops_per_request", exec.0, "count"),
        ("cgen.bytes_per_request", exec.1, "bytes"),
        (
            "teil.interp_ms_per_request_p50",
            call_q("teil.run_program_reference", 0.5),
            "ms",
        ),
        (
            "zynq.faulty_us_per_request",
            1e6 * time("zynq.faulty_per_request"),
            "us",
        ),
        (
            "zynq.online_us_per_request",
            1e6 * time("zynq.online_per_request"),
            "us",
        ),
        ("zynq.rounds", count("zynq.rounds"), "count"),
        (
            "zynq.fast_forward_ratio",
            count("zynq.fast_forward_ratio"),
            "ratio",
        ),
        (
            "zynq.early_closed_rounds",
            count("zynq.early_closed_rounds"),
            "count",
        ),
        ("zynq.retried", count("zynq.retried"), "count"),
        ("zynq.timed_out", count("zynq.timed_out"), "count"),
        ("zynq.shed", count("zynq.shed"), "count"),
        ("zynq.faulty_scaling_ratio", scaling, "ratio"),
        (
            "runtime.fleet_faulty_ms",
            iter_ms(&["runtime.serve_fleet.faulty"]),
            "ms",
        ),
        (
            "runtime.fleet_online_ms",
            iter_ms(&["runtime.serve_fleet.online"]),
            "ms",
        ),
        (
            "runtime.report_json_ms",
            iter_ms(&["runtime.to_json"]),
            "ms",
        ),
        (
            "runtime.report_json_bytes",
            count("runtime.report_json_bytes"),
            "bytes",
        ),
        (
            "stream.faulty_requests_per_s",
            1.0 / time("faulty_per_request"),
            "1/s",
        ),
        (
            "stream.online_requests_per_s",
            1.0 / time("online_per_request"),
            "1/s",
        ),
        ("wall.call_ms_p50", wall[0], "ms"),
        ("wall.call_ms_p90", wall[1], "ms"),
        (
            "bench.calibration_ms",
            median(&run.cal.measured) * 1e3,
            "ms",
        ),
        ("trace.overhead_ms", on - off, "ms"),
        ("trace.overhead_ratio", ratio(on - off, off), "ratio"),
        (
            "bench.failed_ratio",
            ratio(run.ops.failed as f64, run.ops.attempted as f64),
            "ratio",
        ),
    ]
}

/// Self time per span name and per layer, over the traced loop
/// iterations, plus the tracing overhead.
fn self_time_report(report: &mut String, run: &Run) {
    let loop_ids: BTreeSet<u64> = run
        .recs
        .iter()
        .filter(|r| r.in_loop && r.traced)
        .map(|r| r.id)
        .collect();
    let n = loop_ids.len().max(1) as f64;
    let mut by_name: BTreeMap<&str, (usize, f64)> = BTreeMap::new();
    let mut by_layer: BTreeMap<&str, f64> = BTreeMap::new();
    for (s, ns) in run.tracer.spans.iter().zip(run.tracer.self_cpu_ns()) {
        if !loop_ids.contains(&s.iteration) {
            continue;
        }
        let ms = ns as f64 / 1e6 * run.scale_of(s.iteration);
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += ms;
        if !OPAQUE.contains(&s.name) {
            *by_layer.entry(layer_of(s.name)).or_default() += ms;
        }
    }
    let _ = writeln!(
        report,
        "trace: normalized CPU self time per traced loop iteration ({n} iterations)"
    );
    let mut names: Vec<_> = by_name.into_iter().collect();
    names.sort_by(|a, b| b.1 .1.total_cmp(&a.1 .1));
    for (name, (calls, ms)) in names {
        let tag = if OPAQUE.contains(&name) {
            "  (opaque call)"
        } else {
            ""
        };
        let _ = writeln!(
            report,
            "  {name:<34} {:>10.3} ms/iter  {calls:>6} calls{tag}",
            ms / n
        );
    }
    let mut layers: Vec<_> = by_layer.into_iter().collect();
    layers.sort_by(|a, b| b.1.total_cmp(&a.1));
    let _ = writeln!(report, "  layers (opaque calls excluded):");
    for (layer, ms) in &layers {
        let _ = writeln!(report, "    {layer:<12} {:>10.3} ms/iter", ms / n);
    }
    let _ = writeln!(
        report,
        "  overhead: traced {:.3} ms vs untraced {:.3} ms per iteration (medians)",
        iteration_ms(run, true),
        iteration_ms(run, false)
    );
}

/// Median normalized time of the traced or the untraced loop iterations.
fn iteration_ms(run: &Run, traced: bool) -> f64 {
    median(
        &run.recs
            .iter()
            .filter(|r| r.in_loop && r.traced == traced)
            .map(|r| r.cost.cpu_s * r.scale * 1e3)
            .collect::<Vec<_>>(),
    )
}

/// Write every span, one JSON object per line, under `perfbench/traces/`.
fn write_spans(run: &Run, report: &mut String) {
    let dir = std::path::Path::new("perfbench").join("traces");
    let path = dir.join(format!(
        "{}-seed{}.jsonl",
        run.args.kind.name(),
        run.args.seed
    ));
    let written =
        std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, run.tracer.to_jsonl()));
    let _ = match written {
        Ok(()) => writeln!(
            report,
            "  {} spans written to {}",
            run.tracer.spans.len(),
            path.display()
        ),
        Err(e) => writeln!(report, "  spans not written to {}: {e}", path.display()),
    };
}
