//! Golden fixture for the design-space sweeps.
//!
//! `run` and `run_portfolio` are pinned against outputs committed under
//! `tests/fixtures/` for one-kernel sources (plain and `kernel NAME {}`
//! blocks) and multi-kernel programs, at one and two worker threads.
//! Every outcome row is recorded — point, feasibility, resources, PLM
//! BRAMs, latency, kernel label and the exact bits of every simulated
//! figure (plus utilization and both Pareto flags for portfolios) —
//! together with the sweep counters and the per-platform summaries.
//! Wall-clock fields (`eval_s`, `wall_s`, stage timings) are left out.
//!
//! `run` rows are stored in clear text. A portfolio stores its
//! counters, summaries and frontier rows in clear text and every row
//! through an FNV-1a digest of the same row text.
//!
//! Any change to a sweep result fails this test. Regenerate only after
//! an intentional behaviour change with:
//!
//! ```sh
//! UPDATE_SNAPSHOTS=1 cargo test -p cfd-core --test dse_golden
//! ```

use std::path::PathBuf;

use cfd_core::dse::{DseEngine, DseGrid, DseOutcome, DseReport, PortfolioReport};
use cfd_core::FlowOptions;
use cfdlang::examples;
use sysgen::Platform;

/// Element count every point is simulated with.
const ELEMENTS: usize = 2_000;

/// The dense grid of the paper portfolio figure: 264 points per
/// (platform, clock).
fn dense_grid() -> DseGrid {
    DseGrid {
        k: vec![1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 16],
        batch: vec![1, 2, 4],
        sharing: vec![true, false],
        decoupled: vec![true, false],
        partition: vec![1, 2],
    }
}

/// (label, source, grid) for every swept case.
fn cases() -> Vec<(&'static str, String, DseGrid)> {
    vec![
        (
            "helmholtz:4",
            examples::inverse_helmholtz(4),
            DseGrid::default(),
        ),
        (
            "helmholtz:11",
            examples::inverse_helmholtz(11),
            dense_grid(),
        ),
        ("axpy:8", examples::axpy(8), DseGrid::default()),
        (
            "interpolation:5:4",
            examples::interpolation(5, 4),
            DseGrid::default(),
        ),
        (
            "solo",
            format!("kernel solo {{\n{}}}\n", examples::matrix_sandwich(6)),
            DseGrid::default(),
        ),
        (
            "simstep:4",
            examples::simulation_step(4),
            DseGrid::default(),
        ),
        ("axpy_chain:4", examples::axpy_chain(4), DseGrid::default()),
    ]
}

fn run(src: &str, grid: &DseGrid, jobs: usize) -> DseReport {
    let engine = DseEngine::prepare(src, &FlowOptions::default()).unwrap();
    engine.run(grid, jobs, ELEMENTS)
}

fn run_portfolio(src: &str, grid: &DseGrid, jobs: usize) -> PortfolioReport {
    let engine = DseEngine::prepare(src, &FlowOptions::default()).unwrap();
    engine.run_portfolio(&Platform::catalog(), grid, jobs, ELEMENTS)
}

/// Column legend of an outcome row.
const ROW: &str = "kernel k m sharing decoupled partition feasible luts ffs dsps brams \
    plm_brams latency_cycles total_s throughput_eps service_rps service_p99_s (f64 bits)";

fn row(o: &DseOutcome) -> String {
    let p = &o.point;
    format!(
        "{} {} {} {} {} {} {} {} {} {} {} {} {} {:016x} {:016x} {:016x} {:016x}",
        o.kernel,
        p.k,
        p.m,
        u8::from(p.sharing),
        u8::from(p.decoupled),
        p.partition,
        u8::from(o.feasible),
        o.luts,
        o.ffs,
        o.dsps,
        o.brams,
        o.plm_brams,
        o.latency_cycles,
        o.total_s.to_bits(),
        o.throughput_eps.to_bits(),
        o.service_rps.to_bits(),
        o.service_p99_s.to_bits(),
    )
}

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Compare `got` with the committed fixture, or rewrite it under
/// `UPDATE_SNAPSHOTS=1`. Reports the first differing line.
fn check(name: &str, got: &str) {
    let path = fixture(name);
    if std::env::var_os("UPDATE_SNAPSHOTS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()));
    if want == got {
        return;
    }
    let line = want
        .lines()
        .zip(got.lines())
        .position(|(a, b)| a != b)
        .unwrap_or(want.lines().count().min(got.lines().count()));
    panic!(
        "{name} differs at line {}:\n  want: {}\n   got: {}",
        line + 1,
        want.lines().nth(line).unwrap_or("<eof>"),
        got.lines().nth(line).unwrap_or("<eof>"),
    );
}

#[test]
fn run_reports_match_the_golden_fixture() {
    let mut out = format!("# row: {ROW}\n");
    for (label, src, grid) in cases() {
        for jobs in [1, 2] {
            let r = run(&src, &grid, jobs);
            out.push_str(&format!(
                "== {label} jobs={jobs} | evaluated {} feasible {} jobs {} \
                 backend_compiles {} backend_reuses {}\n",
                r.evaluated, r.feasible, r.jobs, r.backend_compiles, r.backend_reuses
            ));
            for o in &r.outcomes {
                out.push_str(&row(o));
                out.push('\n');
            }
        }
    }
    check("dse_run.txt", &out);
}

/// A portfolio in fixture form.
fn portfolio_record(r: &PortfolioReport) -> String {
    let mut out = format!(
        "evaluated {} feasible {} backend_compiles {} backend_reuses {}\n",
        r.evaluated, r.feasible, r.backend_compiles, r.backend_reuses
    );
    for s in &r.summaries {
        out.push_str(&format!(
            "platform {} ({}) evaluated {} feasible {} pareto_points {} best_total_s {}\n",
            s.platform,
            s.board,
            s.evaluated,
            s.feasible,
            s.pareto_points,
            s.best_total_s
                .map_or("none".to_string(), |t| format!("{:016x}", t.to_bits())),
        ));
    }
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for o in &r.outcomes {
        let line = format!(
            "{} {} {:016x} {} {:016x} {} {}",
            o.platform,
            o.board,
            o.clock_mhz.to_bits(),
            row(&o.outcome),
            o.utilization.to_bits(),
            u8::from(o.pareto),
            u8::from(o.service_pareto),
        );
        fnv1a(&mut h, line.as_bytes());
        fnv1a(&mut h, b"\n");
        if o.pareto || o.service_pareto {
            out.push_str(&format!("frontier {line}\n"));
        }
    }
    out.push_str(&format!("rows {} fnv1a {h:016x}\n", r.outcomes.len()));
    out
}

/// The fixture holds the serial sweeps; a two-worker sweep must give
/// the same record, Pareto flags included (of several points with
/// identical objectives only the first in sweep order is flagged).
#[test]
fn portfolio_reports_match_the_golden_fixture() {
    let mut out = format!(
        "# row: platform board clock_mhz(bits) {ROW} utilization(bits) pareto service_pareto\n"
    );
    for (label, src, grid) in cases() {
        let serial = run_portfolio(&src, &grid, 1);
        let parallel = run_portfolio(&src, &grid, 2);
        assert_eq!((serial.jobs, parallel.jobs), (1, 2));
        assert_eq!(
            portfolio_record(&parallel),
            portfolio_record(&serial),
            "{label}: jobs=2 differs from jobs=1"
        );
        out.push_str(&format!("== {label}\n"));
        out.push_str(&portfolio_record(&serial));
    }
    check("dse_portfolio.txt", &out);
}
