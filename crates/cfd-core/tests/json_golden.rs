//! Byte-exact golden fixture for the JSON report documents.
//!
//! The snapshot tests compare key sets only, so a reordered key, a
//! moved comma, a changed float precision or different indentation
//! passes them. This test pins the complete bytes of:
//!
//! * a three-board `FleetReport`: one board is assigned nothing
//!   (`"report": null`), one dies in a fatal outage and has its queue
//!   requeued, and one carries a hostile name (quote, backslash,
//!   newline);
//! * the `DseReport` of the `helmholtz:4` grid sweep;
//! * the `PortfolioReport` of `simstep:4` over the platform catalog;
//! * the stdout of `cfdc compile helmholtz:4 --json`.
//!
//! Wall-clock and process-wide fields are neutralized first: the sweep
//! reports get zero timings (`wall_s`, `eval_*`, `backend_s`, shared
//! stage times, every outcome's `eval_s`) and reset oracle and cache
//! counters; the cfdc document gets every `timings_s` digit masked to
//! `0`. Every fixture document must also pass `runtime::json::validate`.
//! The `ServiceReport` document is pinned by `zynq`'s `stream_golden`.
//!
//! Regenerate only after an intentional format change with:
//!
//! ```sh
//! UPDATE_SNAPSHOTS=1 cargo test -p cfd-core --test json_golden
//! ```

use std::path::PathBuf;
use std::process::Command;

use cfd_core::dse::{DseEngine, DseGrid};
use cfd_core::{FlowOptions, ProgramFlow, ProgramOptions};
use cfdlang::examples;
use runtime::{
    generate_timing_requests, serve_fleet, Arrival, BatchPolicy, FleetBoard, FleetOptions,
    RoutePolicy, RuntimeOptions,
};
use sysgen::Platform;
use zynq::des::secs;
use zynq::fault::{FaultPlan, Outage};

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Validate `doc`, then compare it with the committed fixture (or
/// rewrite the fixture under `UPDATE_SNAPSHOTS=1`). Reports the first
/// differing line.
fn check(name: &str, json: &str, got: &str) {
    runtime::json::validate(json).unwrap_or_else(|e| panic!("{name} is not valid JSON: {e}"));
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
        "{name} differs at line {}:\n  want: {:?}\n   got: {:?}",
        line + 1,
        want.lines().nth(line).unwrap_or("<eof>"),
        got.lines().nth(line).unwrap_or("<eof>"),
    );
}

fn compile_for(source: &str, platform: &str) -> cfd_core::ProgramArtifacts {
    let p = Platform::by_name(platform).expect("catalog platform");
    let mut opts = ProgramOptions::default();
    opts.flow.hls.clock_mhz = p.default_clock_mhz;
    opts.flow.platform = p;
    ProgramFlow::compile(source, &opts).expect("example compiles")
}

#[test]
fn fleet_report_matches_the_golden_fixture() {
    let src = examples::axpy(4);
    let main = compile_for(&src, "zcu106");
    let design = |platform: &str| {
        compile_for(&src, platform)
            .system
            .expect("system fits the board")
    };
    let mut boards = vec![
        FleetBoard::healthy(main.system.clone().expect("system fits the board")),
        FleetBoard::healthy(design("u250")),
        FleetBoard::healthy(design("pynq-z2")),
    ];
    boards[0].faults = FaultPlan {
        seed: 7,
        outage: Some(Outage {
            fail_at: secs(20e-6),
            recover_at: None,
        }),
        ..FaultPlan::none()
    };
    boards[1].name = "evil \"board\" \\ with\nnewline".into();
    let n = 2;
    let requests = generate_timing_requests(n, &Arrival::Closed, 7).unwrap();
    let opts = FleetOptions {
        route: RoutePolicy::RoundRobin,
        parallel: false,
        base: RuntimeOptions {
            requests: n,
            batch: BatchPolicy::Auto,
            overlap_dma: false,
            execute: false,
            seed: 7,
            ..Default::default()
        },
    };
    let report = serve_fleet(&boards, &main.names, &[], &[], &requests, &opts)
        .unwrap()
        .report;
    let json = report.to_json();
    check("json_fleet.json", &json, &json);
}

/// Element count every sweep point is simulated with.
const ELEMENTS: usize = 2_000;

#[test]
fn dse_report_matches_the_golden_fixture() {
    let engine =
        DseEngine::prepare(&examples::inverse_helmholtz(4), &FlowOptions::default()).unwrap();
    let mut report = engine.run(&DseGrid::default(), 2, ELEMENTS);
    report.wall_s = 0.0;
    report.shared = Default::default();
    report.cache = Default::default();
    report.oracle = Default::default();
    report.backend_s = 0.0;
    report.eval_total_s = 0.0;
    report.eval_mean_s = 0.0;
    report.eval_max_s = 0.0;
    for o in &mut report.outcomes {
        o.eval_s = 0.0;
    }
    let json = report.to_json();
    check("json_dse.json", &json, &json);
}

#[test]
fn portfolio_report_matches_the_golden_fixture() {
    let engine =
        DseEngine::prepare(&examples::simulation_step(4), &FlowOptions::default()).unwrap();
    let mut report = engine.run_portfolio(&Platform::catalog(), &DseGrid::default(), 2, ELEMENTS);
    report.wall_s = 0.0;
    report.cache = Default::default();
    report.oracle = Default::default();
    for o in &mut report.outcomes {
        o.outcome.eval_s = 0.0;
    }
    let json = report.to_json();
    check("json_portfolio.json", &json, &json);
}

/// Zero every value of the `"timings_s"` object, keeping each value's
/// precision.
fn mask_timings(doc: &str) -> String {
    let open = "\"timings_s\": {";
    let start = doc.find(open).expect("timings_s object") + open.len();
    let end = start + doc[start..].find('}').expect("timings_s closes");
    let masked: Vec<String> = doc[start..end]
        .split(", ")
        .map(|field| {
            let (key, value) = field.split_once(": ").expect("key: value");
            let digits = value.split_once('.').map_or(0, |(_, f)| f.len());
            format!("{key}: {:.digits$}", 0.0)
        })
        .collect();
    format!("{}{}{}", &doc[..start], masked.join(", "), &doc[end..])
}

#[test]
fn cfdc_compile_json_matches_the_golden_fixture() {
    let out = Command::new(env!("CARGO_BIN_EXE_cfdc"))
        .args(["compile", "helmholtz:4", "--json"])
        .output()
        .expect("cfdc runs");
    assert!(out.status.success(), "cfdc compile failed");
    let stdout = mask_timings(&String::from_utf8(out.stdout).expect("utf8 output"));
    let json = &stdout[stdout.find("\n{\n").expect("JSON document") + 1..];
    check("json_cfdc_compile.txt", json, &stdout);
}
