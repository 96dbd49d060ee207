//! Golden fixture for the serving round loop.
//!
//! Every schedule the stream simulator can produce is pinned against
//! outputs committed under `tests/fixtures/`: a grid of arrival streams
//! × batch capacities × DMA overlap × fault plans × recovery specs ×
//! online policies, on two designs (one that double-buffers, one whose
//! stages keep no spare PLM set, so overlap falls back to the serial
//! schedule). Each case records its aggregate counters in clear text
//! plus an FNV-1a digest of the per-request admitted, completion and
//! resolved ticks, statuses and attempts. Six `runtime::serve` reports
//! are pinned as full JSON text.
//!
//! Any change to a schedule fails this test. Regenerate only after an
//! intentional behaviour change with:
//!
//! ```sh
//! UPDATE_SNAPSHOTS=1 cargo test -p zynq --test stream_golden
//! ```

use std::path::PathBuf;

use runtime::{
    generate_timing_requests, serve, Arrival, BatchPolicy, OnlinePolicy, RecoveryPolicy,
    RuntimeOptions,
};
use sysgen::{MultiSystemDesign, Platform};
use zynq::des::{secs, Time};
use zynq::{
    simulate_faulty_stream, simulate_online_stream, FaultPlan, OnlineOutcome, OnlineSpec, Outage,
    RecoverySpec, SimConfig, StreamStatus,
};

/// A hand-built design: one stage per latency, stage `i` replicated
/// `ks[i]` times, `m` PLM sets.
fn design(ks: Vec<usize>, m: usize, latencies: &[u64]) -> MultiSystemDesign {
    let platform = Platform::zcu106();
    let stages: Vec<(String, hls::HlsReport)> = latencies
        .iter()
        .enumerate()
        .map(|(i, &l)| {
            (
                format!("stage{i}"),
                hls::HlsReport {
                    kernel: format!("stage{i}"),
                    clock_mhz: platform.default_clock_mhz,
                    latency_cycles: l,
                    luts: 2_314,
                    ffs: 2_999,
                    dsps: 15,
                    brams: 0,
                    loops: vec![],
                },
            )
        })
        .collect();
    let memory = mnemosyne::MemorySubsystem {
        units: vec![],
        brams: 16,
        luts: 450,
        ffs: 250,
    };
    let cfg = sysgen::ProgramSystemConfig { ks, m };
    let host = sysgen::ProgramHostProgram {
        config: cfg.clone(),
        stage_names: stages.iter().map(|(n, _)| n.clone()).collect(),
        bytes_in_per_element: (121 + 2 * 1331) * 8,
        bytes_out_per_element: 1331 * 8,
        handoff_bytes_per_element: 0,
    };
    MultiSystemDesign::build(&platform, &stages, &memory, cfg, host).unwrap()
}

/// Deterministic Poisson arrivals (splitmix64 uniforms, exponential
/// gaps), sorted by construction.
fn poisson(n: usize, rate_rps: f64, seed: u64) -> Vec<Time> {
    let mut state = seed;
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            let u = (z >> 11) as f64 / (1u64 << 53) as f64;
            t += -(1.0 - u).ln() / rate_rps;
            secs(t)
        })
        .collect()
}

fn arrival_cases() -> Vec<(&'static str, Vec<Time>)> {
    vec![
        ("closed", vec![0; 64]),
        // Pairs arrive together, pairs 4 ms apart.
        (
            "pairs",
            (0..64).map(|i| (i as Time / 2) * secs(0.004)).collect(),
        ),
        ("poisson200", poisson(64, 200.0, 1)),
        ("poisson800", poisson(64, 800.0, 2)),
        ("poisson3200", poisson(64, 3200.0, 3)),
    ]
}

fn plan_cases() -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("none", FaultPlan::none()),
        ("transient", FaultPlan::transient(7, 0.2)),
        (
            "mixed",
            FaultPlan::parse("11:transient=0.15,stall=0.3,corrupt=0.1").unwrap(),
        ),
        (
            "outage",
            FaultPlan::parse("3:fail=0.002,recover=0.004").unwrap(),
        ),
        (
            "fatal",
            FaultPlan {
                outage: Some(Outage {
                    fail_at: secs(0.03),
                    recover_at: None,
                }),
                ..FaultPlan::none()
            },
        ),
    ]
}

fn recovery_cases() -> Vec<(&'static str, RecoverySpec)> {
    vec![
        ("default", RecoverySpec::default()),
        (
            "backoff",
            RecoverySpec {
                max_retries: 3,
                backoff_ticks: secs(0.001),
                backoff_cap_ticks: secs(0.008),
                deadline_ticks: Some(secs(0.08)),
            },
        ),
    ]
}

fn online_cases(n: usize) -> Vec<(&'static str, OnlineSpec)> {
    let tiers: Vec<u8> = (0..n).map(|i| (i % 2) as u8).collect();
    vec![
        ("fifo", OnlineSpec::fifo()),
        (
            "slo",
            OnlineSpec {
                slo_ticks: Some(secs(0.04)),
                ..OnlineSpec::fifo()
            },
        ),
        (
            "queue2",
            OnlineSpec {
                max_queue: Some(2),
                ..OnlineSpec::fifo()
            },
        ),
        (
            "tiers",
            OnlineSpec {
                tiers: tiers.clone(),
                ..OnlineSpec::fifo()
            },
        ),
        (
            "all",
            OnlineSpec {
                slo_ticks: Some(secs(0.04)),
                max_queue: Some(2),
                tiers,
            },
        ),
    ]
}

fn fnv1a(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

fn status_code(s: StreamStatus) -> u64 {
    match s {
        StreamStatus::Completed => 0,
        StreamStatus::TimedOut => 1,
        StreamStatus::Shed => 2,
        StreamStatus::Failed => 3,
    }
}

/// Column legend, the first line of the fixture.
const HEADER: &str = "# design arrivals capacity overlap plan recovery online \
    | rounds fast_forwarded double_buffered \
    | exec_ticks transfer_ticks overlapped_ticks makespan_ticks \
    | dma_stalls transient corrupt outage_requeues backpressure_shed early_closed \
    | completed/timed_out/shed/failed \
    | fnv1a(admitted, completion, resolved, status, attempts per request; round fills)\n";

/// One fixture line: clear-text counters, then the per-request digest.
fn record(key: &str, o: &OnlineOutcome) -> String {
    let f = &o.fault;
    let s = &f.stream;
    let count = |want: StreamStatus| f.statuses.iter().filter(|&&x| x == want).count();
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for pos in 0..f.statuses.len() {
        fnv1a(&mut h, s.admitted_ticks[pos]);
        fnv1a(&mut h, s.completion_ticks[pos]);
        fnv1a(&mut h, f.resolved_ticks[pos]);
        fnv1a(&mut h, status_code(f.statuses[pos]));
        fnv1a(&mut h, f.attempts[pos] as u64);
    }
    for &fill in &s.round_fills {
        fnv1a(&mut h, fill as u64);
    }
    format!(
        "{key} | {} {} {} | {} {} {} {} | {} {} {} {} {} {} | {}/{}/{}/{} | {h:016x}",
        s.rounds(),
        s.fast_forwarded_rounds,
        u8::from(s.double_buffered),
        s.exec_ticks,
        s.transfer_ticks,
        s.overlapped_ticks,
        s.makespan_ticks,
        f.dma_stalls,
        f.transient_faults,
        f.corrupt_payloads,
        f.outage_requeues,
        o.backpressure_shed,
        o.early_closed_rounds,
        count(StreamStatus::Completed),
        count(StreamStatus::TimedOut),
        count(StreamStatus::Shed),
        count(StreamStatus::Failed),
    )
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
fn stream_schedules_match_the_golden_fixture() {
    let designs = [
        ("d2x2m8", design(vec![2, 2], 8, &[200_000, 300_000])),
        // m < 2k: no spare PLM set, overlap falls back to serial.
        ("d4x2m4", design(vec![4, 2], 4, &[200_000, 300_000])),
    ];
    let cfg = SimConfig::default();
    let mut out = String::from(HEADER);
    for (dname, d) in &designs {
        for (aname, arrivals) in &arrival_cases() {
            let specs = online_cases(arrivals.len());
            for capacity in [1, 3, d.config.m] {
                for overlap in [false, true] {
                    for (pname, plan) in &plan_cases() {
                        for (rname, rec) in &recovery_cases() {
                            for (sname, spec) in &specs {
                                let o = simulate_online_stream(
                                    d, &cfg, arrivals, capacity, overlap, plan, rec, spec,
                                );
                                if *sname == "fifo" {
                                    let offline = simulate_faulty_stream(
                                        d, &cfg, arrivals, capacity, overlap, plan, rec,
                                    );
                                    assert_eq!(offline, o.fault);
                                }
                                let key = format!(
                                    "{dname} {aname} c{capacity} o{} {pname} {rname} {sname}",
                                    u8::from(overlap)
                                );
                                out.push_str(&record(&key, &o));
                                out.push('\n');
                            }
                        }
                    }
                }
            }
        }
    }
    check("stream_golden.txt", &out);
}

#[test]
fn serve_reports_match_the_golden_fixture() {
    let d = design(vec![2, 2], 8, &[200_000, 300_000]);
    let poisson = Arrival::Poisson { rate_rps: 1200.0 };
    let cases: Vec<(&str, Arrival, RuntimeOptions)> = vec![
        ("clean_closed", Arrival::Closed, RuntimeOptions::default()),
        ("poisson", poisson, RuntimeOptions::default()),
        (
            "faults",
            poisson,
            RuntimeOptions {
                faults: FaultPlan::parse("11:transient=0.15,stall=0.3,corrupt=0.1").unwrap(),
                recovery: RecoveryPolicy {
                    max_retries: 2,
                    backoff_s: 0.001,
                    backoff_cap_s: 0.004,
                    deadline_s: Some(0.1),
                },
                ..RuntimeOptions::default()
            },
        ),
        (
            "slo",
            poisson,
            RuntimeOptions {
                online: OnlinePolicy {
                    slo_s: Some(0.03),
                    ..OnlinePolicy::default()
                },
                ..RuntimeOptions::default()
            },
        ),
        (
            "shed",
            Arrival::Closed,
            RuntimeOptions {
                batch: BatchPolicy::Fixed(3),
                online: OnlinePolicy {
                    shed_queue: Some(4),
                    ..OnlinePolicy::default()
                },
                ..RuntimeOptions::default()
            },
        ),
        (
            "tiers",
            poisson,
            RuntimeOptions {
                online: OnlinePolicy {
                    priority_tiers: 2,
                    ..OnlinePolicy::default()
                },
                ..RuntimeOptions::default()
            },
        ),
    ];
    for (name, arrival, opts) in cases {
        let opts = RuntimeOptions { arrival, ..opts };
        let mut requests = generate_timing_requests(opts.requests, &arrival, opts.seed).unwrap();
        let tiers = opts.online.priority_tiers as usize;
        for r in &mut requests {
            r.tier = (r.id % tiers) as u8;
        }
        let report = serve(&d, &[], &[], &[], &requests, &opts).unwrap().report;
        check(&format!("serve_{name}.json"), &report.to_json());
    }
}
