//! Spans recorded from outside the program, around calls into its
//! public functions.
//!
//! A span is `(name, start, end, parent, iteration)` in wall time, plus
//! the process CPU time spent inside it. Spans are kept in memory and
//! written out when the run ends. Timing is always taken (the
//! benchmark's end-to-end figures come from the same calls); a span is
//! only *recorded* while the tracer is on, so an untraced iteration
//! allocates nothing here.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::ops::{Add, AddAssign};
use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time of this process, all threads included, in seconds.
///
/// The benchmark's timings use CPU time: on a shared virtual machine,
/// wall time also counts the time the host runs other guests (steal),
/// which moves medians by tens of percent from run to run.
pub fn cpu_now() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec with the C layout
    // (two 64-bit fields on the 64-bit Linux targets this runs on), and
    // clock_gettime writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is always available on Linux");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds the calibration loop takes at the reference machine
/// speed: a normalized time is a CPU time scaled by this over the
/// calibration measured next to it.
pub const CALIBRATION_REF_S: f64 = 0.003;

/// CPU seconds of a fixed piece of work owned by the benchmark:
/// string-keyed map lookups and floating-point loops over small arrays,
/// the mix of the program's hot paths.
///
/// Single-thread speed on a shared virtual machine swings by up to 2x
/// over minutes (other guests on the same cores), CPU time included.
/// Measured next to a call, this loop slows down with it: the ratio of
/// the two stayed within 2% across runs whose raw CPU times differed by
/// 2x.
pub fn calibration_s() -> f64 {
    let start = cpu_now();
    let mut map: HashMap<String, Vec<f64>, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut acc = 0.0f64;
    for i in 0..12_000usize {
        let row = map
            .entry(format!("k{}", i % 512))
            .or_insert_with(|| vec![0.0; 64]);
        for (j, x) in row.iter_mut().enumerate() {
            *x = *x * 0.999 + (i ^ j) as f64 * 1e-3;
            acc += *x;
        }
    }
    std::hint::black_box(acc);
    cpu_now() - start
}

/// The cost of a piece of work: process CPU time and wall time.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cost {
    pub cpu_s: f64,
    pub wall_s: f64,
}

impl Add for Cost {
    type Output = Cost;
    fn add(self, o: Cost) -> Cost {
        Cost {
            cpu_s: self.cpu_s + o.cpu_s,
            wall_s: self.wall_s + o.wall_s,
        }
    }
}

impl AddAssign for Cost {
    fn add_assign(&mut self, o: Cost) {
        *self = *self + o;
    }
}

/// A point in wall and CPU time.
#[derive(Debug, Clone, Copy)]
pub struct Stamp {
    wall: Instant,
    cpu: f64,
}

impl Stamp {
    pub fn now() -> Stamp {
        Stamp {
            wall: Instant::now(),
            cpu: cpu_now(),
        }
    }

    pub fn cost(&self) -> Cost {
        Cost {
            cpu_s: cpu_now() - self.cpu,
            wall_s: self.wall.elapsed().as_secs_f64(),
        }
    }
}

/// Span names whose callee runs several layers internally. Their self
/// time is real work the benchmark cannot split from outside; the
/// report lists them apart from the per-layer self times until the
/// program records its own spans.
pub const OPAQUE: &[&str] = &[
    "cfd-core.compile",
    "dse.prepare",
    "dse.portfolio",
    "cfd-core.serve",
    "runtime.serve_fleet.faulty",
    "runtime.serve_fleet.online",
];

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub cpu_ns: u64,
    pub parent: Option<usize>,
    pub iteration: u64,
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    iteration: u64,
    open: Vec<usize>,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            on: false,
            origin: Instant::now(),
            iteration: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Start attributing spans to iteration `id`.
    pub fn begin_iteration(&mut self, id: u64) {
        self.iteration = id;
    }

    /// Run `f` inside a span called `name`; returns its result and its
    /// cost.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> (T, Cost) {
        let start = Stamp::now();
        if !self.on {
            let out = std::hint::black_box(f(self));
            return (out, start.cost());
        }
        let idx = self.spans.len();
        let start_ns = start.wall.duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            cpu_ns: 0,
            parent: self.open.last().copied(),
            iteration: self.iteration,
        });
        self.open.push(idx);
        let out = std::hint::black_box(f(self));
        let cost = start.cost();
        self.open.pop();
        let span = &mut self.spans[idx];
        span.end_ns = start_ns + (cost.wall_s * 1e9) as u64;
        span.cpu_ns = (cost.cpu_s * 1e9) as u64;
        (out, cost)
    }

    /// CPU self time of every span: its CPU time minus its direct
    /// children's (children never overlap: spans nest on one thread).
    pub fn self_cpu_ns(&self) -> Vec<u64> {
        let mut child: Vec<u64> = vec![0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.cpu_ns;
            }
        }
        self.spans
            .iter()
            .zip(&child)
            .map(|(s, c)| s.cpu_ns.saturating_sub(*c))
            .collect()
    }

    /// Every span as one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"cpu_ns\": {}, \"parent\": {parent}, \"iteration\": {}}}",
                s.name, s.start_ns, s.end_ns, s.cpu_ns, s.iteration
            );
        }
        out
    }
}

/// The layer a span belongs to: its name up to the first `.`.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::new();
        t.set_on(true);
        // Busy for 2 ms of wall time; process CPU time also counts other
        // test threads, so only the wall duration is exact here.
        let spin = || {
            let t = Stamp::now();
            while t.cost().wall_s < 0.002 {}
        };
        t.span("a.outer", |t| {
            t.span("b.inner", |t| {
                t.span("c.leaf", |_| spin());
            });
        });
        let own = t.self_cpu_ns();
        let total: u64 = own.iter().sum();
        assert_eq!(total, t.spans[0].cpu_ns);
        assert_eq!(t.spans[2].parent, Some(1));
        assert!(own[2] > 0);
        assert!(t.spans[2].end_ns - t.spans[2].start_ns >= 2_000_000);
    }

    #[test]
    fn untraced_spans_record_nothing() {
        let mut t = Tracer::new();
        let (v, c) = t.span("a.x", |_| 7);
        assert_eq!(v, 7);
        assert!(c.cpu_s >= 0.0 && c.wall_s >= 0.0);
        assert!(t.spans.is_empty());
    }
}
