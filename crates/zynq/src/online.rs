//! The serving round loop: a deterministic virtual-clock event loop in
//! which admission, batch formation, DMA, and completion interleave.
//!
//! Every stream configuration runs through the one loop behind
//! [`simulate_online_stream`] ([`crate::simulate_faulty_stream`] is its
//! FIFO call). Arrivals enter at their arrival tick through an
//! admission queue, so the wait queue only ever holds work that has
//! arrived and is unresolved. Batch formation is a decision point that
//! can wait, close early, reorder by priority, or refuse admission, and
//! the whole thing stays exact integer-tick arithmetic.
//!
//! The hardware is two serially reused resources, the DMA engine and
//! the accelerator chain. Double-buffered, round `r+1`'s inputs load
//! and round `r-1`'s outputs drain while round `r` computes. The serial
//! schedule is the degenerate case: the DMA is held until the round's
//! outputs drain (or until its error or outage tick). Faults from a
//! [`FaultPlan`] perturb rounds as they are walked; failed work
//! re-enters the wait queue under the [`RecoverySpec`]. Board-outage
//! semantics tear down DMA and chain at one tick, so an armed outage
//! forces the serial schedule.
//!
//! Policies layered on the loop (all per [`OnlineSpec`]):
//!
//! * **SLO-aware adaptive batching** — with `slo_ticks` set, a round
//!   below capacity waits for more arrivals while the oldest queued
//!   request's budget still covers a full fault-free round, and closes
//!   early the moment it no longer does. The SLO also acts as the
//!   per-request latency budget: work that cannot complete inside it
//!   is shed at dispatch or timed out at drain, which is what bounds
//!   the completed-set p99 under overload.
//! * **Priority tiers** — `tiers[pos]` classes requests (0 = highest);
//!   batch formation takes eligible requests in `(tier, arrival)`
//!   order, so a high tier preempts queued low-tier work at every
//!   round boundary. Retries keep their tier.
//! * **Backpressure shedding** — with `max_queue` set, an arrival that
//!   finds the wait queue at depth `max_queue` is shed at its own
//!   arrival tick instead of joining (retries are already in the
//!   system and bypass the gate).
//!
//! With every policy disabled (`OnlineSpec::fifo()`), an unarmed fault
//! plan and the serial schedule, the loop ends in the closed-tick
//! fast-forward once nothing is left to admit: the remaining rounds are
//! identical and are placed by multiplication.

use crate::des::Time;
use crate::fault::{FaultPlan, RecoverySpec};
use crate::sim::{program_round, ProgramRound, SimConfig};
use crate::stream::{intervals_intersection, FaultStreamOutcome, StreamOutcome, StreamStatus};
use sysgen::MultiSystemDesign;

/// Serving policy for the round loop.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OnlineSpec {
    /// Per-request latency budget (p99 SLO) in ticks; also arms the
    /// adaptive batcher. `None` = capacity-fill with no budget.
    pub slo_ticks: Option<u64>,
    /// Wait-queue depth beyond which new arrivals are shed. `None` =
    /// unbounded queue.
    pub max_queue: Option<usize>,
    /// Priority tier per arrival-order position (0 = highest). Empty =
    /// one tier (FIFO).
    pub tiers: Vec<u8>,
}

impl OnlineSpec {
    /// The neutral policy: FIFO capacity-fill, no budget, no shedding.
    pub fn fifo() -> OnlineSpec {
        OnlineSpec::default()
    }

    /// Whether any policy deviates from FIFO capacity-fill.
    pub fn armed(&self) -> bool {
        self.slo_ticks.is_some() || self.max_queue.is_some() || self.has_tiers()
    }

    fn has_tiers(&self) -> bool {
        self.tiers.iter().any(|&t| t != 0)
    }

    fn tier_of(&self, pos: usize) -> u8 {
        self.tiers.get(pos).copied().unwrap_or(0)
    }
}

/// [`FaultStreamOutcome`] plus the online policy counters.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineOutcome {
    pub fault: FaultStreamOutcome,
    /// Arrivals shed at admission because the wait queue was full.
    pub backpressure_shed: usize,
    /// Rounds dispatched below capacity because the oldest queued
    /// request's SLO budget could no longer cover another wait.
    pub early_closed_rounds: usize,
}

/// Serve `arrivals` (sorted arrival ticks) on `design` under `plan`,
/// `rec`, and the online policy `spec`.
///
/// `capacity` is clamped to `[1, m]`. `overlap` requests the
/// double-buffered schedule, which runs only if every stage keeps a
/// spare PLM set (`m >= 2·k_i`) and no outage is armed. The effective
/// per-request deadline is the tighter of `rec`'s deadline and the SLO
/// budget.
#[allow(clippy::too_many_arguments)]
pub fn simulate_online_stream(
    design: &MultiSystemDesign,
    cfg: &SimConfig,
    arrivals: &[Time],
    capacity: usize,
    overlap: bool,
    plan: &FaultPlan,
    rec: &RecoverySpec,
    spec: &OnlineSpec,
) -> OnlineOutcome {
    assert!(
        arrivals.windows(2).all(|w| w[0] <= w[1]),
        "arrivals must be sorted"
    );
    assert!(
        spec.tiers.is_empty() || spec.tiers.len() == arrivals.len(),
        "tiers must be empty or one per request"
    );
    let capacity = capacity.clamp(1, design.config.m);
    let round = program_round(design, cfg);
    let double_buffered = overlap
        && plan.outage.is_none()
        && design.config.ks.iter().all(|&k| design.config.m >= 2 * k);
    let rec = RecoverySpec {
        deadline_ticks: match (spec.slo_ticks, rec.deadline_ticks) {
            (Some(s), Some(d)) => Some(s.min(d)),
            (s, d) => s.or(d),
        },
        ..*rec
    };
    RoundLoop {
        round: &round,
        capacity,
        double_buffered,
        plan,
        rec: &rec,
        spec,
        pending: Vec::new(),
        dma_free: 0,
        dma_iv: Vec::new(),
        out: FaultStreamOutcome {
            stream: StreamOutcome {
                admitted_ticks: vec![0; arrivals.len()],
                completion_ticks: vec![0; arrivals.len()],
                round_fills: Vec::new(),
                exec_ticks: 0,
                transfer_ticks: 0,
                overlapped_ticks: 0,
                makespan_ticks: 0,
                fast_forwarded_rounds: 0,
                double_buffered,
            },
            statuses: vec![StreamStatus::Completed; arrivals.len()],
            attempts: vec![0; arrivals.len()],
            resolved_ticks: vec![0; arrivals.len()],
            dma_stalls: 0,
            transient_faults: 0,
            corrupt_payloads: 0,
            outage_requeues: 0,
        },
        backpressure_shed: 0,
    }
    .run(arrivals)
}

/// A request that has arrived and is unresolved (waiting, in flight,
/// or waiting to retry).
#[derive(Debug, Clone, Copy)]
struct Pend {
    /// Arrival-order position (the request's identity in fault draws).
    pos: usize,
    arrival: Time,
    /// Earliest tick the request may join a round (arrival, then
    /// retry-backoff or outage-recovery times).
    eligible: Time,
    attempts: u32,
    failures: u32,
}

impl Pend {
    fn arrived(pos: usize, arrival: Time) -> Pend {
        Pend {
            pos,
            arrival,
            eligible: arrival,
            attempts: 0,
            failures: 0,
        }
    }
}

/// The round loop: its parameters, the wait queue, the DMA engine's
/// clock and busy intervals, and the per-request results.
struct RoundLoop<'a> {
    round: &'a ProgramRound,
    capacity: usize,
    double_buffered: bool,
    plan: &'a FaultPlan,
    rec: &'a RecoverySpec,
    spec: &'a OnlineSpec,
    /// Arrived, unresolved work not in flight, in arrival order.
    pending: Vec<Pend>,
    dma_free: Time,
    dma_iv: Vec<(Time, Time)>,
    out: FaultStreamOutcome,
    backpressure_shed: usize,
}

impl RoundLoop<'_> {
    fn run(mut self, arrivals: &[Time]) -> OnlineOutcome {
        let n = arrivals.len();
        let round = self.round;
        let (plan, spec) = (self.plan, self.spec);
        let exec = round.exec();
        // The neutral serial stream collapses its tail arithmetically;
        // anything that can perturb or reorder a round walks every one.
        let collapse = !self.double_buffered
            && !plan.armed()
            && self.rec.deadline_ticks.is_none()
            && spec.max_queue.is_none()
            && !spec.has_tiers();
        // Arrivals `..admitted` have entered the wait queue.
        let mut admitted = 0usize;
        let mut early_closed_rounds = 0usize;
        let mut chain_iv: Vec<(Time, Time)> = Vec::new();
        let mut chain_free: Time = 0;
        // The round whose outputs still wait to drain (double-buffered
        // only): (exec_done, its requests).
        let mut in_flight: Option<(Time, Vec<Pend>)> = None;
        let mut round_idx: u64 = 0;
        // While the loop idles (SLO wait, or a queue of work that is not
        // yet eligible), the decision point is pinned forward of every
        // already-known event; reset at each dispatch.
        let mut wait_floor: Time = 0;
        loop {
            let Some(t_min) = self.next_event(arrivals.get(admitted)) else {
                // Nothing waits or is still to arrive: drain the last
                // round (which may requeue corrupted payloads).
                match in_flight.take() {
                    Some((ready, ents)) => self.drain(ready, ents),
                    None => break,
                }
                continue;
            };
            let t_min = t_min.max(wait_floor);
            // Sparse queue: drain a finished round if it fits before the
            // next load could even start — the DMA must not idle on a
            // finished round just because the queue is empty.
            let dma_free = self.dma_free;
            if let Some((ready, ents)) =
                in_flight.take_if(|(ready, _)| (*ready).max(dma_free) + round.t_out <= t_min)
            {
                self.drain(ready, ents);
                continue;
            }
            let mut start = self.dma_free.max(t_min);
            // Admission pauses while the board is down; without recovery
            // the rest of the stream sheds at the failure tick.
            if let Some(o) = plan.outage {
                if start >= o.fail_at {
                    match o.recover_at {
                        Some(r) if start < r => start = r,
                        Some(_) => {}
                        None => {
                            // Shed no earlier than the loop's own clock:
                            // the DMA's release or the tick it idled to.
                            let at = self.dma_free.max(wait_floor).max(o.fail_at);
                            self.shed_all(&arrivals[admitted..], admitted, at);
                            break;
                        }
                    }
                }
            }
            // Admit every arrival up to `start`, shedding the ones that
            // find the queue full (at their own arrival tick). Arrival
            // order keeps the queue sorted: retries are older.
            while admitted < n && arrivals[admitted] <= start {
                let p = Pend::arrived(admitted, arrivals[admitted]);
                admitted += 1;
                if spec.max_queue.is_some_and(|q| self.pending.len() >= q) {
                    self.resolve(&p, StreamStatus::Shed, p.arrival);
                    self.backpressure_shed += 1;
                } else {
                    self.pending.push(p);
                }
            }
            if self.pending.is_empty() || self.shed_expired(start) {
                continue;
            }
            // Backpressure can shed the very arrival that set `t_min`;
            // idle until the next eligibility or arrival.
            if self.pending.iter().all(|p| p.eligible > start) {
                wait_floor = self
                    .next_event(arrivals.get(admitted))
                    .expect("the wait queue is not empty");
                continue;
            }
            if collapse && admitted == n {
                self.fast_forward(start);
                break;
            }
            let early = match self.slo_gate(arrivals.get(admitted).copied(), start) {
                Gate::Wait(t) => {
                    wait_floor = t;
                    continue;
                }
                Gate::Dispatch { early } => early,
            };
            let mut ents = self.take_fill(start);
            wait_floor = 0;
            round_idx += 1;
            let t_in = if plan.dma_stalls(round_idx) {
                self.out.dma_stalls += 1;
                2 * round.t_in
            } else {
                round.t_in
            };
            let in_done = start + t_in;
            // Hard failure mid-round (serial schedule): in-flight work is
            // lost at the failure tick. The aborted round bills nothing
            // (its timers died with the board) and does not consume an
            // attempt — the requeue waits for recovery.
            if let Some(o) = plan.outage {
                if o.fail_at > start && o.fail_at <= in_done + exec + round.t_out {
                    self.out.outage_requeues += ents.len();
                    for mut p in ents {
                        p.eligible = o.recover_at.unwrap_or(Time::MAX);
                        self.pending.push(p);
                    }
                    self.pending.sort_by_key(|p| p.pos);
                    self.dma_free = o.fail_at;
                    self.out.stream.makespan_ticks = self.out.stream.makespan_ticks.max(o.fail_at);
                    continue;
                }
            }
            self.dma_free = in_done;
            self.out.stream.transfer_ticks += t_in;
            self.dma_iv.push((start, in_done));
            for p in &mut ents {
                p.attempts += 1;
                self.out.stream.admitted_ticks[p.pos] = start;
            }
            self.out.stream.round_fills.push(ents.len());
            if early {
                early_closed_rounds += 1;
            }
            let exec_start = in_done.max(chain_free);
            let exec_done = exec_start + exec;
            chain_free = exec_done;
            self.out.stream.exec_ticks += exec;
            chain_iv.push((exec_start, exec_done));
            self.out.stream.makespan_ticks = self.out.stream.makespan_ticks.max(exec_done);
            // Drain the previous round's outputs while this one executes.
            if let Some((ready, prev)) = in_flight.take() {
                self.drain(ready, prev);
            }
            if plan.round_fails(round_idx) {
                // Transient error at the error interrupt (end of
                // execution): no drain, the round's payloads are lost.
                self.out.transient_faults += 1;
                if !self.double_buffered {
                    self.dma_free = exec_done;
                }
                let mut requeued = false;
                for p in ents {
                    requeued |= self.retry_or_fail(p, exec_done);
                }
                if requeued {
                    self.pending.sort_by_key(|p| p.pos);
                }
            } else if self.double_buffered {
                in_flight = Some((exec_done, ents));
            } else {
                self.drain(exec_done, ents);
            }
        }
        self.out.stream.overlapped_ticks = intervals_intersection(&self.dma_iv, &chain_iv);
        OnlineOutcome {
            fault: self.out,
            backpressure_shed: self.backpressure_shed,
            early_closed_rounds,
        }
    }

    /// The earliest tick anything can happen: a queued request becomes
    /// eligible or the next arrival lands. `None` once both are empty.
    fn next_event(&self, next_arrival: Option<&Time>) -> Option<Time> {
        let eligible = self.pending.iter().map(|p| p.eligible);
        eligible.chain(next_arrival.copied()).min()
    }

    /// Record a request's terminal state.
    fn resolve(&mut self, p: &Pend, status: StreamStatus, at: Time) {
        self.out.statuses[p.pos] = status;
        self.out.attempts[p.pos] = p.attempts;
        self.out.resolved_ticks[p.pos] = at;
        self.out.stream.completion_ticks[p.pos] = at;
        self.out.stream.makespan_ticks = self.out.stream.makespan_ticks.max(at);
    }

    /// Charge a failed attempt at `at`: the request fails for good once
    /// its retries are spent, else it waits out its backoff. Returns
    /// whether it went back into the wait queue.
    fn retry_or_fail(&mut self, mut p: Pend, at: Time) -> bool {
        p.failures += 1;
        if p.failures > self.rec.max_retries {
            self.resolve(&p, StreamStatus::Failed, at);
            false
        } else {
            p.eligible = at + self.rec.backoff_after(p.failures);
            self.pending.push(p);
            true
        }
    }

    /// The board died for good at `at`: shed the wait queue, and every
    /// arrival not yet admitted (`unadmitted`, starting at position
    /// `first`). Under a queue bound those arrivals count as backpressure
    /// and are shed no earlier than their own arrival.
    fn shed_all(&mut self, unadmitted: &[Time], first: usize, at: Time) {
        for p in std::mem::take(&mut self.pending) {
            self.resolve(&p, StreamStatus::Shed, at);
        }
        for (pos, &arrival) in (first..).zip(unadmitted) {
            let t = if self.spec.max_queue.is_some() {
                self.backpressure_shed += 1;
                at.max(arrival)
            } else {
                at
            };
            self.resolve(&Pend::arrived(pos, arrival), StreamStatus::Shed, t);
        }
    }

    /// Closed-tick fast-forward: the whole remaining backlog is queued
    /// and eligible at `start`, so the remaining rounds are identical —
    /// place them arithmetically instead of walking them.
    fn fast_forward(&mut self, start: Time) {
        let (rt, capacity) = (self.round.total(), self.capacity);
        let queue = std::mem::take(&mut self.pending);
        let (full, rest) = (queue.len() / capacity, queue.len() % capacity);
        let rounds = full + usize::from(rest > 0);
        let stream = &mut self.out.stream;
        stream
            .round_fills
            .extend(std::iter::repeat_n(capacity, full));
        stream.round_fills.extend((rest > 0).then_some(rest));
        stream.exec_ticks += rounds as u64 * self.round.exec();
        stream.transfer_ticks += rounds as u64 * (self.round.t_in + self.round.t_out);
        stream.fast_forwarded_rounds = rounds;
        for (i, p) in queue.iter().enumerate() {
            let admitted = start + (i / capacity) as u64 * rt;
            self.out.stream.admitted_ticks[p.pos] = admitted;
            let done = Pend { attempts: 1, ..*p };
            self.resolve(&done, StreamStatus::Completed, admitted + rt);
        }
    }

    /// Drain one finished round's outputs (ready at `ready`): checksum
    /// each payload, resolve the clean ones, requeue (or fail) the
    /// corrupted ones.
    fn drain(&mut self, ready: Time, ents: Vec<Pend>) {
        let out_start = ready.max(self.dma_free);
        let out_done = out_start + self.round.t_out;
        self.dma_free = out_done;
        self.out.stream.transfer_ticks += self.round.t_out;
        self.dma_iv.push((out_start, out_done));
        self.out.stream.makespan_ticks = self.out.stream.makespan_ticks.max(out_done);
        let mut requeued = false;
        for p in ents {
            if self.plan.corrupts(p.pos as u64, p.attempts) {
                self.out.corrupt_payloads += 1;
                requeued |= self.retry_or_fail(p, out_done);
            } else {
                let status = match self.rec.deadline_ticks {
                    Some(d) if out_done > p.arrival.saturating_add(d) => StreamStatus::TimedOut,
                    _ => StreamStatus::Completed,
                };
                self.resolve(&p, status, out_done);
            }
        }
        if requeued {
            // Requeued work keeps its original admission priority.
            self.pending.sort_by_key(|p| p.pos);
        }
    }

    /// Time out every eligible request whose latency budget cannot cover
    /// even a fault-free round starting at `start`. Returns true if any
    /// request was shed (the caller re-derives its round start).
    fn shed_expired(&mut self, start: Time) -> bool {
        let Some(d) = self.rec.deadline_ticks else {
            return false;
        };
        let rt = self.round.total();
        let late = |p: &Pend| p.eligible <= start && p.arrival.saturating_add(d) < start + rt;
        if !self.pending.iter().any(late) {
            return false;
        }
        let (expired, kept): (Vec<Pend>, Vec<Pend>) = std::mem::take(&mut self.pending)
            .into_iter()
            .partition(late);
        self.pending = kept;
        for p in &expired {
            self.resolve(p, StreamStatus::TimedOut, start);
        }
        true
    }

    /// The SLO batcher: a round below capacity waits while the oldest
    /// eligible request's budget still covers a full fault-free round
    /// starting later, and closes early once it no longer does.
    fn slo_gate(&self, next_arrival: Option<Time>, start: Time) -> Gate {
        let Some(slo) = self.spec.slo_ticks else {
            return Gate::Dispatch { early: false };
        };
        let pending = &self.pending;
        let eligible = pending.iter().filter(|p| p.eligible <= start).count();
        if eligible >= self.capacity {
            return Gate::Dispatch { early: false };
        }
        // The next event that could grow the batch.
        let next_t = pending
            .iter()
            .filter(|p| p.eligible > start)
            .map(|p| p.eligible)
            .chain(next_arrival)
            .min();
        let Some(next_t) = next_t else {
            // Tail of the stream: nothing else is coming, dispatch.
            return Gate::Dispatch { early: false };
        };
        let oldest = pending
            .iter()
            .filter(|p| p.eligible <= start)
            .map(|p| p.arrival)
            .min()
            .expect("gate runs only with at least one eligible request");
        let latest_safe = oldest
            .saturating_add(slo)
            .saturating_sub(self.round.total());
        if start >= latest_safe {
            return Gate::Dispatch { early: true };
        }
        Gate::Wait(next_t.min(latest_safe))
    }

    /// Pull the round's requests out of the wait queue: eligible work in
    /// `(tier, arrival)` order up to `capacity`, returned in arrival
    /// order.
    fn take_fill(&mut self, start: Time) -> Vec<Pend> {
        let spec = self.spec;
        let eligible = self.pending.iter().filter(|p| p.eligible <= start);
        let mut chosen: Vec<usize> = if spec.has_tiers() {
            let mut by_tier: Vec<(u8, usize)> =
                eligible.map(|p| (spec.tier_of(p.pos), p.pos)).collect();
            by_tier.sort_unstable();
            by_tier.truncate(self.capacity);
            by_tier.into_iter().map(|(_, pos)| pos).collect()
        } else {
            eligible.take(self.capacity).map(|p| p.pos).collect()
        };
        chosen.sort_unstable();
        // One pass: the queue and `chosen` are both in arrival order.
        let mut ents = Vec::with_capacity(chosen.len());
        let mut next = chosen.into_iter().peekable();
        self.pending.retain(|p| {
            let take = next.peek() == Some(&p.pos);
            if take {
                next.next();
                ents.push(*p);
            }
            !take
        });
        ents
    }
}

/// Batch-formation verdict at one decision point.
enum Gate {
    /// Form the round now; `early` marks an SLO-forced below-capacity
    /// close with more work still on the way.
    Dispatch { early: bool },
    /// Idle until `t` (a future arrival/eligibility or the close
    /// budget, whichever is nearer) and re-evaluate.
    Wait(Time),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::des::secs;
    use crate::fault::Outage;
    use sysgen::Platform;

    fn design() -> MultiSystemDesign {
        let platform = Platform::zcu106();
        let stages: Vec<(String, hls::HlsReport)> = [200_000u64, 300_000]
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
        let cfg = sysgen::ProgramSystemConfig {
            ks: vec![2, 2],
            m: 8,
        };
        let host = sysgen::ProgramHostProgram {
            config: cfg.clone(),
            stage_names: stages.iter().map(|(n, _)| n.clone()).collect(),
            bytes_in_per_element: (121 + 2 * 1331) * 8,
            bytes_out_per_element: 1331 * 8,
            handoff_bytes_per_element: 0,
        };
        MultiSystemDesign::build(&platform, &stages, &memory, cfg, host).unwrap()
    }

    fn poisson_like(n: usize, gap: Time) -> Vec<Time> {
        // Deterministic "bursty" arrivals: pairs arrive together, pairs
        // separated by `gap`.
        (0..n).map(|i| (i as Time / 2) * gap).collect()
    }

    #[test]
    fn slo_budget_bounds_completed_latency_under_overload() {
        let d = design();
        let cfg = SimConfig::default();
        // Everyone arrives at once: far more work than one round's SLO
        // can cover.
        let arrivals = vec![0; 48];
        let rt = program_round(&d, &cfg).total();
        let slo = 3 * rt;
        let spec = OnlineSpec {
            slo_ticks: Some(slo),
            ..OnlineSpec::fifo()
        };
        let out = simulate_online_stream(
            &d,
            &cfg,
            &arrivals,
            4,
            false,
            &FaultPlan::none(),
            &RecoverySpec::default(),
            &spec,
        );
        let mut completed = 0;
        let mut timed_out = 0;
        for (pos, s) in out.fault.statuses.iter().enumerate() {
            match s {
                StreamStatus::Completed => {
                    completed += 1;
                    assert!(out.fault.stream.completion_ticks[pos] <= slo);
                }
                StreamStatus::TimedOut => timed_out += 1,
                other => panic!("unexpected status {other:?}"),
            }
        }
        assert!(completed > 0, "some requests beat the budget");
        assert!(timed_out > 0, "overload must time the tail out");
    }

    #[test]
    fn slo_batcher_waits_to_fill_and_closes_early() {
        let d = design();
        let cfg = SimConfig::default();
        let rt = program_round(&d, &cfg).total();
        // Second request lands well inside the first one's budget: the
        // batcher waits, coalesces both into one round, and still makes
        // the deadline. Capacity-fill would burn two rounds.
        let arrivals = vec![0, rt / 2];
        let spec = OnlineSpec {
            slo_ticks: Some(4 * rt),
            ..OnlineSpec::fifo()
        };
        let out = simulate_online_stream(
            &d,
            &cfg,
            &arrivals,
            4,
            false,
            &FaultPlan::none(),
            &RecoverySpec::default(),
            &spec,
        );
        assert_eq!(out.fault.stream.round_fills, vec![2]);
        let fifo = simulate_online_stream(
            &d,
            &cfg,
            &arrivals,
            4,
            false,
            &FaultPlan::none(),
            &RecoverySpec::default(),
            &OnlineSpec::fifo(),
        );
        assert_eq!(fifo.fault.stream.round_fills, vec![1, 1]);
        // A second arrival past the close budget forces an early,
        // below-capacity round; both requests still make their budgets.
        let tight = OnlineSpec {
            slo_ticks: Some(2 * rt),
            ..OnlineSpec::fifo()
        };
        let out = simulate_online_stream(
            &d,
            &cfg,
            &[0, 3 * rt / 2],
            4,
            false,
            &FaultPlan::none(),
            &RecoverySpec::default(),
            &tight,
        );
        assert_eq!(out.fault.stream.round_fills, vec![1, 1]);
        assert!(out.early_closed_rounds >= 1);
        assert!(out
            .fault
            .statuses
            .iter()
            .all(|s| *s == StreamStatus::Completed));
    }

    #[test]
    fn priority_tiers_preempt_at_round_boundaries() {
        let d = design();
        let cfg = SimConfig::default();
        let arrivals = vec![0; 6];
        let spec = OnlineSpec {
            tiers: vec![1, 1, 1, 0, 0, 0],
            ..OnlineSpec::fifo()
        };
        let out = simulate_online_stream(
            &d,
            &cfg,
            &arrivals,
            3,
            false,
            &FaultPlan::none(),
            &RecoverySpec::default(),
            &spec,
        );
        let adm = &out.fault.stream.admitted_ticks;
        // Tier 0 (positions 3..6) rides the first round.
        assert!(adm[3] < adm[0] && adm[4] < adm[1] && adm[5] < adm[2]);
        assert!(out
            .fault
            .statuses
            .iter()
            .all(|s| *s == StreamStatus::Completed));
    }

    #[test]
    fn backpressure_sheds_arrivals_beyond_the_queue_bound() {
        let d = design();
        let cfg = SimConfig::default();
        let arrivals = vec![0; 10];
        let spec = OnlineSpec {
            max_queue: Some(2),
            ..OnlineSpec::fifo()
        };
        let out = simulate_online_stream(
            &d,
            &cfg,
            &arrivals,
            1,
            false,
            &FaultPlan::none(),
            &RecoverySpec::default(),
            &spec,
        );
        assert_eq!(out.backpressure_shed, 8);
        let shed = out
            .fault
            .statuses
            .iter()
            .filter(|s| **s == StreamStatus::Shed)
            .count();
        assert_eq!(shed, 8);
        let completed = out
            .fault
            .statuses
            .iter()
            .filter(|s| **s == StreamStatus::Completed)
            .count();
        assert_eq!(completed, 2);
    }

    #[test]
    fn outage_without_recovery_sheds_unadmitted_arrivals_too() {
        let d = design();
        let cfg = SimConfig::default();
        let arrivals: Vec<Time> = (0..8).map(|i| i * secs(0.01)).collect();
        let plan = FaultPlan {
            outage: Some(Outage {
                fail_at: secs(0.015),
                recover_at: None,
            }),
            ..FaultPlan::none()
        };
        let spec = OnlineSpec {
            max_queue: Some(4),
            ..OnlineSpec::fifo()
        };
        let out = simulate_online_stream(
            &d,
            &cfg,
            &arrivals,
            2,
            true,
            &plan,
            &RecoverySpec::default(),
            &spec,
        );
        assert_eq!(out.fault.statuses.len(), 8);
        assert!(out.fault.statuses.contains(&StreamStatus::Shed));
        // Every request resolved one way or another.
        assert!(out
            .fault
            .statuses
            .iter()
            .all(|s| matches!(s, StreamStatus::Completed | StreamStatus::Shed)));
    }

    #[test]
    fn online_replays_identically() {
        let d = design();
        let cfg = SimConfig::default();
        let arrivals = poisson_like(16, secs(0.0002));
        let spec = OnlineSpec {
            slo_ticks: Some(secs(0.01)),
            max_queue: Some(8),
            tiers: (0..16).map(|i| (i % 2) as u8).collect(),
        };
        let plan = FaultPlan::parse("5:transient=0.1,corrupt=0.1").unwrap();
        let rec = RecoverySpec::default();
        let a = simulate_online_stream(&d, &cfg, &arrivals, 3, true, &plan, &rec, &spec);
        let b = simulate_online_stream(&d, &cfg, &arrivals, 3, true, &plan, &rec, &spec);
        assert_eq!(a, b);
    }
}
