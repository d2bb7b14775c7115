//! One trial: build a group, offer an open-loop stream on the group's own
//! clock, drain, and check every delivery. Every call into the system goes
//! through the public façade (`Group::builder()`, `GroupTransport`,
//! `InvariantChecker`), timed by the span recorder.

use std::time::{Duration, Instant};

use gcs_api::{Backend, Group, GroupTransport, InvariantChecker, StackKind, WireMode};
use gcs_core::{DeliveryKind, StackConfig};
use gcs_kernel::{ProcessId, Time, TimeDelta};
use gcs_replication::bank::{bank_conflicts, BankAccount, BankOp};
use gcs_sim::TraceMode;

use crate::ops::{mix, OpSpec, Schedule};
use crate::os;
use crate::spans::Spans;
use crate::stats::quantile;

/// A named workload: one group shape and one offered stream.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub backend: Backend,
    pub wire: WireMode,
    pub stack: StackKind,
    pub members: usize,
    /// Offered ops per second (of the group's clock).
    pub rate: u64,
    pub payload: usize,
    /// Failover trials: p0 never sends and crashes in every trial; the
    /// stream is the §4.2 bank mix.
    pub failover: bool,
}

/// The victim crashes 150..250 ms into each failover trial.
const CRASH_FROM_MS: u64 = 150;
const CRASH_SPREAD_MS: u64 = 100;
/// Opening balance of every replica's account on the bank workloads.
const OPENING_BALANCE: u64 = 1_000;
/// Window length of a live trial (at least 1000 ops at either live rate,
/// so each window's p99 has ten samples beyond it).
const LIVE_WINDOW: TimeDelta = TimeDelta::from_millis(500);
/// Window length, in virtual time, of a no-fault simulator trial.
const SIM_WINDOW: TimeDelta = TimeDelta::from_millis(50);
/// Slice of a no-fault stream whose longest completion gap is taken.
const GAP_SLICE: TimeDelta = TimeDelta::from_millis(100);
/// Virtual-time slice the simulator generator advances by.
const SIM_SLICE: TimeDelta = TimeDelta::from_millis(10);
/// How long after the last due op the drain may run (group clock).
const DRAIN_LIMIT: TimeDelta = TimeDelta::from_secs(10);
/// A live run whose generator injected more than 1% of its ops later than
/// this after they fell due measured the generator, not the group: the run
/// is invalid. Shorter delays, from a contended machine scheduling the
/// generator late, are charged to each op's latency (timed from its due
/// time); on a loaded 2-vCPU machine they reach a p99 of about 7 ms.
const GEN_LATE_LIMIT_MS: f64 = 50.0;
/// Thread-name prefixes of the live runtime.
pub const THREAD_PREFIXES: [&str; 3] = ["live-member-", "live-timer", "live-pump-"];
/// Message-kind prefixes whose counts the per-layer metrics sum, one per
/// layer (`ct/nack` and `paxos/reject` also count under their protocol).
pub const KINDS: [&str; 11] = [
    "fd/",
    "rc/",
    "ct/",
    "paxos/",
    "ab/",
    "gb/",
    "mon/",
    "isis/",
    "token/",
    "ct/nack",
    "paxos/reject",
];

impl Workload {
    pub fn is_live(&self) -> bool {
        self.backend == Backend::Live
    }

    /// Ops per simulator trial; `None` on the live backend, whose trials
    /// offer a fixed wall time instead. A failover trial offers one second
    /// of stream, room for the crash and the slowest recovery; other
    /// simulator trials a quarter second, so a run spreads over a dozen
    /// fresh groups.
    pub fn trial_ops(&self) -> Option<u32> {
        match self.backend {
            Backend::Sim if self.failover => Some(self.rate as u32),
            Backend::Sim => Some(self.rate as u32 / 4),
            Backend::Live => None,
        }
    }

    pub fn spec(&self, seed: u64) -> OpSpec {
        OpSpec {
            seed,
            size: self.payload,
            first_sender: usize::from(self.failover),
            members: self.members,
            bank: self.failover,
        }
    }

    /// Builds the group this workload runs on.
    pub fn build(&self, seed: u64) -> Group {
        let mut builder = Group::builder()
            .members(self.members)
            .stack(self.stack)
            .backend(self.backend)
            .wire(self.wire)
            .seed(seed)
            .trace(TraceMode::Full);
        if self.stack == StackKind::NewArch {
            let mut cfg = StackConfig::default();
            if self.failover {
                cfg.conflict = bank_conflicts();
                cfg.trace_suspicions = true;
            } else {
                // As `repro live` runs it: exclusions come from faults the
                // workload injects (none here), never from monitoring.
                cfg.monitoring_timeout = TimeDelta::from_secs(3600);
            }
            builder = builder.stack_config(cfg);
        }
        builder.build()
    }
}

/// When the generator stops offering ops.
#[derive(Clone, Copy, Debug)]
pub enum Stop {
    /// Offer until this wall-clock instant.
    Wall(Instant),
    /// Offer exactly this many ops.
    Ops(u32),
}

/// The figures of one window of the stream: a whole failover trial, 50 ms
/// (virtual) of another simulator trial, or half a second of a live trial.
#[derive(Clone, Copy, Debug, Default)]
pub struct Window {
    /// Latency quantiles over the ops due in the window.
    pub lat_p50_ms: f64,
    pub lat_p99_ms: f64,
    /// Process CPU time spent in the window per op due in it.
    pub cpu_us_per_op: f64,
}

/// Everything one trial measured. Counts are totals over the trial.
#[derive(Clone, Debug, Default)]
pub struct TrialOut {
    pub setup_s: f64,
    pub issued: u32,
    /// Latency of each op, from its due time to delivered at every correct
    /// member.
    pub latency_ms: Vec<f64>,
    pub windows: Vec<Window>,
    /// Longest gaps between successive completions: the one after the
    /// crash in a failover trial, else one per 100 ms slice of the stream.
    pub gaps_ms: Vec<f64>,
    pub cpu_s: f64,
    /// CPU seconds per `THREAD_PREFIXES` entry.
    pub thread_cpu_s: [f64; 3],
    pub io: os::Io,
    pub allocs: u64,
    pub events: u64,
    pub gen_late_ms: Vec<f64>,
    pub queue_high_water: usize,
    pub arena_live: usize,
    pub arena_high_water: usize,
    /// Messages and bytes sent per `KINDS` entry.
    pub kinds: [(u64, u64); 11],
    pub drops: u64,
    pub deliveries: usize,
    pub fast: usize,
    pub ordered: usize,
    pub view_changes: f64,
    pub detect_ms: Option<f64>,
}

/// Runs one trial of `w`; `Err` names the first output check that failed.
pub fn run_trial(
    w: &Workload,
    seed: u64,
    stop: Stop,
    spans: &mut Spans,
) -> Result<TrialOut, String> {
    let spec = w.spec(seed);
    let built = Instant::now();
    let mut g = spans.time("build", || w.build(seed));
    let mut out = TrialOut {
        setup_s: built.elapsed().as_secs_f64(),
        ..TrialOut::default()
    };
    let now = |g: &Group| g.as_live().map_or(Time::ZERO, |l| l.now());
    let sched = Schedule::new(now(&g).saturating_add(TimeDelta::from_millis(1)), w.rate);
    let crash = w.failover.then(|| {
        let at = sched.start.saturating_add(TimeDelta::from_millis(
            CRASH_FROM_MS + mix(seed ^ 0xC4A5) % CRASH_SPREAD_MS,
        ));
        g.crash_at(at, ProcessId::new(0));
        at
    });

    let threads0 = os::thread_cpu_s(&THREAD_PREFIXES);
    let io0 = os::io();
    let allocs0 = gcs_bench::alloccount::snapshot().allocs;
    let cpu0 = os::process_cpu_s();
    let done_offering = |issued: u32| match stop {
        Stop::Wall(end) => Instant::now() >= end,
        Stop::Ops(n) => issued >= n,
    };
    let mut issued = 0u32;
    // Process CPU as the generator crosses each window boundary.
    let mut marks = vec![cpu0];
    let inject = |g: &mut Group, spans: &mut Spans, id: u32, at: Time| {
        let sender = spec.sender(id);
        match spec.class(id).filter(|_| g.supports_gbcast()) {
            Some(class) => spans.time("inject", || {
                let payload = g.arena().build(|buf| spec.write(id, buf));
                g.gbcast_ref_at(at, sender, class, payload);
            }),
            None => spans.time("inject", || {
                g.abcast_build_at(at, sender, &mut |buf| spec.write(id, buf))
            }),
        }
    };

    // Offer: each op is injected when it falls due, never queued ahead.
    let window_len = if w.is_live() { LIVE_WINDOW } else { SIM_WINDOW };
    let boundary = |k: usize| {
        sched
            .start
            .saturating_add(window_len.saturating_mul(k as u64))
    };
    let mut cursor = sched.start;
    if w.is_live() {
        while !done_offering(issued) {
            loop {
                let t = now(&g);
                let due = sched.due(issued);
                if due > t || done_offering(issued) {
                    break;
                }
                inject(&mut g, spans, issued, due);
                out.gen_late_ms.push(t.since(due).as_millis_f64());
                issued += 1;
            }
            if now(&g) >= boundary(marks.len()) {
                marks.push(os::process_cpu_s());
            }
            let wait = sched
                .due(issued)
                .as_nanos()
                .saturating_sub(now(&g).as_nanos());
            std::thread::sleep(Duration::from_nanos(wait));
        }
    } else {
        while !done_offering(issued) {
            cursor = cursor.saturating_add(SIM_SLICE);
            while sched.due(issued) < cursor && !matches!(stop, Stop::Ops(n) if issued >= n) {
                inject(&mut g, spans, issued, sched.due(issued));
                issued += 1;
            }
            spans.time("run_until", || g.run_until(cursor));
            if cursor >= boundary(marks.len()) {
                marks.push(os::process_cpu_s());
            }
        }
    }
    out.issued = issued;
    if issued == 0 {
        return Err("the generator offered no op".into());
    }
    let late_p99 = quantile(out.gen_late_ms.clone(), 0.99);
    if late_p99 > GEN_LATE_LIMIT_MS {
        return Err(format!(
            "the generator fell behind: p99 injection lateness {late_p99:.2} ms > {GEN_LATE_LIMIT_MS} ms"
        ));
    }

    // Drain: wait until every op can have reached every correct member.
    let last_due = sched.due(issued - 1);
    let deadline = last_due.saturating_add(DRAIN_LIMIT);
    let correct = w.members - usize::from(w.failover);
    let need = u64::from(issued) * correct as u64;
    let (trace, cpu1, threads1, io1, allocs1) = loop {
        let t = if w.is_live() { now(&g) } else { cursor };
        if g.delivery_count() >= need || t >= deadline {
            // Refresh the live metrics snapshot, then read the OS counters
            // before observation work starts.
            spans.time("run_until", || g.run_until(t));
            let cpu1 = os::process_cpu_s();
            let threads1 = os::thread_cpu_s(&THREAD_PREFIXES);
            let io1 = os::io();
            let allocs1 = gcs_bench::alloccount::snapshot().allocs;
            let trace = spans.time("trace_snapshot", || g.delivery_trace());
            let alive = g.alive_flags();
            let at_correct = trace.iter().filter(|d| alive[d.proc.index()]).count();
            let delivered_everywhere = at_correct as u64 >= need;
            if delivered_everywhere || t >= deadline {
                break (trace, cpu1, threads1, io1, allocs1);
            }
        }
        if w.is_live() {
            std::thread::sleep(Duration::from_millis(2));
        } else {
            cursor = cursor.saturating_add(SIM_SLICE);
            spans.time("run_until", || g.run_until(cursor));
        }
    };
    out.cpu_s = cpu1 - cpu0;
    out.thread_cpu_s = std::array::from_fn(|i| threads1[i] - threads0[i]);
    out.io = io1.since(io0);
    out.allocs = allocs1 - allocs0;
    out.events = g.events_executed();
    out.queue_high_water = g.queue_high_water();
    out.arena_live = g.arena().live();
    out.arena_high_water = g.arena().capacity();
    let m = g.metrics();
    out.drops = m.dropped_loss() + m.dropped_partition() + m.dropped_crash();
    for (kind, msgs, bytes) in m.by_kind() {
        for (i, prefix) in KINDS.iter().enumerate() {
            if kind.starts_with(prefix) {
                out.kinds[i].0 += msgs;
                out.kinds[i].1 += bytes;
            }
        }
    }

    // Check: payloads byte for byte, exactly once at every correct member.
    let alive = g.alive_flags();
    let correct_mask: u64 = (0..w.members)
        .filter(|&p| alive[p])
        .map(|p| 1u64 << p)
        .sum();
    if correct_mask.count_ones() as usize != correct {
        return Err(format!(
            "{} correct members, expected {correct}",
            correct_mask.count_ones()
        ));
    }
    let mut seen = vec![0u64; issued as usize];
    let mut done = vec![Time::ZERO; issued as usize];
    let mut accounts = vec![BankAccount::with_balance(OPENING_BALANCE); w.members];
    let mut scratch = Vec::with_capacity(w.payload);
    for d in &trace {
        let payload = g.resolve(d.payload);
        let id = spec.verify(&payload, issued, &mut scratch)? as usize;
        let p = d.proc.index();
        if seen[id] & (1 << p) != 0 {
            return Err(format!("op {id} delivered twice at p{p}"));
        }
        seen[id] |= 1 << p;
        if alive[p] {
            done[id] = done[id].max(d.time);
            match d.kind {
                DeliveryKind::GenericFast => out.fast += 1,
                DeliveryKind::GenericOrdered => out.ordered += 1,
                DeliveryKind::Atomic => {}
            }
            if let Some(op) = BankOp::decode(&payload[4..13]).filter(|_| spec.bank) {
                accounts[p].apply(op);
            }
        }
    }
    out.deliveries = trace.len();
    let missing = seen
        .iter()
        .filter(|&&m| m & correct_mask != correct_mask)
        .count();
    if missing > 0 {
        return Err(format!(
            "{missing} of {issued} ops not delivered at every correct member by the drain deadline"
        ));
    }
    let report = spans.time("oracle", || InvariantChecker::check(&g, w.members));
    if let Some(v) = report.violations.first() {
        return Err(format!(
            "invariant oracle: {} violations, first: {v}",
            report.violations.len()
        ));
    }
    let survivors: Vec<usize> = (0..w.members).filter(|&p| alive[p]).collect();
    if w.failover
        && survivors
            .iter()
            .any(|&p| accounts[p] != accounts[survivors[0]])
    {
        let states: Vec<_> = survivors.iter().map(|&p| accounts[p]).collect();
        return Err(format!("bank replicas diverged: {states:?}"));
    }

    // Latency from each op's due time; service gaps between completions.
    out.latency_ms = (0..issued)
        .map(|id| done[id as usize].since(sched.due(id)).as_millis_f64())
        .collect();
    let mut completions = done;
    completions.sort_unstable();
    let end = last_due.saturating_add(TimeDelta::from_nanos(1));
    out.gaps_ms = match crash {
        Some(at) => vec![longest_gap_ms(&completions, at, end)],
        None => (0..end.since(sched.start).as_nanos() / GAP_SLICE.as_nanos())
            .map(|k| {
                let slice = sched.start.saturating_add(GAP_SLICE.saturating_mul(k));
                longest_gap_ms(&completions, slice, slice.saturating_add(GAP_SLICE))
            })
            .collect(),
    };
    let window = |from: Time, to: Time, cpu_s: f64| {
        let ids = sched.ids_in(from, to);
        let lat = &out.latency_ms[ids.start as usize..ids.end as usize];
        Window {
            lat_p50_ms: quantile(lat.to_vec(), 0.50),
            lat_p99_ms: quantile(lat.to_vec(), 0.99),
            cpu_us_per_op: cpu_s * 1e6 / (ids.end - ids.start) as f64,
        }
    };
    // A failover trial is one window: its cost is the recovery's.
    out.windows = if crash.is_some() {
        vec![window(sched.start, end, out.cpu_s)]
    } else {
        marks
            .windows(2)
            .enumerate()
            .map(|(k, cpu)| window(boundary(k), boundary(k + 1), cpu[1] - cpu[0]))
            .collect()
    };
    if out.windows.is_empty() || out.gaps_ms.is_empty() {
        return Err("the run was too short for one whole window".into());
    }

    let founding: Vec<ProcessId> = (0..w.members as u32).map(ProcessId::new).collect();
    let changes: usize = g
        .views()
        .iter()
        .enumerate()
        .filter(|(p, _)| alive[*p])
        .map(|(_, vs)| vs.iter().filter(|v| v.members != founding).count())
        .sum();
    out.view_changes = changes as f64 / survivors.len() as f64;
    if let Some(at) = crash.filter(|_| w.stack == StackKind::NewArch) {
        let mut first = vec![None; w.members];
        for (t, observer, suspect) in g.suspicion_trace() {
            if suspect.index() == 0 && t >= at && first[observer.index()].is_none() {
                first[observer.index()] = Some(t);
            }
        }
        let all: Option<Vec<Time>> = survivors.iter().map(|&p| first[p]).collect();
        out.detect_ms = all
            .and_then(|ts| ts.into_iter().max())
            .map(|t| t.since(at).as_millis_f64());
    }
    spans.time("shutdown", || drop(g));
    Ok(out)
}

/// The longest gap between successive completions that ends inside
/// `(from, to]`, counting the gap that straddles `from`.
fn longest_gap_ms(sorted: &[Time], from: Time, to: Time) -> f64 {
    sorted
        .windows(2)
        .filter(|w| w[1] > from && w[1] <= to)
        .map(|w| w[1].since(w[0]).as_millis_f64())
        .fold(0.0, f64::max)
}
