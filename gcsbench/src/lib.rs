//! The repository benchmark: named open-loop workloads on both backends,
//! every output checked, end-to-end and per-layer metrics printed as one
//! JSON line.
//!
//! ```text
//! gcsbench --workload <name> --seed <n> --seconds <s> [--spans <file>]
//! ```
//!
//! The program prints every metric it measured; `run.py` selects the
//! end-to-end or the per-layer set. The `gcsbench-traced` binary is the
//! same program with the counting allocator installed and spans recorded
//! around every call into the system.

pub mod calib;
pub mod drive;
pub mod ops;
pub mod os;
pub mod spans;
pub mod stats;

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use gcs_api::{Backend, StackKind, WireMode};

use drive::{run_trial, Stop, TrialOut, Window, Workload, KINDS, THREAD_PREFIXES};
use ops::mix;
use spans::Spans;
use stats::{median, quantile};

#[allow(clippy::too_many_arguments)]
const fn workload(
    name: &'static str,
    backend: Backend,
    wire: WireMode,
    stack: StackKind,
    members: usize,
    rate: u64,
    payload: usize,
    failover: bool,
) -> Workload {
    Workload {
        name,
        backend,
        wire,
        stack,
        members,
        rate,
        payload,
        failover,
    }
}

use Backend::{Live, Sim};
use StackKind::{Isis, NewArch, Token};
use WireMode::{Channel, Tcp};

/// Every workload `--workload` accepts.
pub const WORKLOADS: [Workload; 6] = [
    workload("live-abcast", Live, Channel, NewArch, 4, 12_000, 16, false),
    workload("live-tcp", Live, Tcp, NewArch, 4, 2_000, 16, false),
    workload(
        "sim-scale-64",
        Sim,
        Channel,
        NewArch,
        64,
        2_000,
        1024,
        false,
    ),
    workload(
        "sim-failover-new-arch",
        Sim,
        Channel,
        NewArch,
        5,
        1_000,
        16,
        true,
    ),
    workload("sim-failover-isis", Sim, Channel, Isis, 5, 1_000, 16, true),
    workload(
        "sim-failover-token",
        Sim,
        Channel,
        Token,
        5,
        1_000,
        16,
        true,
    ),
];

/// Extra group builds timed (and torn down) before a live run, so
/// `setup_s` rests on many builds.
const SETUP_BUILDS: usize = 20;
/// Length of a live trial: a fresh group per trial keeps the recorded
/// trace, and so memory, bounded however long the run.
const LIVE_TRIAL: Duration = Duration::from_secs(5);
/// Simulator trials whose op latencies the run's quantiles pool.
const LATENCY_TRIALS: usize = 20;

/// The trials of one run, every group build it timed, and the reference
/// passes run between its trials.
pub struct Run {
    pub trials: Vec<TrialOut>,
    pub setup_s: Vec<f64>,
    pub passes: calib::Passes,
}

/// Runs trials of `w` until `seconds` of measurement are spent.
pub fn run(w: &Workload, seed: u64, seconds: f64, spans: &mut Spans) -> Result<Run, String> {
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut run = Run {
        trials: Vec::new(),
        setup_s: Vec::new(),
        passes: calib::Passes::default(),
    };
    if w.is_live() {
        for _ in 0..SETUP_BUILDS {
            let t = Instant::now();
            let g = spans.time("build", || w.build(seed));
            run.setup_s.push(t.elapsed().as_secs_f64());
            spans.time("shutdown", || drop(g));
        }
    }
    while run.trials.is_empty() || start.elapsed() < budget {
        run.passes.between_trials();
        let k = run.trials.len();
        let stop = match w.trial_ops() {
            Some(ops) => Stop::Ops(ops),
            None => Stop::Wall(Instant::now() + LIVE_TRIAL.min(budget)),
        };
        let mut trial = run_trial(w, mix(seed ^ (k as u64) << 32), stop, spans)?;
        if k >= LATENCY_TRIALS && !w.is_live() {
            // Virtual latencies depend on the trial seed only; keeping a
            // fixed number of trials' worth holds memory flat.
            trial.latency_ms = Vec::new();
        }
        run.setup_s.push(trial.setup_s);
        run.trials.push(trial);
    }
    run.passes.batch();
    Ok(run)
}

/// One named metric value with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Every metric of a run: the end-to-end set, then (traced runs only) the
/// per-layer set.
pub fn metrics(w: &Workload, run: &Run, spans: &Spans) -> Vec<Metric> {
    let trials = &run.trials;
    let sum = |f: &dyn Fn(&TrialOut) -> f64| trials.iter().map(f).fold(0.0, |a, x| a + x);
    let windows = |f: fn(&Window) -> f64, q: f64| -> f64 {
        quantile(
            trials
                .iter()
                .flat_map(|t| t.windows.iter().map(f))
                .collect(),
            q,
        )
    };
    // Latency: virtual time is immune to load on the machine, so simulator
    // runs pool the ops of their first trials; live runs take the median
    // over windows, so that a burst of outside load moves one window, not
    // the result.
    let latency = |q: f64| -> f64 {
        match (w.is_live(), q < 0.9) {
            (true, true) => windows(|w| w.lat_p50_ms, 0.5),
            (true, false) => windows(|w| w.lat_p99_ms, 0.5),
            (false, _) => quantile(
                trials
                    .iter()
                    .flat_map(|t| t.latency_ms.iter().copied())
                    .collect(),
                q,
            ),
        }
    };
    let ops = sum(&|t| f64::from(t.issued));
    let per_op = |x: f64| x / ops;
    let kind = |prefixes: &[&str], bytes: bool| -> f64 {
        let index = |p: &&str| KINDS.iter().position(|k| k == p).expect("a KINDS prefix");
        let idx: Vec<usize> = prefixes.iter().map(index).collect();
        per_op(sum(&|t| {
            idx.iter()
                .map(|&i| if bytes { t.kinds[i].1 } else { t.kinds[i].0 } as f64)
                .fold(0.0, |a, x| a + x)
        }))
    };
    let live = |x: f64| if w.is_live() { x } else { 0.0 };
    let sim = |x: f64| if w.is_live() { 0.0 } else { x };
    let thread_us = |prefix: &str| {
        let i = THREAD_PREFIXES
            .iter()
            .position(|p| *p == prefix)
            .expect("a thread prefix");
        per_op(sum(&|t| t.thread_cpu_s[i])) * 1e6
    };
    let events = sum(&|t| t.events as f64);
    let generic = sum(&|t| (t.fast + t.ordered) as f64);
    let detect: Vec<f64> = trials.iter().filter_map(|t| t.detect_ms).collect();

    let mut m = Vec::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        m.push(Metric {
            name: name.to_string(),
            value,
            unit,
        })
    };
    // End to end.
    // Outside load only ever adds time, so the lower quartiles of the
    // builds and windows estimate the program's own cost best. Simulator
    // figures are also scaled to the reference machine speed; live ones
    // are not, since a live group's threads slow down differently from the
    // reference kernel run between trials (scaling tripled their spread).
    let scale = if w.is_live() { 1.0 } else { run.passes.scale() };
    put("setup_s", quantile(run.setup_s.clone(), 0.25) * scale, "s");
    put("lat_p50_ms", latency(0.50), "ms");
    put("lat_p99_ms", latency(0.99), "ms");
    let cpu_us_per_op = windows(|w| w.cpu_us_per_op, 0.25);
    put("cpu_us_per_op", cpu_us_per_op * scale, "us");
    let gaps: Vec<f64> = trials
        .iter()
        .flat_map(|t| t.gaps_ms.iter().copied())
        .collect();
    put("outage_ms", median(gaps), "ms");
    put("peak_rss_mb", os::peak_rss_mb(), "MiB");
    // Per layer: the raw CPU and the machine speed behind the calibration.
    put("process.cpu_us_per_op", cpu_us_per_op, "us");
    put(
        "calib.ref_pass_ms",
        quantile(run.passes.times.clone(), 0.25) * 1e3,
        "ms",
    );
    if !spans.enabled() {
        return m;
    }
    // The façade, timed from outside.
    put("api.build_s", spans.median_s("build"), "s");
    put(
        "api.inject_ns_per_op",
        per_op(spans.total_s("inject")) * 1e9,
        "ns",
    );
    put("api.run_s", spans.total_s("run_until"), "s");
    put("api.trace_snapshot_s", spans.total_s("trace_snapshot"), "s");
    let deliveries = sum(&|t| t.deliveries as f64);
    put(
        "api.oracle_ns_per_delivery",
        spans.total_s("oracle") / deliveries * 1e9,
        "ns",
    );
    put("api.shutdown_s", spans.median_s("shutdown"), "s");
    // The runtimes.
    put("sim.events_per_op", sim(per_op(events)), "count");
    put(
        "sim.events_per_s",
        sim(events / spans.total_s("run_until")),
        "1/s",
    );
    put("sim.drops", sum(&|t| t.drops as f64), "count");
    put("live.member_cpu_us_per_op", thread_us("live-member-"), "us");
    put("live.timer_cpu_us_per_op", thread_us("live-timer"), "us");
    put("live.pump_cpu_us_per_op", thread_us("live-pump-"), "us");
    put("live.dispatches_per_op", live(per_op(events)), "count");
    put(
        "live.syscalls_per_op",
        per_op(sum(&|t| t.io.syscalls as f64)),
        "count",
    );
    put(
        "live.io_bytes_per_op",
        per_op(sum(&|t| t.io.bytes as f64)),
        "B",
    );
    let high_water = trials.iter().map(|t| t.queue_high_water).max().unwrap_or(0);
    put("live.queue_high_water", high_water as f64, "count");
    let late: Vec<f64> = trials
        .iter()
        .flat_map(|t| t.gen_late_ms.iter().copied())
        .collect();
    put("live.gen_late_p99_ms", live(quantile(late, 0.99)), "ms");
    // The kernel's payload plane and the allocator.
    let arena_live = trials.iter().map(|t| t.arena_live).max().unwrap_or(0);
    let arena_hw = trials.iter().map(|t| t.arena_high_water).max().unwrap_or(0);
    put("kernel.arena_live", arena_live as f64, "count");
    put("kernel.arena_high_water", arena_hw as f64, "count");
    put(
        "process.allocs_per_op",
        per_op(sum(&|t| t.allocs as f64)),
        "count",
    );
    // Protocol layers, from the per-kind message counters.
    put("fd.msgs_per_op", kind(&["fd/"], false), "count");
    put("fd.bytes_per_op", kind(&["fd/"], true), "B");
    put(
        "fd.detect_ms",
        if detect.is_empty() {
            0.0
        } else {
            median(detect)
        },
        "ms",
    );
    put("net.rc.msgs_per_op", kind(&["rc/"], false), "count");
    put("net.rc.bytes_per_op", kind(&["rc/"], true), "B");
    put(
        "consensus.msgs_per_op",
        kind(&["ct/", "paxos/"], false),
        "count",
    );
    put(
        "consensus.bytes_per_op",
        kind(&["ct/", "paxos/"], true),
        "B",
    );
    put(
        "consensus.nacks",
        kind(&["ct/nack", "paxos/reject"], false) * ops,
        "count",
    );
    put("core.abcast.msgs_per_op", kind(&["ab/"], false), "count");
    put("core.abcast.bytes_per_op", kind(&["ab/"], true), "B");
    put("core.gbcast.msgs_per_op", kind(&["gb/"], false), "count");
    put("core.gbcast.bytes_per_op", kind(&["gb/"], true), "B");
    let fast = sum(&|t| t.fast as f64);
    put(
        "core.gbcast.fast_frac",
        if generic > 0.0 { fast / generic } else { 0.0 },
        "ratio",
    );
    put(
        "core.membership.msgs_per_op",
        kind(&["mon/"], false),
        "count",
    );
    let views = sum(&|t| t.view_changes) / trials.len() as f64;
    put("core.membership.view_changes", views, "count");
    put(
        "traditional.isis.msgs_per_op",
        kind(&["isis/"], false),
        "count",
    );
    put("traditional.isis.bytes_per_op", kind(&["isis/"], true), "B");
    put(
        "traditional.token.msgs_per_op",
        kind(&["token/"], false),
        "count",
    );
    put(
        "traditional.token.bytes_per_op",
        kind(&["token/"], true),
        "B",
    );
    m
}

/// The result line: `correct`, `attempted`, `failed` and every metric.
pub fn result_json(attempted: u64, metrics: &[Metric]) -> String {
    let mut out =
        format!("{{\"correct\": true, \"attempted\": {attempted}, \"failed\": 0, \"metrics\": {{");
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    spans: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let name = get("--workload").ok_or("missing --workload")?;
    let workload = *WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed = get("--seed")
        .unwrap_or("1")
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")
        .unwrap_or("10")
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        spans: get("--spans").map(str::to_string),
    })
}

/// Entry point of both binaries. Exits 2 on bad arguments and 1 when an
/// output check fails, printing no result line in either case.
pub fn main_with(traced: bool) {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("gcsbench: {e}");
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "usage: gcsbench --workload <{}> --seed <n> --seconds <s> [--spans <file>]",
            names.join("|")
        );
        std::process::exit(2);
    });
    let w = args.workload;
    let mut spans = Spans::new(traced);
    let run = run(&w, args.seed, args.seconds, &mut spans).unwrap_or_else(|e| {
        eprintln!("gcsbench: {}: output check failed: {e}", w.name);
        std::process::exit(1);
    });
    let metrics = metrics(&w, &run, &spans);
    if let Some(bad) = metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("gcsbench: {}: metric {} is not a number", w.name, bad.name);
        std::process::exit(1);
    }
    if let Some(path) = args.spans.filter(|_| spans.enabled()) {
        if let Err(e) = std::fs::write(&path, spans.to_json()) {
            eprintln!("gcsbench: writing spans to {path}: {e}");
            std::process::exit(1);
        }
    }
    let attempted: u64 = run.trials.iter().map(|t| u64::from(t.issued)).sum();
    println!("{}", result_json(attempted, &metrics));
}
