//! Host-time benchmark of the fcc simulator.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! builds one workload from the crates' public APIs, repeats
//! set-up → run → check until `--seconds` have passed, and prints one
//! JSON result line. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` alternates untraced and traced repetitions and reports
//! the per-layer metrics. Every repetition checks the workload's
//! invariants, and the deterministic outputs of all repetitions of one
//! invocation must match exactly.

mod fabric;
mod host;
mod mem;
mod pod;
mod serve;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use fcc_sim::{Histogram, SimTime};

use trace::{Class, Tracer};

/// E13's per-request SLO, applied to every workload's fabric ops.
pub const SLO_NS: f64 = 5000.0;

/// Timed repetitions run even when one takes longer than `--seconds`
/// allows. A first, untimed repetition warms caches and the allocator.
const MIN_REPS: usize = 3;
/// Set-ups timed per repetition; all but the last are dropped unrun.
const SETUPS_PER_REP: usize = 5;

/// The deterministic facts of one repetition: what the model did.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Outcome {
    pub attempted: u64,
    pub completed: u64,
    /// Lost objects, lost updates and the like, found by the checks.
    pub lost: u64,
    /// Invariants that did not hold.
    pub failures: Vec<String>,
    pub events: u64,
    pub shard_events: Vec<u64>,
    pub shard_end: Vec<SimTime>,
    pub sim_p99_ns: f64,
    pub sim_ops_per_us: f64,
    pub sim_slo_attain: f64,
    /// Public counters of the layers, summed over the topology.
    pub counters: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn fail(&mut self, what: String) {
        self.failures.push(what);
    }

    pub fn add(&mut self, name: &'static str, v: u64) {
        *self.counters.entry(name).or_default() += v as f64;
    }

    fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Ops that count as failed: all of them when an invariant broke.
    fn failed(&self) -> u64 {
        if self.failures.is_empty() {
            self.attempted - self.completed + self.lost
        } else {
            self.attempted
        }
    }
}

/// One workload instance, built by its module's `build(seed)`.
pub trait Scenario {
    /// Runs from the first event to quiescence.
    fn run(&mut self);
    /// Runs like [`Scenario::run`] under the tracer.
    fn run_traced(&mut self, tracer: &mut Tracer);
    /// Checks the invariants and harvests the deterministic outputs.
    fn check(&self) -> Outcome;
}

/// Share of the histogram's samples at or below `limit_ns` (to the
/// histogram's bucket resolution).
pub fn attainment(h: &Histogram, limit_ns: f64) -> f64 {
    let n = h.count();
    if n == 0 {
        return 0.0;
    }
    let limit = (limit_ns * 1e3) as u64;
    let (mut lo, mut hi) = (0u64, n); // samples within: in [lo, hi]
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        if h.quantile((mid as f64 - 0.5) / n as f64) <= limit {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    lo as f64 / n as f64
}

const WORKLOADS: [&str; 3] = ["pod-wormhole", "serve-diurnal", "mem-hierarchy"];

fn build(workload: &str, seed: u64) -> Box<dyn Scenario> {
    match workload {
        "pod-wormhole" => Box::new(pod::Pod::build(seed)),
        "serve-diurnal" => Box::new(serve::Serve::build(seed)),
        "mem-hierarchy" => Box::new(mem::Mem::build(seed)),
        other => unreachable!("workload {other} was validated"),
    }
}

/// Host times and outcome of one repetition.
struct Rep {
    setups: Vec<Duration>,
    run: Duration,
    cpu: Duration,
    check: Duration,
    out: Outcome,
}

fn rep(workload: &str, seed: u64, tracer: Option<&mut Tracer>) -> Rep {
    let mut setups = Vec::new();
    let mut sc = None;
    for _ in 0..SETUPS_PER_REP {
        drop(sc.take());
        let t = Instant::now();
        sc = Some(build(workload, seed));
        setups.push(t.elapsed());
    }
    let mut sc = sc.expect("SETUPS_PER_REP is positive");
    let cpu0 = host::process_cpu();
    let t = Instant::now();
    match tracer {
        Some(tr) => sc.run_traced(tr),
        None => sc.run(),
    }
    let run = t.elapsed();
    let cpu = host::process_cpu() - cpu0;
    let t = Instant::now();
    let out = sc.check();
    let check = t.elapsed();
    Rep {
        setups,
        run,
        cpu,
        check,
        out,
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

fn med(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> f64 {
    median(reps.iter().map(f).collect())
}

fn setup_s(reps: &[Rep]) -> f64 {
    median(
        reps.iter()
            .flat_map(|r| r.setups.iter().map(Duration::as_secs_f64))
            .collect(),
    )
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Differences between two outcomes' deterministic outputs.
fn mismatch(a: &Outcome, b: &Outcome) -> Option<String> {
    let fields = [
        ("events", a.events == b.events),
        ("attempted", a.attempted == b.attempted),
        ("completed", a.completed == b.completed),
        ("lost", a.lost == b.lost),
        ("sim_p99_ns", a.sim_p99_ns == b.sim_p99_ns),
        ("sim_ops_per_us", a.sim_ops_per_us == b.sim_ops_per_us),
        ("sim_slo_attain", a.sim_slo_attain == b.sim_slo_attain),
        ("counters", a.counters == b.counters),
        ("shard_events", a.shard_events == b.shard_events),
    ];
    let bad: Vec<_> = fields.iter().filter(|f| !f.1).map(|f| f.0).collect();
    (!bad.is_empty()).then(|| bad.join(","))
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

fn end_to_end(reps: &[Rep], ok_frac: f64) -> Metrics {
    let o = &reps[0].out;
    vec![
        ("run_s", med(reps, |r| r.run.as_secs_f64()), "s"),
        ("cpu_s", med(reps, |r| r.cpu.as_secs_f64()), "s"),
        (
            "ops_per_s",
            med(reps, |r| r.out.completed as f64 / r.run.as_secs_f64()),
            "1/s",
        ),
        ("setup_s", setup_s(reps), "s"),
        ("peak_rss_mb", host::peak_rss_mib(), "MiB"),
        ("ok_frac", ok_frac, "fraction"),
        ("sim_p99_ns", o.sim_p99_ns, "ns"),
        ("sim_ops_per_us", o.sim_ops_per_us, "1/us"),
        ("sim_slo_attain", o.sim_slo_attain, "fraction"),
    ]
}

fn per_layer(plain: &[Rep], traced: &[Rep], tr: &Tracer, traced_wall_ns: f64) -> Metrics {
    let o = &plain[0].out;
    let n = traced.len() as f64;
    let c = |name: &str| o.counter(name);
    let share = |class: Class| ratio(tr.class(class).ns as f64, traced_wall_ns);
    let sampler = tr.class(Class::Sampler).events as f64 / n;
    let switch = tr.class(Class::Switch);
    let shards = &o.shard_events;
    let max_over_mean = match shards.iter().max() {
        Some(&max) => ratio(max as f64 * shards.len() as f64, o.events as f64),
        None => 0.0,
    };
    let admitted = c("sched.admitted");
    vec![
        ("sim.engine.events", o.events as f64, "count"),
        (
            "sim.engine.ns_per_event",
            ratio(med(plain, |r| r.run.as_secs_f64()) * 1e9, o.events as f64),
            "ns",
        ),
        (
            "sim.engine.events_per_step",
            ratio(o.events as f64, tr.steps as f64 / n - sampler),
            "ratio",
        ),
        ("sim.shard.events_max_over_mean", max_over_mean, "ratio"),
        (
            "sim.shard.cross_msgs_per_op",
            ratio(c("sim.shard.relayed_out"), o.completed as f64),
            "1/op",
        ),
        ("fabric.switch.events", switch.events as f64 / n, "count"),
        (
            "fabric.switch.forwarded",
            c("fabric.switch.forwarded"),
            "count",
        ),
        (
            "fabric.switch.kicks_per_flit",
            ratio(
                tr.payload(Class::Switch, "Kick").events as f64,
                tr.payload(Class::Switch, "FlitMsg").events as f64,
            ),
            "ratio",
        ),
        ("fabric.switch.host_share", share(Class::Switch), "fraction"),
        (
            "fabric.switch.ns_per_event",
            ratio(switch.ns as f64, switch.events as f64),
            "ns",
        ),
        (
            "fabric.switch.queue_wait_ns",
            ratio(
                c("fabric.switch.queue_delay_ps") / 1e3,
                c("fabric.switch.forwarded"),
            ),
            "ns",
        ),
        (
            "fabric.switch.unroutable",
            c("fabric.switch.unroutable"),
            "count",
        ),
        (
            "fabric.wormhole.vc_violations",
            c("fabric.wormhole.vc_violations"),
            "count",
        ),
        (
            "fabric.adapter.events",
            tr.class(Class::Adapter).events as f64 / n,
            "count",
        ),
        (
            "fabric.adapter.host_share",
            share(Class::Adapter),
            "fraction",
        ),
        (
            "proto.link.flits_per_op",
            ratio(c("proto.link.tx_flits"), o.completed as f64),
            "1/op",
        ),
        ("memnode.serviced", c("memnode.serviced"), "count"),
        ("memnode.host_share", share(Class::Device), "fraction"),
        (
            "cache.l1_hit_ratio",
            ratio(c("cache.l1_hits"), o.completed as f64),
            "fraction",
        ),
        (
            "cache.l2_hit_ratio",
            ratio(c("cache.l2_hits"), o.completed as f64),
            "fraction",
        ),
        ("cache.prefetches", c("cache.prefetches"), "count"),
        ("cache.host_share", share(Class::Cache), "fraction"),
        ("sched.admitted", admitted, "count"),
        ("sched.deferred", c("sched.deferred"), "count"),
        (
            "sched.admit_ratio",
            ratio(admitted, admitted + c("sched.deferred")),
            "fraction",
        ),
        ("core.etrans.completed", c("core.etrans.completed"), "count"),
        ("core.etrans.rejected", c("core.etrans.rejected"), "count"),
        ("core.faa.ctx_switches", c("core.faa.ctx_switches"), "count"),
        ("serve.gets", c("serve.gets"), "count"),
        ("serve.puts", c("serve.puts"), "count"),
        (
            "serve.hit_ratio",
            ratio(c("serve.hits"), c("serve.hits") + c("serve.misses")),
            "fraction",
        ),
        ("serve.failed", c("serve.failed"), "count"),
        ("phase.build_s", setup_s(plain), "s"),
        ("phase.check_s", med(plain, |r| r.check.as_secs_f64()), "s"),
        (
            "telemetry.traced_over_untraced",
            ratio(
                med(traced, |r| r.run.as_secs_f64()),
                med(plain, |r| r.run.as_secs_f64()),
            ),
            "ratio",
        ),
        (
            "telemetry.attributed_share",
            ratio(tr.attributed_ns as f64, traced_wall_ns),
            "fraction",
        ),
    ]
}

/// The trace's breakdown by class and payload, for the log.
fn trace_detail(tr: &Tracer, o: &Outcome, reps: usize) -> String {
    let mut s = String::from("{\"by_class_payload\": {");
    for (i, ((class, payload), cost)) in tr.costs.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}.{payload}\": {{\"events\": {}, \"host_ns\": {}}}",
            class.name(),
            cost.events / reps as u64,
            cost.ns / reps as u64
        );
    }
    let _ = write!(
        s,
        "}}, \"shard_events\": {:?}, \"relayed_out\": {}, \"ring_uncovered\": {}}}",
        o.shard_events,
        o.counter("sim.shard.relayed_out"),
        tr.uncovered
    );
    s
}

fn json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad.clone())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad.clone())?,
            "--trace" => trace = value.parse::<u8>().map_err(|_| bad.clone())? == 1,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600]: {seconds}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut tracer = Tracer::default();
    let mut traced_wall_ns = 0.0;
    // Repeat until the next repetition would overrun the budget.
    // `plain[0]` is the warm-up: checked, but left out of the timings.
    loop {
        let t = Instant::now();
        let p = rep(&args.workload, args.seed, None);
        if args.trace {
            tracer.end_hint.clone_from(&p.out.shard_end);
            let tr = rep(&args.workload, args.seed, Some(&mut tracer));
            traced_wall_ns += tr.run.as_nanos() as f64;
            traced.push(tr);
        }
        plain.push(p);
        let took = t.elapsed();
        if plain.len() > MIN_REPS && start.elapsed() + took > budget {
            break;
        }
    }
    let all: Vec<&Rep> = plain.iter().chain(&traced).collect();
    let mut failures: Vec<String> = Vec::new();
    for (i, r) in all.iter().enumerate() {
        for f in &r.out.failures {
            if !failures.contains(f) {
                failures.push(f.clone());
            }
        }
        let mut r_out = r.out.clone();
        if i >= plain.len() {
            // Sampler closures are events too; the model's must match.
            let s = tracer.class(Class::Sampler).events / traced.len() as u64;
            r_out.events -= s;
            r_out.shard_events.clone_from(&plain[0].out.shard_events);
        }
        if let Some(m) = mismatch(&plain[0].out, &r_out) {
            failures.push(format!("nondeterministic: repetition {i} differs in {m}"));
        }
    }
    for f in &failures {
        eprintln!("perfbench: check failed: {f}");
    }
    let attempted: u64 = all.iter().map(|r| r.out.attempted).sum();
    // A failed invariant fails every op of the run.
    let failed: u64 = if failures.is_empty() {
        all.iter().map(|r| r.out.failed()).sum()
    } else {
        attempted
    };
    let correct = failures.is_empty() && failed == 0 && attempted > 0;
    let timed = &plain[1..];
    let run_s: Vec<f64> = timed.iter().map(|r| r.run.as_secs_f64()).collect();
    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"worker_threads\": 1, \"traced_reps\": {}, \"events\": {}, \"run_s_per_rep\": {run_s:?}}}",
        args.workload,
        args.seed,
        traced.len(),
        plain[0].out.events
    );
    let metrics = if args.trace {
        println!("{}", trace_detail(&tracer, &plain[0].out, traced.len()));
        per_layer(timed, &traced, &tracer, traced_wall_ns)
    } else {
        end_to_end(timed, 1.0 - ratio(failed as f64, attempted as f64))
    };
    println!("{}", json(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
