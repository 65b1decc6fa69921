//! The traced run: attribution of dispatched events, and of host time
//! where the engine can be stepped, to component classes and payloads.
//! Everything here reads the engines' public dispatch-trace ring from
//! outside; nothing inside the simulator is instrumented.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use fcc_sim::{Engine, ShardedEngine, SimTime, TraceEntry};

/// Component classes, by the names the builders give components.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// `fs*`: fabric switches.
    Switch,
    /// `fha*`/`fea*` link and protocol handling.
    Adapter,
    /// `fea*` device responses (`ResponseDue`): the memory node.
    Device,
    /// `core`: the CPU core and its cache hierarchy.
    Cache,
    /// `*.gw*`: shard gateways relaying cross-shard traffic.
    Gateway,
    /// `etrans-*`, `faa-*`, `mig-*`: the fcc-core transaction stack.
    CoreStack,
    /// `client-*`, `kv-*`: the serving tier.
    Serve,
    /// `load-*`: closed-loop load generators.
    Load,
    /// Everything else.
    Other,
    /// The sampler's own closures (not model events).
    Sampler,
}

impl Class {
    pub fn name(self) -> &'static str {
        match self {
            Class::Switch => "switch",
            Class::Adapter => "adapter",
            Class::Device => "device",
            Class::Cache => "cache",
            Class::Gateway => "gateway",
            Class::CoreStack => "core",
            Class::Serve => "serve",
            Class::Load => "load",
            Class::Other => "other",
            Class::Sampler => "sampler",
        }
    }
}

fn classify(target: &str, payload: &str) -> Class {
    let starts = |p: &[&str]| p.iter().any(|p| target.starts_with(p));
    if starts(&["fs"]) {
        Class::Switch
    } else if starts(&["fha", "fea"]) {
        if payload.ends_with("ResponseDue") {
            Class::Device
        } else {
            Class::Adapter
        }
    } else if target == "core" {
        Class::Cache
    } else if target.contains(".gw") {
        Class::Gateway
    } else if starts(&["etrans-", "faa-", "mig-"]) {
        Class::CoreStack
    } else if starts(&["client-", "kv-"]) {
        Class::Serve
    } else if starts(&["load-"]) {
        Class::Load
    } else if payload == "<closure>" {
        Class::Sampler
    } else {
        Class::Other
    }
}

fn short(payload: &'static str) -> &'static str {
    payload.rsplit("::").next().unwrap_or(payload)
}

/// Events and attributed host time for one (class, payload) pair.
#[derive(Clone, Copy, Default, Debug)]
pub struct Cost {
    pub events: u64,
    pub ns: u64,
}

/// Per-shard tallies kept by a sampler.
#[derive(Default)]
struct ShardTally {
    seen: u64,
    last: Option<(SimTime, Option<fcc_sim::ComponentId>)>,
    batches: u64,
    uncovered: u64,
    costs: BTreeMap<(Class, &'static str), Cost>,
}

impl ShardTally {
    /// Counts the entries dispatched since the last call; the ring holds
    /// the last `RING` of them.
    fn absorb(&mut self, engine: &Engine) {
        let total = engine.events_dispatched();
        let new = total - self.seen;
        self.seen = total;
        let held = total.min(RING as u64);
        self.uncovered += new.saturating_sub(held);
        let take = new.min(held);
        let entries: Vec<&TraceEntry> = engine.trace().skip((held - take) as usize).collect();
        for e in entries {
            let key = (e.at, e.target);
            if self.last != Some(key) {
                self.batches += 1;
                self.last = Some(key);
            }
            let class = classify(engine.trace_target_name(e), e.payload);
            self.costs
                .entry((class, short(e.payload)))
                .or_default()
                .events += 1;
        }
    }
}

/// Trace-ring capacity per shard, and how often (simulated) the sampler
/// drains it. A shard dispatches well under `RING` events per period.
const RING: usize = 1 << 16;
const PERIOD: SimTime = SimTime::from_ps(1_000_000);

fn sample(engine: &mut Engine, tally: Arc<Mutex<ShardTally>>, end: SimTime) {
    tally.lock().expect("sampler tally poisoned").absorb(engine);
    let next = engine.now() + PERIOD;
    if next <= end {
        engine.call_at(next, move |e| sample(e, tally, end));
    }
}

#[derive(Default)]
pub struct Tracer {
    /// Per-shard final simulated time of the untraced run: samplers stop
    /// there, so they never extend a shard's clock.
    pub end_hint: Vec<SimTime>,
    pub costs: BTreeMap<(Class, &'static str), Cost>,
    /// Engine steps (mem-hierarchy) or delivery batches seen in the ring.
    pub steps: u64,
    /// Events the ring overwrote before a sampler read them.
    pub uncovered: u64,
    /// Host time inside `Engine::step` calls.
    pub attributed_ns: u64,
}

impl Tracer {
    /// Steps `engine` to idle, timing every step and charging it to the
    /// class and payload of the last event it dispatched.
    pub fn step_engine(&mut self, engine: &mut Engine) {
        engine.enable_trace(1);
        let mut before = engine.events_dispatched();
        loop {
            let t0 = Instant::now();
            if !engine.step() {
                break;
            }
            let ns = t0.elapsed().as_nanos() as u64;
            let after = engine.events_dispatched();
            if let Some(e) = engine.trace().next() {
                let class = classify(engine.trace_target_name(e), e.payload);
                let cost = self.costs.entry((class, short(e.payload))).or_default();
                cost.events += after - before;
                cost.ns += ns;
            }
            self.attributed_ns += ns;
            self.steps += 1;
            before = after;
        }
    }

    /// Runs `sharded` on one worker with a sampler per shard that drains
    /// the shard's trace ring every `PERIOD` of simulated time.
    pub fn run_sharded(&mut self, sharded: &mut ShardedEngine) {
        let tallies: Vec<_> = (0..sharded.shard_count())
            .map(|_| Arc::new(Mutex::new(ShardTally::default())))
            .collect();
        for (s, tally) in tallies.iter().enumerate() {
            let end = self.end_hint.get(s).copied().unwrap_or(SimTime::ZERO);
            let engine = sharded.engine_mut(s);
            engine.enable_trace(RING);
            let tally = Arc::clone(tally);
            if PERIOD <= end {
                engine.call_at(PERIOD, move |e| sample(e, tally, end));
            }
        }
        sharded.run(1);
        for (s, tally) in tallies.iter().enumerate() {
            let mut t = tally.lock().expect("sampler tally poisoned");
            t.absorb(sharded.engine(s));
            self.steps += t.batches;
            self.uncovered += t.uncovered;
            for (&k, c) in &t.costs {
                self.costs.entry(k).or_default().events += c.events;
            }
        }
    }

    pub fn class(&self, class: Class) -> Cost {
        let mut sum = Cost::default();
        for (&(c, _), cost) in &self.costs {
            if c == class {
                sum.events += cost.events;
                sum.ns += cost.ns;
            }
        }
        sum
    }

    pub fn payload(&self, class: Class, payload: &str) -> Cost {
        self.costs
            .get(&(class, payload))
            .copied()
            .unwrap_or_default()
    }
}
