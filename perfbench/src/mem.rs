//! `mem-hierarchy`: E9-style sweeps of a `CpuCore` with omega-like
//! L1/L2 over one calibrated VOQ switch to one FAM device. Each sweep
//! point is its own plain `Engine`, so the traced run can step it.

use fcc_bench::calib;
use fcc_cache::core::{AccessPattern, CoreReport, CpuCore, RunDone, StartRun};
use fcc_cache::hierarchy::{HierarchyConfig, MemoryHierarchy};
use fcc_fabric::adapter::Fha;
use fcc_fabric::topology::{self, Topology, FAM_BASE};
use fcc_sim::{Component, ComponentId, Ctx, Engine, Histogram, Msg, SimTime};

use crate::fabric::topology_counters;
use crate::trace::Tracer;
use crate::{attainment, Outcome, Scenario, SLO_NS};

/// MLP windows of the independent sweeps; the deepest is drawn per seed.
const WINDOWS: [usize; 5] = [1, 2, 4, 8, 16];
/// Measured accesses per independent sweep point (every one misses).
const INDEPENDENT_OPS: u64 = 6000;
/// Chase points: nominal working set (KiB) and measured accesses, after
/// one warm-up pass. The first two sets fit L1 (64 KiB) and L2 (1 MiB)
/// and run long, so the hierarchy's own cost carries weight in the run;
/// the other two cross the L2 boundary, and every access misses.
const CHASE: [(u64, u64); 4] = [(32, 400_000), (512, 400_000), (1536, 12_000), (4096, 12_000)];

struct Sink {
    report: Option<CoreReport>,
}

impl Component for Sink {
    fn on_msg(&mut self, _ctx: &mut Ctx<'_>, msg: Msg) {
        match msg.downcast::<RunDone>() {
            Ok(done) => self.report = Some(done.report),
            Err(m) => panic!("sink: unexpected message {}", m.type_name()),
        }
    }
}

struct Point {
    engine: Engine,
    topo: Topology,
    sink: ComponentId,
    requested: u64,
}

pub struct Mem {
    points: Vec<Point>,
}

/// SplitMix64: spreads a small seed over all 64 bits.
fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn point(seed: u64, pattern: AccessPattern, window: usize, requested: u64) -> Point {
    let mut engine = Engine::new(0xE9 ^ seed);
    let sink = engine.add_component("sink", Sink { report: None });
    let topo = topology::single_switch(
        &mut engine,
        calib::topo_spec(),
        1,
        vec![calib::fam(1 << 30)],
    );
    let mut core = CpuCore::new(MemoryHierarchy::new(HierarchyConfig::omega_like()), window);
    core.set_fha(topo.hosts[0].fha);
    let core = engine.add_component("core", core);
    engine.post(
        core,
        SimTime::ZERO,
        StartRun {
            pattern,
            reply_to: sink,
        },
    );
    Point {
        engine,
        topo,
        sink,
        requested,
    }
}

impl Mem {
    pub fn build(seed: u64) -> Self {
        // The seed moves the region base by whole lines, sizes each chase
        // working set within ±1/32 of nominal (its warm-up pass dominates
        // the event count, so wider jitter shows up in host time) and
        // picks the deepest window.
        let bits = mix(seed);
        let base = FAM_BASE + (bits % 4096) * 64;
        let deepest = 31 + (bits >> 12) as usize % 3;
        let mut points = Vec::new();
        for write in [false, true] {
            for window in WINDOWS.into_iter().chain([deepest]) {
                let pattern = AccessPattern::Independent {
                    base,
                    region: 64 << 20,
                    stride: 4096,
                    count: INDEPENDENT_OPS,
                    write,
                    warmup_passes: 0,
                };
                points.push(point(seed, pattern, window, INDEPENDENT_OPS));
            }
        }
        for (i, (kib, count)) in CHASE.into_iter().enumerate() {
            let jitter = (bits >> (16 + 8 * i)) % 17; // 0..=16 → -1/32..+1/32
            let region = ((kib << 10) * (248 + jitter) / 256) & !63;
            let pattern = AccessPattern::Dependent {
                base,
                region,
                stride: 64,
                count,
                write: false,
                warmup_passes: 1,
            };
            points.push(point(seed, pattern, calib::REMOTE_WINDOW, count));
        }
        Mem { points }
    }
}

impl Scenario for Mem {
    fn run(&mut self) {
        for p in &mut self.points {
            p.engine.run_until_idle();
        }
    }

    fn run_traced(&mut self, tracer: &mut Tracer) {
        for p in &mut self.points {
            tracer.step_engine(&mut p.engine);
        }
    }

    fn check(&self) -> Outcome {
        let mut out = Outcome::default();
        let mut remote = Histogram::new();
        let mut sim_us = 0.0;
        for (i, p) in self.points.iter().enumerate() {
            out.attempted += p.requested;
            out.events += p.engine.events_dispatched();
            sim_us += p.engine.now().as_us();
            remote.merge(&p.engine.component::<Fha>(p.topo.hosts[0].fha).latency);
            topology_counters(&p.engine, &p.topo, &mut out);
            match &p.engine.component::<Sink>(p.sink).report {
                Some(r) => {
                    out.completed += r.ops;
                    if r.ops != p.requested {
                        out.fail(format!("point {i}: {} of {} accesses", r.ops, p.requested));
                    }
                    out.add("cache.l1_hits", r.served[0]);
                    out.add("cache.l2_hits", r.served[1]);
                    out.add("cache.prefetches", r.prefetches);
                }
                None => out.fail(format!("point {i}: core never reported")),
            }
            if p.engine.deadlock_report().is_some() {
                out.fail(format!("point {i}: deadlock report"));
            }
        }
        // Latency metrics cover the accesses that crossed the fabric
        // (cache hits take nanoseconds), as the FHAs recorded them.
        out.sim_p99_ns = remote.quantile(0.99) as f64 / 1e3;
        out.sim_slo_attain = attainment(&remote, SLO_NS);
        out.sim_ops_per_us = out.completed as f64 / sim_us;
        out
    }
}
