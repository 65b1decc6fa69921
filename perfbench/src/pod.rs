//! `pod-wormhole`: E14's 256-host spine-leaf pod on the wormhole VC
//! switch core, one shard per spine domain, closed-loop 1 KiB writes.

use fcc_bench::loadgen::{AddrPattern, LoadCfg, LoadGen, StartLoad};
use fcc_fabric::audit_topology;
use fcc_fabric::credit::AllocPolicy;
use fcc_fabric::pods::{sharded_pod, PodKind, PodPlan, PodSpec};
use fcc_fabric::sharded::ShardedFabric;
use fcc_fabric::switch::{FabricSwitch, QueueDiscipline};
use fcc_fabric::wormhole::VcConfig;
use fcc_sim::{ComponentId, Histogram, ShardedEngine, SimTime};

use crate::fabric::{fabrex_device, fabrex_spec, sharded_counters, Gateways};
use crate::trace::Tracer;
use crate::{attainment, Outcome, Scenario, SLO_NS};

/// Spine switches, and so shard domains.
const SPINES: usize = 8;
const LEAVES_PER_SPINE: usize = 4;
const HOSTS_PER_LEAF: usize = 8;
/// Writes each host issues. E14 commits 24; at that length separate
/// runs spread 0.67–0.88 s, so the benchmark runs a longer drain.
const WRITES_PER_HOST: u64 = 64;
const WINDOW: usize = 4;
const OP_BYTES: u32 = 1024;
const CROSS_LATENCY_NS: f64 = 200.0;

pub struct Pod {
    sharded: ShardedEngine,
    plan: PodPlan,
    fabric: ShardedFabric,
    loads: Vec<(usize, ComponentId)>,
}

impl Pod {
    pub fn build(seed: u64) -> Self {
        let mut sharded = ShardedEngine::new(0xE14 ^ seed, SPINES);
        let mut topo = fabrex_spec(QueueDiscipline::Wormhole, AllocPolicy::Fair);
        topo.switch.adaptive = true;
        let spec = PodSpec {
            kind: PodKind::SpineLeaf {
                spines: SPINES,
                leaves_per_spine: LEAVES_PER_SPINE,
            },
            topo,
            vc: VcConfig::default(),
            hosts_per_edge: HOSTS_PER_LEAF,
            devices_per_edge: 1,
            cross_latency: SimTime::from_ns(CROSS_LATENCY_NS),
        };
        let specs = spec.plan().domain_specs(|_, _| fabrex_device());
        let (plan, fabric) = sharded_pod(&mut sharded, &spec, specs);
        // The seed rotates which remote spine (and which of its leaves'
        // devices) each host writes to; every write still crosses a spine.
        let mut loads = Vec::new();
        for (gh, (d, host)) in fabric.all_hosts().enumerate() {
            let mix = seed as usize + gh;
            let td = (d + 1 + mix % (SPINES - 1)) % SPINES;
            let dev = &fabric.domains[td].devices[(mix / (SPINES - 1)) % LEAVES_PER_SPINE];
            let cfg = LoadCfg {
                fha: host.fha,
                base: dev.range.base,
                len: 1 << 20,
                op_bytes: OP_BYTES,
                write: true,
                window: WINDOW,
                count: Some(WRITES_PER_HOST),
                stop_at: SimTime::from_us(1_000_000.0),
                pattern: AddrPattern::Sequential,
            };
            let engine = sharded.engine_mut(d);
            let lg = engine.add_component(format!("load-h{gh}"), LoadGen::new(cfg));
            engine.post(lg, SimTime::ZERO, StartLoad);
            loads.push((d, lg));
        }
        Pod {
            sharded,
            plan,
            fabric,
            loads,
        }
    }

    fn gateways(&self) -> Gateways {
        let domains = self.plan.links.iter().filter(|l| l.cross_domain).map(|l| {
            (
                self.plan.switches[l.a].domain,
                self.plan.switches[l.b].domain,
            )
        });
        domains.zip(self.fabric.gateways.iter().copied()).collect()
    }
}

impl Scenario for Pod {
    fn run(&mut self) {
        self.sharded.run(1);
    }

    fn run_traced(&mut self, tracer: &mut Tracer) {
        tracer.run_sharded(&mut self.sharded);
    }

    fn check(&self) -> Outcome {
        let mut out = Outcome::default();
        let mut latency = Histogram::new();
        let mut makespan = SimTime::ZERO;
        let mut vc_violations = 0;
        for (d, topo) in self.fabric.domains.iter().enumerate() {
            let engine = self.sharded.engine(d);
            if let Some(report) = engine.deadlock_report() {
                out.fail(format!(
                    "shard {d}: deadlock, {} stuck, {} cycles",
                    report.stuck.len(),
                    report.cycles.len()
                ));
            }
            for &sw in &topo.switches {
                vc_violations += engine.component::<FabricSwitch>(sw).vc_violations();
            }
            let audit = audit_topology(engine, topo);
            if !audit.is_clean() {
                out.fail(format!(
                    "shard {d}: {} audit findings",
                    audit.findings.len()
                ));
            }
            makespan = makespan.max(engine.now());
        }
        if vc_violations > 0 {
            out.fail(format!("{vc_violations} VC credit violations"));
        }
        for &(d, lg) in &self.loads {
            let lg = self.sharded.engine(d).component::<LoadGen>(lg);
            out.completed += lg.completed();
            latency.merge(&lg.latency);
        }
        out.attempted = self.loads.len() as u64 * WRITES_PER_HOST;
        if out.completed != out.attempted {
            out.fail(format!(
                "completed {}/{} writes",
                out.completed, out.attempted
            ));
        }
        out.sim_p99_ns = latency.quantile(0.99) as f64 / 1e3;
        out.sim_ops_per_us = out.completed as f64 / makespan.as_us();
        out.sim_slo_attain =
            attainment(&latency, SLO_NS) * out.completed as f64 / out.attempted as f64;
        sharded_counters(
            &self.sharded,
            &self.fabric.domains,
            &self.gateways(),
            &mut out,
        );
        out.counters
            .insert("fabric.wormhole.vc_violations", vc_violations as f64);
        out
    }
}
