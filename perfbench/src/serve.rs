//! `serve-diurnal`: E13's governed mode. An 8-domain FIFO chain with a
//! `FabricScheduler` at every switch carries open-loop diurnal KV
//! clients, plus a bulk streamer and a deep-window hog per domain.

use fcc_bench::exp_e3x::{CROSS_LATENCY_NS, DOMAINS, TENANTS_PER_DOMAIN};
use fcc_bench::loadgen::{AddrPattern, LoadCfg, LoadGen, StartLoad};
use fcc_core::{FaaEngine, FunctionTemplate, MigrationAgent, TransactionEngine};
use fcc_fabric::credit::AllocPolicy;
use fcc_fabric::sharded::{sharded_chain, DomainSpec, ShardedFabric};
use fcc_fabric::switch::{FabricSwitch, QueueDiscipline};
use fcc_sched::{tenant_rates, CreditPartition, FabricScheduler, TenantShare};
use fcc_serve::{Backend, KvStore, KvStoreCfg, ServeClient, ServeClientCfg, StartClient};
use fcc_sim::{ComponentId, ShardedEngine, SimTime};
use fcc_telemetry::SloAccountant;
use fcc_workloads::{DiurnalModulator, ZipfStream};

use crate::fabric::{fabrex_device, fabrex_spec, sharded_counters};
use crate::trace::Tracer;
use crate::{Outcome, Scenario, SLO_NS};

/// Simulated horizon, one diurnal cycle. E13 runs 120 µs per mode; at
/// 480 µs the p99 still spreads 36% across seeds (few peak bursts), at
/// 1920 µs about 15%, with more shard epochs and a steadier host time.
const HORIZON_US: f64 = 1920.0;
const CLIENTS_PER_DOMAIN: usize = 6;
const KEYSPACE: u64 = 512;
const ZIPF_THETA: f64 = 0.99;
const READ_FRACTION: f64 = 0.9;
const RPC_NS: f64 = 120.0;
const TROUGH_RATE: f64 = 0.3;
const PEAK_RATE: f64 = 1.2;
const BULK_BYTES: u32 = 4096;
const HOG_WINDOW: usize = 48;
const SCHED_POOL: u32 = 1024;
const SCHED_WINDOW_NS: f64 = 1000.0;
const BUDGET_GBPS: f64 = 2048.0;
const BUDGET_FLIT_BYTES: u32 = 256;
const MIGRATION_AGENTS: usize = 48;

const VICTIM_SHARE: TenantShare = TenantShare {
    group: 0,
    weight: 8,
    floor: 2,
};
const BULK_SHARE: TenantShare = TenantShare {
    group: 1,
    weight: 2,
    floor: 1,
};
const HOG_SHARE: TenantShare = TenantShare {
    group: 2,
    weight: 1,
    floor: 1,
};
const STORE_SHARE: TenantShare = TenantShare {
    group: 0,
    weight: 48,
    floor: 96,
};
const STORE_TENANT_BASE: u32 = (DOMAINS * TENANTS_PER_DOMAIN) as u32;

pub struct Serve {
    sharded: ShardedEngine,
    fabric: ShardedFabric,
    stores: Vec<ComponentId>,
    etrans: Vec<ComponentId>,
    faas: Vec<ComponentId>,
    clients: Vec<(usize, ComponentId)>,
}

/// E13's pod-wide credit partition.
fn pod_partition() -> CreditPartition {
    let mut part = CreditPartition::new(SCHED_POOL);
    for d in 0..DOMAINS {
        for h in 0..TENANTS_PER_DOMAIN {
            let share = if h < CLIENTS_PER_DOMAIN {
                VICTIM_SHARE
            } else if h == CLIENTS_PER_DOMAIN {
                BULK_SHARE
            } else {
                HOG_SHARE
            };
            part.add_tenant((d * TENANTS_PER_DOMAIN + h) as u32, share);
        }
        part.add_tenant(STORE_TENANT_BASE + d as u32, STORE_SHARE);
    }
    part
}

/// Domain `d`'s scheduler: the pod-wide policy with only the domain's
/// own hosts mapped; the migration-agent hosts map to the store.
fn scheduler_for(fabric: &ShardedFabric, d: usize) -> FabricScheduler {
    let mut sched = FabricScheduler::new(pod_partition(), SimTime::from_ns(SCHED_WINDOW_NS));
    for (h, host) in fabric.domains[d].hosts.iter().enumerate() {
        let tenant = if h < TENANTS_PER_DOMAIN {
            (d * TENANTS_PER_DOMAIN + h) as u32
        } else {
            STORE_TENANT_BASE + d as u32
        };
        sched.map_node(host.node, tenant);
    }
    sched
}

/// Preloaded value size: 60% 64 B, 30% 1 KiB, 10% 4 KiB.
fn value_bytes(key: u64) -> u32 {
    match key % 10 {
        0..=5 => 64,
        6..=8 => 1024,
        _ => 4096,
    }
}

fn at(frac: f64) -> SimTime {
    SimTime::from_us(HORIZON_US * frac)
}

impl Serve {
    pub fn build(seed: u64) -> Self {
        let horizon = at(1.0);
        let curve = vec![
            (SimTime::ZERO, TROUGH_RATE),
            (at(0.25), TROUGH_RATE),
            (at(0.40), PEAK_RATE),
            (at(0.70), PEAK_RATE),
            (at(0.85), TROUGH_RATE),
        ];
        let (peak, trough) = ((at(0.40), at(0.70)), (SimTime::ZERO, at(0.25)));
        let mut sharded = ShardedEngine::new(0xE130 ^ seed ^ 0x0A0A, DOMAINS);
        let mut spec = fabrex_spec(QueueDiscipline::Fifo, AllocPolicy::Fair);
        spec.fha_outstanding = 128;
        let domains = (0..DOMAINS)
            .map(|_| DomainSpec {
                n_hosts: TENANTS_PER_DOMAIN + 2,
                devices: (0..4).map(|_| fabrex_device()).collect(),
            })
            .collect();
        let fabric = sharded_chain(
            &mut sharded,
            spec,
            domains,
            SimTime::from_ns(CROSS_LATENCY_NS),
        );
        for (d, topo) in fabric.domains.iter().enumerate() {
            let sched = scheduler_for(&fabric, d);
            for &sw in &topo.switches {
                sharded
                    .engine_mut(d)
                    .component_mut::<FabricSwitch>(sw)
                    .install_scheduler(sched.clone());
            }
        }
        let budgets = tenant_rates(&pod_partition(), BUDGET_GBPS, BUDGET_FLIT_BYTES);
        let mut serve = Serve {
            sharded,
            fabric,
            stores: Vec::new(),
            etrans: Vec::new(),
            faas: Vec::new(),
            clients: Vec::new(),
        };
        for d in 0..DOMAINS {
            let topo = &serve.fabric.domains[d];
            let local = topo.devices[0].range;
            let remote = serve.fabric.domains[(d + DOMAINS / 2) % DOMAINS].devices[0].range;
            let data_bases = (0..2).map(|i| topo.devices[i].range.base).collect();
            let staging_bases = (2..4).map(|i| topo.devices[i].range.base).collect();
            let agent_fhas: Vec<_> = (0..2)
                .map(|i| topo.hosts[TENANTS_PER_DOMAIN + i].fha)
                .collect();
            let load_fhas = [
                topo.hosts[CLIENTS_PER_DOMAIN].fha,
                topo.hosts[CLIENTS_PER_DOMAIN + 1].fha,
            ];
            let engine = serve.sharded.engine_mut(d);
            let agents = (0..MIGRATION_AGENTS)
                .map(|a| {
                    engine.add_component(
                        format!("mig-d{d}a{a}"),
                        MigrationAgent::new(agent_fhas[a % 2], 4096, 8),
                    )
                })
                .collect();
            let mut te = TransactionEngine::new(agents);
            te.source_budgets(&budgets);
            let etrans = engine.add_component(format!("etrans-d{d}"), te);
            let faa = engine.add_component(
                format!("faa-d{d}"),
                FaaEngine::new(
                    vec![
                        FunctionTemplate::uniform(0, SimTime::from_ns(50.0), 0.0, 1 << 16),
                        FunctionTemplate::uniform(1, SimTime::from_ns(80.0), 0.0, 1 << 16),
                    ],
                    SimTime::from_ns(100.0),
                    8,
                ),
            );
            let mut store = KvStore::new(KvStoreCfg {
                backend: Backend::Fabric { etrans },
                faa,
                hit_fn: 0,
                version_fn: 1,
                data_bases,
                staging_bases,
                capacity: 1 << 26,
                rpc_latency: SimTime::from_ns(RPC_NS),
                host: 0,
            });
            for key in 0..KEYSPACE {
                store
                    .preload(key, value_bytes(key))
                    .expect("512 small keys fit a 64 MiB heap");
            }
            let store = engine.add_component(format!("kv-d{d}"), store);
            for h in 0..CLIENTS_PER_DOMAIN {
                let tenant = (d * TENANTS_PER_DOMAIN + h) as u32;
                let client = ServeClient::new(ServeClientCfg {
                    store,
                    tenant,
                    arrivals: DiurnalModulator::new(curve.clone(), SimTime::ZERO),
                    keys: ZipfStream::new(KEYSPACE, ZIPF_THETA),
                    read_fraction: READ_FRACTION,
                    value_sizes: vec![(64, 0.6), (1024, 0.3), (4096, 0.1)],
                    rpc_latency: SimTime::from_ns(RPC_NS),
                    stop_at: horizon,
                    slo_target: SimTime::from_ns(SLO_NS),
                    peak,
                    trough,
                    seed: 0xC11E ^ (seed << 8) ^ u64::from(tenant),
                });
                let cid = engine.add_component(format!("client-d{d}h{h}"), client);
                engine.post(cid, SimTime::ZERO, StartClient);
                serve.clients.push((d, cid));
            }
            for (i, fha) in load_fhas.into_iter().enumerate() {
                let (base, op_bytes, window) = if i == 0 {
                    (local.base + (1 << 27), BULK_BYTES, 8)
                } else {
                    (remote.base + (1 << 27), 64, HOG_WINDOW)
                };
                let cfg = LoadCfg {
                    fha,
                    base,
                    len: 1 << 20,
                    op_bytes,
                    write: true,
                    window,
                    count: None,
                    stop_at: horizon,
                    pattern: AddrPattern::Sequential,
                };
                let lg = engine.add_component(format!("load-d{d}h{i}"), LoadGen::new(cfg));
                engine.post(lg, SimTime::ZERO, StartLoad);
            }
            serve.stores.push(store);
            serve.etrans.push(etrans);
            serve.faas.push(faa);
        }
        serve
    }
}

impl Scenario for Serve {
    fn run(&mut self) {
        self.sharded.run(1);
    }

    fn run_traced(&mut self, tracer: &mut Tracer) {
        tracer.run_sharded(&mut self.sharded);
    }

    fn check(&self) -> Outcome {
        let mut out = Outcome::default();
        let mut makespan = SimTime::ZERO;
        for (d, topo) in self.fabric.domains.iter().enumerate() {
            let engine = self.sharded.engine(d);
            makespan = makespan.max(engine.now());
            if engine.deadlock_report().is_some() {
                out.fail(format!("shard {d}: deadlock report"));
            }
            for &sw in &topo.switches {
                let s = engine.component::<FabricSwitch>(sw);
                let findings = s.audit().findings.len();
                if findings > 0 {
                    out.fail(format!("shard {d}: {findings} ledger audit findings"));
                }
                match s.scheduler().map(FabricScheduler::audit) {
                    Some(Ok(())) => {}
                    Some(Err(e)) => out.fail(format!("shard {d}: scheduler audit: {e}")),
                    None => out.fail(format!("shard {d}: switch has no scheduler")),
                }
            }
            let s = engine.component::<KvStore>(self.stores[d]);
            let lost = s.lost_updates.get() + s.alloc_failures.get() + s.integrity_violations();
            if lost > 0 {
                out.fail(format!(
                    "shard {d}: {} lost updates, {} alloc failures, {} integrity violations",
                    s.lost_updates.get(),
                    s.alloc_failures.get(),
                    s.integrity_violations()
                ));
            }
            out.lost += lost;
            out.add("serve.gets", s.gets.get());
            out.add("serve.puts", s.puts.get());
            out.add("serve.hits", s.hits.get());
            out.add("serve.misses", s.misses.get());
            let te = engine.component::<TransactionEngine>(self.etrans[d]);
            out.add("core.etrans.completed", te.completed.get());
            out.add("core.etrans.rejected", te.rejected.get());
            let faa = engine.component::<FaaEngine>(self.faas[d]);
            out.add("core.faa.ctx_switches", faa.ctx_switches.get());
        }
        let mut slo = SloAccountant::new(SimTime::from_ns(SLO_NS));
        let mut failed = 0;
        for &(d, cid) in &self.clients {
            let c = self.sharded.engine(d).component::<ServeClient>(cid);
            slo.merge(c.peak_slo());
            slo.merge(c.trough_slo());
            out.attempted += c.issued.get();
            out.completed += c.completed.get();
            failed += c.failed.get();
        }
        out.add("serve.failed", failed);
        let unanswered = out.attempted - out.completed;
        if unanswered + failed > 0 {
            out.fail(format!(
                "{unanswered} unanswered and {failed} failed requests"
            ));
        }
        // Failed and unanswered requests count as SLO misses.
        let accounted = slo.merged().count() as f64;
        out.sim_slo_attain =
            slo.overall_attainment() * accounted / (accounted + (unanswered + failed) as f64);
        out.completed -= failed;
        out.sim_p99_ns = slo.merged().quantile(0.99) as f64 / 1e3;
        out.sim_ops_per_us = out.completed as f64 / makespan.as_us();
        let gateways = (0..DOMAINS - 1)
            .map(|d| (d, d + 1))
            .zip(self.fabric.gateways.iter().copied())
            .collect();
        sharded_counters(&self.sharded, &self.fabric.domains, &gateways, &mut out);
        out
    }
}
