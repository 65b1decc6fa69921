//! Fabric pieces shared by the workloads: E3's FabreX-like calibration
//! and the harvest of the fabric's public counters.

use fcc_fabric::adapter::{Fea, Fha};
use fcc_fabric::credit::AllocPolicy;
use fcc_fabric::endpoint::{Endpoint, PipelinedMemory};
use fcc_fabric::switch::{FabricSwitch, QueueDiscipline, SwitchConfig};
use fcc_fabric::topology::{Topology, TopologySpec};
use fcc_proto::phys::PhysConfig;
use fcc_sim::{ComponentId, Engine, ShardGateway, ShardedEngine, SimTime};

use crate::Outcome;

/// Cross-domain cables: `((domain a, domain b), (gateway in a, gateway in b))`.
pub type Gateways = Vec<((usize, usize), (ComponentId, ComponentId))>;

/// E3's FabreX-attached FPGA-card-like device (per-byte occupancy).
pub fn fabrex_device() -> Box<dyn Endpoint> {
    Box::new(
        PipelinedMemory::new(
            SimTime::from_ns(200.0),
            SimTime::from_ns(220.0),
            SimTime::from_ns(40.0),
            1 << 30,
        )
        .with_gap_per_byte(0.06),
    )
}

/// E3's FabreX-like topology spec: short cables, 90 ns switch.
pub fn fabrex_spec(queueing: QueueDiscipline, allocation: AllocPolicy) -> TopologySpec {
    TopologySpec {
        switch: SwitchConfig {
            phys: PhysConfig::omega_like(),
            fwd_latency: SimTime::from_ns(90.0),
            queueing,
            allocation,
            ..SwitchConfig::fabrex_like()
        },
        fha_outstanding: 64,
        ..TopologySpec::default()
    }
}

/// Adds one topology's switch, adapter, device and scheduler counters.
pub fn topology_counters(engine: &Engine, topo: &Topology, out: &mut Outcome) {
    for &sw in &topo.switches {
        let s = engine.component::<FabricSwitch>(sw);
        out.add("fabric.switch.forwarded", s.forwarded.get());
        out.add("fabric.switch.unroutable", s.unroutable.get());
        out.add("fabric.switch.queue_delay_ps", s.queue_delay_ps.get());
        if let Some(sched) = s.scheduler() {
            out.add("sched.admitted", sched.admitted);
            out.add("sched.deferred", sched.deferred);
        }
    }
    for h in &topo.hosts {
        out.add(
            "proto.link.tx_flits",
            engine.component::<Fha>(h.fha).port().tx_flits.get(),
        );
    }
    for d in &topo.devices {
        let fea = engine.component::<Fea>(d.fea);
        out.add("proto.link.tx_flits", fea.port().tx_flits.get());
        out.add("memnode.serviced", fea.serviced.get());
    }
}

/// Adds every domain's counters plus the executor's: per-shard events
/// and messages relayed across shard boundaries.
pub fn sharded_counters(
    sharded: &ShardedEngine,
    domains: &[Topology],
    gateways: &Gateways,
    out: &mut Outcome,
) {
    for (d, topo) in domains.iter().enumerate() {
        topology_counters(sharded.engine(d), topo, out);
        out.shard_events.push(sharded.engine(d).events_dispatched());
        out.shard_end.push(sharded.engine(d).now());
    }
    out.events = sharded.total_events();
    for &((da, db), (ga, gb)) in gateways {
        let a = sharded.engine(da).component::<ShardGateway>(ga);
        let b = sharded.engine(db).component::<ShardGateway>(gb);
        out.add("sim.shard.relayed_out", a.relayed_out + b.relayed_out);
    }
}
