//! The fabric switch (FS): ports, queueing, scheduling, and forwarding.
//!
//! "An FS consists of upstream ports (UPs) for FHA connectivity,
//! downstream ports (DPs) for remote devices/memory modules, and internal
//! switching tables associated with efficient traffic orchestration"
//! (§2.2). The model is an input-queued switch:
//!
//! * Arriving flits are admitted by the ingress port's link layer (credit
//!   pool) and wait in an ingress queue for the per-flit forwarding
//!   latency, then for egress credit toward the next hop. Ingress buffer
//!   credits return upstream only when a flit departs — this is what makes
//!   congestion back-propagate across switches (§3 D#3, "credit
//!   coordination").
//! * Ingress queues are keyed, `queues[input][key]`, and one arbitration
//!   loop serves them all; inputs take turns round-robin. The
//!   [`QueueDiscipline`] only chooses the key:
//!   - [`QueueDiscipline::Fifo`]: one key per input. A head flit whose
//!     output is credit-starved blocks younger flits to idle outputs —
//!     head-of-line blocking (§3 D#3, "credit-flow scheduling").
//!   - [`QueueDiscipline::Voq`]: the key is the output (virtual output
//!     queues), removing HOL blocking. Input `i` scans its outputs from
//!     output `i` on, so inputs do not all favour output 0.
//!   - [`QueueDiscipline::Wormhole`]: the key is the ingress virtual
//!     channel, scanned from escape lane 0; a worm stalled on one lane
//!     never blocks another lane of the same input (see
//!     [`crate::wormhole`]).
//! * For each ready head the loop resolves the egress — routed at
//!   dispatch under FIFO, the key under VOQ, the head's worm under
//!   Wormhole — then asks, in this order: the allocation policy, the
//!   tenant scheduler, the egress link credit and, under Wormhole, the
//!   egress lane. Only a head that passes all four is popped and sent.
//!   The order is behaviour, not style: a failed scheduler probe counts a
//!   deferral, so it runs only for flits the allocation policy lets
//!   through, and the ramp-up allocator creates an output's state on its
//!   first probe.
//! * Park and wake. Each egress keeps a generation number. A head that
//!   fails the credit or lane gate parks, recording its egress and that
//!   egress's generation. Until the generation moves, later sweeps run
//!   only the gates in front of the park (ready, policy, tenant), so
//!   every deferral is still counted, and skip the egress resolution,
//!   credit and lane gates, which would fail again. The events that can
//!   loosen a credit or lane gate are the ones that move a generation:
//!   `CreditFreed` and `VcCreditReturned` on the egress port, a worm's
//!   tail leaving it (the tail frees its lane), and a header replacing a
//!   worm bound there. Route edits ([`InstallPbrRoute`],
//!   [`RemovePbrRoute`], [`FabricSwitch::remove_route`], HBR and domain
//!   messages), rate changes, scheduler installs, ramp and tenant window
//!   ticks, [`FabricSwitch::port_mut`], and port add, detach and
//!   [`FabricSwitch::set_vc_link`] move every generation. Adaptive FIFO
//!   heads never park: their egress is re-picked against the wire
//!   backlog at each sweep. A pass skips an input until the earliest
//!   ready time of its heads when all of them are either not ready or
//!   parked behind gates without side effects (no tenant scheduler and
//!   no arbitrated allocation); it still notes the Kick that time needs.
//!   A flit arriving at the input, or a generation moving on one of its
//!   parks, wakes it.
//! * Egress credit allocation follows [`AllocPolicy`]: static-fair, the
//!   exponential ramp-up scheme the paper critiques, or arbitrated
//!   reservations installed by the central arbiter.
//! * Adaptive routing picks the least-backlogged candidate port.

use std::collections::{BTreeMap, HashMap, VecDeque};

use serde::{Deserialize, Serialize};

use fcc_proto::addr::NodeId;
use fcc_proto::channel::MsgClass;
use fcc_proto::flit::FlitPayload;
use fcc_proto::link::CreditConfig;
use fcc_proto::phys::PhysConfig;
use fcc_sched::{FabricScheduler, InstallScheduler};
use fcc_sim::{Component, ComponentId, Counter, Ctx, Msg, PendingWork, SimTime, TokenBucket};
use fcc_telemetry::Track;

use crate::credit::{AllocPolicy, RampUpState};
use crate::port::{FlitMsg, LinkPort, PortEvent};
use crate::routing::RoutingTable;
use crate::wormhole::{VcConfig, VcLink, WormLane, Worms};

/// Identifies a flow (source endpoint, destination endpoint) for the
/// arbiter's reservations and the switch's rate enforcement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct FlowId {
    /// Originating node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
}

/// Ingress queue organization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum QueueDiscipline {
    /// One FIFO per input port (credit-agnostic; HOL-blocking prone).
    Fifo,
    /// Virtual output queues per (input, output).
    Voq,
    /// Wormhole switching with per-virtual-channel flow control: ingress
    /// queues per (input, VC), flit-granular lane allocation that holds a
    /// VC for a whole transfer (header + data slots), per-(port, VC)
    /// credit ledgers on egress links configured via
    /// [`FabricSwitch::set_vc_link`], and escape-VC routing (lane 0 is
    /// restricted to each destination's primary deterministic route). See
    /// [`crate::wormhole`].
    Wormhole,
}

/// Static switch configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SwitchConfig {
    /// Physical layer of every port (per-port overrides via
    /// [`FabricSwitch::add_port_with`]).
    pub phys: PhysConfig,
    /// Link-layer credit configuration of every port.
    pub credit: CreditConfig,
    /// Per-flit forwarding latency through the crossbar (FabreX: <100 ns).
    pub fwd_latency: SimTime,
    /// Ingress queue organization.
    pub queueing: QueueDiscipline,
    /// Egress credit allocation policy.
    pub allocation: AllocPolicy,
    /// Whether to spread traffic across alternate routes adaptively.
    pub adaptive: bool,
}

impl SwitchConfig {
    /// A FabreX-like switch: ~90 ns port latency, fair allocation, VOQs.
    pub fn fabrex_like() -> Self {
        SwitchConfig {
            phys: PhysConfig::omega_like(),
            credit: CreditConfig::default(),
            fwd_latency: SimTime::from_ns(90.0),
            queueing: QueueDiscipline::Voq,
            allocation: AllocPolicy::Fair,
            adaptive: false,
        }
    }
}

/// Installs a PBR route (from the fabric manager).
#[derive(Debug, Clone, Copy)]
pub struct InstallPbrRoute {
    /// Destination node.
    pub dst: NodeId,
    /// Output port.
    pub port: usize,
}

/// Prunes every PBR route toward a node (from the fabric manager or the
/// elastic composer, once the node has quiesced).
#[derive(Debug, Clone, Copy)]
pub struct RemovePbrRoute {
    /// Destination node whose routes are withdrawn.
    pub dst: NodeId,
}

/// Installs an HBR route (from the fabric manager).
#[derive(Debug, Clone, Copy)]
pub struct InstallHbrRoute {
    /// Foreign domain.
    pub domain: crate::routing::DomainId,
    /// Output port.
    pub port: usize,
}

/// Declares a node's domain (from the fabric manager).
#[derive(Debug, Clone, Copy)]
pub struct SetNodeDomain {
    /// The node.
    pub node: NodeId,
    /// Its domain.
    pub domain: crate::routing::DomainId,
}

/// Installs a flow rate reservation (from the central arbiter).
#[derive(Debug, Clone, Copy)]
pub struct InstallRate {
    /// The reserved flow.
    pub flow: FlowId,
    /// Sustained rate in Gbit/s.
    pub gbps: f64,
    /// Burst allowance in bytes.
    pub burst_bytes: u64,
}

/// Removes a flow reservation (from the central arbiter).
#[derive(Debug, Clone, Copy)]
pub struct RemoveRate {
    /// The flow to release.
    pub flow: FlowId,
}

/// Discovery probe (from the fabric manager).
#[derive(Debug, Clone, Copy)]
pub struct DiscoverReq {
    /// Where to send the [`DiscoverRsp`].
    pub reply_to: ComponentId,
}

/// Discovery answer: the peer component on each port.
#[derive(Debug, Clone)]
pub struct DiscoverRsp {
    /// The responding switch.
    pub switch: ComponentId,
    /// Peer component per port index.
    pub peers: Vec<ComponentId>,
}

/// Self-message: re-run the scheduler.
#[derive(Debug, Clone, Copy)]
struct Kick;

/// Self-message: ramp-up window rollover.
#[derive(Debug, Clone, Copy)]
struct WindowTick;

/// Self-message: tenant-scheduler window rollover.
#[derive(Debug, Clone, Copy)]
struct SchedTick;

#[derive(Debug)]
struct Entry {
    payload: FlitPayload,
    class: MsgClass,
    ready_at: SimTime,
    flow: FlowId,
    enqueued_at: SimTime,
    /// Ingress lane the flit arrived on (VC-flow-controlled links only);
    /// its credit is returned upstream when the flit departs.
    in_vc: Option<u8>,
}

/// One ingress queue and the gate its head is parked at, if any.
#[derive(Debug, Default)]
struct Queue {
    flits: VecDeque<Entry>,
    parked: Option<Park>,
}

/// A head that failed egress `out`'s credit or lane gate while `out` was
/// at generation `gen` (see the module docs for the park/wake rule).
#[derive(Debug, Clone, Copy)]
struct Park {
    out: usize,
    gen: u64,
}

/// A fabric switch component.
pub struct FabricSwitch {
    cfg: SwitchConfig,
    ports: Vec<LinkPort>,
    peer_to_port: HashMap<ComponentId, usize>,
    /// Routing table (public so topology builders can pre-install routes).
    /// Once traffic flows, edit it only through the route messages or
    /// [`FabricSwitch::remove_route`], which wake parked heads.
    pub routing: RoutingTable,
    /// Ingress queues, `queues[input][key]`: one key per input under
    /// FIFO, the output under VOQ, the ingress lane under Wormhole (ports
    /// without VC flow control keep a single lane-0 queue).
    queues: Vec<Vec<Queue>>,
    /// Flits queued per input (the sum of its row): a sweep passes over
    /// an idle input without scanning its queues.
    backlog: Vec<usize>,
    /// Per-egress generation, moved by every event that can loosen the
    /// egress's credit or lane gate.
    gens: Vec<u64>,
    /// Per input, the time before which none of its heads can move: each
    /// is parked at a current generation behind side-effect-free gates or
    /// is not ready until then. A sweep before that time passes over the
    /// input, noting only the Kick its earliest head needs. `ZERO` when
    /// awake; `MAX` when only a wake can move it.
    idle_until: Vec<SimTime>,
    /// Per egress, a bitset of the inputs with a head parked on it (one
    /// row of `ports.len().div_ceil(64)` words each), woken when the
    /// egress's generation moves.
    waiters: Vec<u64>,
    /// Per-egress-port VC credit ledgers (only on links configured via
    /// [`FabricSwitch::set_vc_link`]).
    vc_links: Vec<Option<VcLink>>,
    /// In-transit transfers (Wormhole only).
    worms: Worms,
    rr_input: usize,
    ramp: Vec<Option<RampUpState>>,
    flows: BTreeMap<FlowId, TokenBucket>,
    /// Tenant admission point, when fabric-level QoS is installed. The
    /// partition gate layers over the per-output ramp gate: a flit
    /// dispatches only when both its input's ramp allocation and its
    /// tenant's partition window admit it.
    sched: Option<FabricScheduler>,
    sched_tick_armed: bool,
    tick_armed: bool,
    /// Earliest pending Kick self-message (dedup: one in flight).
    next_kick_at: Option<SimTime>,
    trace: Track,
    /// Flits forwarded.
    pub forwarded: Counter,
    /// Flits dropped for lack of a route.
    pub unroutable: Counter,
    /// Sum of per-flit queueing delays (ps) for mean-delay probes.
    pub queue_delay_ps: Counter,
}

impl FabricSwitch {
    /// Creates a switch with no ports.
    pub fn new(cfg: SwitchConfig) -> Self {
        FabricSwitch {
            cfg,
            ports: Vec::new(),
            peer_to_port: HashMap::new(),
            routing: RoutingTable::new(crate::routing::DomainId(0)),
            queues: Vec::new(),
            backlog: Vec::new(),
            gens: Vec::new(),
            idle_until: Vec::new(),
            waiters: Vec::new(),
            vc_links: Vec::new(),
            worms: Worms::default(),
            rr_input: 0,
            ramp: Vec::new(),
            flows: BTreeMap::new(),
            sched: None,
            sched_tick_armed: false,
            tick_armed: false,
            next_kick_at: None,
            trace: Track::default(),
            forwarded: Counter::new(),
            unroutable: Counter::new(),
            queue_delay_ps: Counter::new(),
        }
    }

    /// Adds a port with the switch-default phys/credit config.
    pub fn add_port(&mut self) -> usize {
        self.add_port_with(self.cfg.phys, self.cfg.credit)
    }

    /// Adds a port with explicit physical/credit configuration.
    pub fn add_port_with(&mut self, phys: PhysConfig, credit: CreditConfig) -> usize {
        let idx = self.ports.len();
        self.ports.push(LinkPort::new(phys, credit));
        // VOQ rows stay square (every row gains the new output's column);
        // the new row of the other disciplines starts with one queue.
        let keys = match self.cfg.queueing {
            QueueDiscipline::Voq => self.ports.len(),
            QueueDiscipline::Fifo | QueueDiscipline::Wormhole => 1,
        };
        self.queues.push(Vec::new());
        self.backlog.push(0);
        for row in &mut self.queues {
            if row.len() < keys {
                row.resize_with(keys, Queue::default);
            }
        }
        self.ramp.push(None);
        self.vc_links.push(None);
        self.gens.push(0);
        self.idle_until.push(SimTime::ZERO);
        self.waiters = vec![0; self.ports.len() * self.ports.len().div_ceil(64)];
        self.wake_all();
        idx
    }

    /// Enables per-virtual-channel flow control on `port` (a wormhole
    /// switch-to-switch link). Both ends of the link must be configured
    /// with the same `cfg`: the egress ledger created here mirrors the
    /// peer's per-lane ingress buffers. VC links must run error-free
    /// (`error_rate` 0) — retransmitted flits lose their hop-local lane
    /// tag — and their link-layer credit pools should be at least
    /// `vcs * buf_flits` per class so the per-lane ledgers, not the
    /// shared class pool, are the binding flow-control constraint (the
    /// escape-VC deadlock argument needs lane isolation).
    pub fn set_vc_link(&mut self, port: usize, cfg: VcConfig) {
        self.vc_links[port] = Some(VcLink::new(cfg));
        if self.cfg.queueing == QueueDiscipline::Wormhole {
            let lanes = usize::from(cfg.vcs.max(2));
            let row = &mut self.queues[port];
            if row.len() < lanes {
                row.resize_with(lanes, Queue::default);
            }
        }
        self.wake_all();
    }

    /// The VC credit ledger of an egress port, if configured.
    pub fn vc_link(&self, port: usize) -> Option<&VcLink> {
        self.vc_links[port].as_ref()
    }

    /// Total runtime VC credit-conservation violations across all ports.
    pub fn vc_violations(&self) -> u64 {
        self.vc_links.iter().flatten().map(|v| v.violations).sum()
    }

    /// Connects a port to its peer component.
    ///
    /// # Panics
    ///
    /// Panics if the port index is out of range.
    pub fn connect(&mut self, port: usize, peer: ComponentId) {
        self.ports[port].connect(peer);
        self.peer_to_port.insert(peer, port);
    }

    /// Number of ports.
    pub fn port_count(&self) -> usize {
        self.ports.len()
    }

    /// Drops every rate reservation whose flow touches `node` and returns
    /// how many were reclaimed. Part of drain: the arbiter's bandwidth
    /// shares for a departing node go back to the unreserved pool.
    pub fn reclaim_flows(&mut self, node: NodeId) -> usize {
        let before = self.flows.len();
        self.flows.retain(|f, _| f.src != node && f.dst != node);
        self.wake_all();
        before - self.flows.len()
    }

    /// Withdraws every PBR route toward `dst` mid-run (what
    /// [`RemovePbrRoute`] does); returns whether one existed. Builders may
    /// edit [`FabricSwitch::routing`] directly before traffic flows, but a
    /// mid-run edit must come through here so that heads parked on an
    /// egress resolve theirs again.
    pub fn remove_route(&mut self, dst: NodeId) -> bool {
        let removed = self.routing.remove_pbr(dst);
        self.rerouted();
        removed
    }

    /// After a route edit: re-resolves the worms' escape eligibility and
    /// wakes every parked head.
    fn rerouted(&mut self) {
        let routing = &self.routing;
        self.worms
            .reroute(|d| routing.route(d).and_then(|c| c.first().copied()));
        self.wake_all();
    }

    /// Moves `out`'s generation: heads parked on it run its gates again,
    /// and the inputs they wait in wake.
    fn wake(&mut self, out: usize) {
        self.gens[out] += 1;
        let words = self.ports.len().div_ceil(64);
        let row = &mut self.waiters[out * words..(out + 1) * words];
        for (w, bits) in row.iter_mut().enumerate() {
            let mut b = std::mem::take(bits);
            while b != 0 {
                self.idle_until[w * 64 + b.trailing_zeros() as usize] = SimTime::ZERO;
                b &= b - 1;
            }
        }
    }

    /// Moves every egress generation (route, rate, scheduler, window and
    /// port changes).
    fn wake_all(&mut self) {
        for g in &mut self.gens {
            *g += 1;
        }
        self.idle_until.fill(SimTime::ZERO);
        self.waiters.fill(0);
    }

    /// Detaches `port` at quiescence: verifies no flit is queued at or
    /// toward the port, nothing awaits tx credit, and the port's
    /// link-layer credit ledger balances, then forgets the peer binding
    /// (releasing any ramp-up allocation the input held). Routes through
    /// the port must be pruned first — see [`RemovePbrRoute`]. Returns
    /// the detached peer.
    pub fn detach_port(&mut self, port: usize) -> Result<ComponentId, String> {
        if port >= self.ports.len() {
            return Err(format!("port {port} out of range"));
        }
        let inbound = self.backlog[port];
        let busy = match self.cfg.queueing {
            QueueDiscipline::Fifo => {
                (inbound > 0).then(|| format!("port {port}: {inbound} flit(s) queued"))
            }
            QueueDiscipline::Voq => {
                let outbound: usize = self.queues.iter().map(|row| row[port].flits.len()).sum();
                (inbound + outbound > 0).then(|| {
                    format!("port {port}: {inbound} flit(s) from it, {outbound} toward it")
                })
            }
            QueueDiscipline::Wormhole => {
                (inbound > 0).then(|| format!("port {port}: {inbound} flit(s) in ingress lanes"))
            }
        };
        if let Some(busy) = busy {
            return Err(busy);
        }
        let toward = self.worms.toward(port);
        if toward > 0 {
            return Err(format!(
                "port {port}: {toward} worm(s) in transit toward it"
            ));
        }
        if let Some(vl) = &self.vc_links[port] {
            vl.audit()
                .map_err(|e| format!("port {port} vc ledger: {e}"))?;
        }
        if self.ports[port].pending_len() > 0 {
            return Err(format!(
                "port {port}: {} payload(s) awaiting tx credit",
                self.ports[port].pending_len()
            ));
        }
        self.ports[port]
            .link
            .audit()
            .map_err(|e| format!("port {port} ledger: {e}"))?;
        let peer = self.ports[port]
            .peer_opt()
            .ok_or_else(|| format!("port {port} already detached"))?;
        for state in self.ramp.iter_mut().flatten() {
            state.release_input(port);
        }
        self.peer_to_port.remove(&peer);
        self.wake_all();
        Ok(peer)
    }

    /// Access to a port (probes).
    pub fn port(&self, idx: usize) -> &LinkPort {
        &self.ports[idx]
    }

    /// Mutable access to a port (fault injection). Wakes every parked
    /// head: the caller may loosen any gate.
    pub fn port_mut(&mut self, idx: usize) -> &mut LinkPort {
        self.wake_all();
        &mut self.ports[idx]
    }

    /// Attaches a telemetry track; the switch then emits crossbar-forward
    /// and credit/arbitration wait spans for every dispatched flit.
    pub fn set_trace(&mut self, track: Track) {
        self.trace = track;
    }

    /// Installs (or replaces) the tenant admission scheduler. Builder
    /// form — install before traffic flows; the scheduler's window tick
    /// arms when the first flit is admitted. For installation mid-run,
    /// send [`InstallScheduler`] instead.
    pub fn install_scheduler(&mut self, sched: FabricScheduler) {
        self.sched = Some(sched);
        self.wake_all();
    }

    /// The installed tenant scheduler, if any.
    pub fn scheduler(&self) -> Option<&FabricScheduler> {
        self.sched.as_ref()
    }

    /// Mutable access to the installed tenant scheduler.
    pub fn scheduler_mut(&mut self) -> Option<&mut FabricScheduler> {
        self.sched.as_mut()
    }

    /// Total flits waiting in ingress queues.
    pub fn queued(&self) -> usize {
        self.backlog.iter().sum()
    }

    /// Current ramp-up allocations for an output (empty if unused).
    pub fn ramp_allocations(&self, output: usize) -> Vec<u32> {
        self.ramp[output]
            .as_ref()
            .map(|s| s.allocations().to_vec())
            .unwrap_or_default()
    }

    /// Audits every credit ledger this switch maintains: each port's link
    /// layer (see [`fcc_proto::link::LinkLayer::audit`]) and each output's
    /// ramp-up allocator (see [`RampUpState::audit`]).
    ///
    /// Call at quiescence; with flits in flight the in-transit credits are
    /// reported as imbalances. See [`crate::ledger`] for topology-wide
    /// sweeps.
    pub fn audit(&self) -> crate::ledger::AuditReport {
        let mut report = crate::ledger::AuditReport::default();
        for (p, port) in self.ports.iter().enumerate() {
            if let Err(e) = port.link.audit() {
                report.push(format!("port {p}"), e.to_string());
            }
        }
        for (out, state) in self.ramp.iter().enumerate() {
            if let Some(state) = state {
                if let Err(e) = state.audit() {
                    report.push(format!("ramp[output {out}]"), e);
                }
            }
        }
        for (p, vl) in self.vc_links.iter().enumerate() {
            if let Some(vl) = vl {
                if let Err(e) = vl.audit() {
                    report.push(format!("vc[port {p}]"), e);
                }
            }
        }
        if self.worms.len() > 0 {
            report.push(
                "worms",
                format!("{} transfer(s) still holding lanes", self.worms.len()),
            );
        }
        if let Some(sched) = &self.sched {
            if let Err(e) = sched.audit() {
                report.push("sched", e);
            }
        }
        report
    }

    fn flow_of(payload: &FlitPayload) -> FlowId {
        match payload {
            FlitPayload::Transaction(t) => FlowId {
                src: t.src,
                dst: t.dst,
            },
            FlitPayload::Data { src, dst, .. } => FlowId {
                src: *src,
                dst: *dst,
            },
            _ => FlowId {
                src: NodeId(0),
                dst: NodeId(0),
            },
        }
    }

    fn dst_of(payload: &FlitPayload) -> Option<NodeId> {
        match payload {
            FlitPayload::Transaction(t) => Some(t.dst),
            FlitPayload::Data { dst, .. } => Some(*dst),
            _ => None,
        }
    }

    /// Picks the output port for `dst`, adaptively if configured: among
    /// the candidates, choose the one with the least backlog, counting
    /// queued flits first (a credit-starved egress has an idle wire but a
    /// deep queue — the wire watermark alone would keep feeding it) and
    /// breaking ties on wire occupancy.
    fn pick_output(&self, dst: NodeId, now: SimTime) -> Option<usize> {
        let candidates = self.routing.route(dst)?;
        if candidates.is_empty() {
            return None;
        }
        if !self.cfg.adaptive || candidates.len() == 1 {
            return Some(candidates[0]);
        }
        candidates.iter().copied().min_by_key(|&p| {
            let queued: usize = match self.cfg.queueing {
                QueueDiscipline::Voq => self.queues.iter().map(|row| row[p].flits.len()).sum(),
                QueueDiscipline::Fifo | QueueDiscipline::Wormhole => 0,
            };
            // Under wormhole queueing the committed load on an egress is
            // the undelivered remainder of every worm routed toward it.
            let committed = self.worms.committed(p);
            let pending = self.ports[p].pending_len();
            let backlog = self.ports[p].wire_free_at().saturating_sub(now);
            (queued + committed as usize + pending, backlog, p)
        })
    }

    /// Returns the ingress lane credit for a departing (or dropped) flit.
    fn return_in_vc(&mut self, ctx: &mut Ctx<'_>, in_port: usize, in_vc: Option<u8>) {
        if let Some(v) = in_vc {
            self.ports[in_port].return_vc_credit(ctx, v, 1);
        }
    }

    /// Drops a flit that has no usable route, returning its ingress credits.
    fn drop_unroutable(
        &mut self,
        ctx: &mut Ctx<'_>,
        in_port: usize,
        class: MsgClass,
        in_vc: Option<u8>,
    ) {
        self.unroutable.inc();
        self.ports[in_port].release(ctx, class);
        self.return_in_vc(ctx, in_port, in_vc);
    }

    fn admit(
        &mut self,
        ctx: &mut Ctx<'_>,
        in_port: usize,
        payload: FlitPayload,
        in_vc: Option<u8>,
    ) {
        let Some(dst) = Self::dst_of(&payload) else {
            // Pure control should have been consumed by the link layer.
            self.ports[in_port].release(ctx, payload.msg_class());
            self.return_in_vc(ctx, in_port, in_vc);
            return;
        };
        let class = payload.msg_class();
        let flow = Self::flow_of(&payload);
        let ready_at = ctx.now() + self.cfg.fwd_latency;
        // Output resolution is deferred to dispatch for adaptive routing,
        // but unroutable flits are dropped immediately.
        let Some(primary) = self.routing.route(dst).map(|c| c.first().copied()) else {
            self.drop_unroutable(ctx, in_port, class, in_vc);
            return;
        };
        let key = match self.cfg.queueing {
            QueueDiscipline::Fifo => Some(0),
            // route() was checked above, but a racing route removal
            // would leave no candidate: drop rather than panic.
            QueueDiscipline::Voq => self.pick_output(dst, ctx.now()),
            QueueDiscipline::Wormhole => {
                // A worm's body flits follow the head's egress; a header
                // (or an orphan data slot) is routed and opens a worm.
                let routed = self.worms.joins(&payload)
                    || self.pick_output(dst, ctx.now()).is_some_and(|out| {
                        let mode = self.ports[in_port].phys.flit_mode;
                        let escape_ok = primary == Some(out);
                        if let Some(old) = self.worms.admit(&payload, dst, out, escape_ok, mode) {
                            // A header replaced a worm: flits parked on the
                            // old one's egress now follow the new one.
                            self.wake(old);
                        }
                        true
                    });
                let lanes = self.queues[in_port].len();
                routed.then(|| usize::from(in_vc.unwrap_or(0)).min(lanes.saturating_sub(1)))
            }
        };
        let Some(key) = key else {
            self.drop_unroutable(ctx, in_port, class, in_vc);
            return;
        };
        self.queues[in_port][key].flits.push_back(Entry {
            payload,
            class,
            ready_at,
            flow,
            enqueued_at: ctx.now(),
            in_vc,
        });
        self.backlog[in_port] += 1;
        self.idle_until[in_port] = SimTime::ZERO;
        self.arm_tick(ctx);
        self.arm_sched_tick(ctx);
        self.request_kick(ctx, ready_at);
    }

    /// Schedules a Kick at `at`, suppressing duplicates: at most one Kick
    /// is pending at a time (redundant kicks at the same ready time would
    /// otherwise multiply into an event storm under contention).
    fn request_kick(&mut self, ctx: &mut Ctx<'_>, at: SimTime) {
        if let Some(t) = self.next_kick_at {
            if t <= at {
                return;
            }
        }
        self.next_kick_at = Some(at);
        ctx.send_self(at - ctx.now(), Kick);
    }

    fn arm_tick(&mut self, ctx: &mut Ctx<'_>) {
        if self.tick_armed {
            return;
        }
        if let AllocPolicy::RampUp { window, .. } = self.cfg.allocation {
            self.tick_armed = true;
            ctx.send_self(window, WindowTick);
        }
    }

    /// Arms the tenant scheduler's window rollover, if one is installed
    /// and not already pending. Re-armed from the tick handler while
    /// flits are queued, so an exhausted tenant's flits always have a
    /// refill coming — the admission gate can defer but never strand.
    fn arm_sched_tick(&mut self, ctx: &mut Ctx<'_>) {
        if self.sched_tick_armed {
            return;
        }
        if let Some(sched) = &self.sched {
            self.sched_tick_armed = true;
            ctx.send_self(sched.window(), SchedTick);
        }
    }

    /// Non-consuming tenant admission probe for a flit of `flow`.
    fn sched_admits(&mut self, flow: FlowId) -> bool {
        self.sched.as_mut().is_none_or(|s| s.admits(flow.src))
    }

    fn ramp_state(&mut self, output: usize) -> Option<&mut RampUpState> {
        if let AllocPolicy::RampUp {
            floor,
            ceiling,
            pool,
            ..
        } = self.cfg.allocation
        {
            let inputs = self.ports.len();
            Some(
                self.ramp[output]
                    .get_or_insert_with(|| RampUpState::new(inputs, floor, ceiling, pool)),
            )
        } else {
            None
        }
    }

    /// Whether the allocation policy lets input `i` send to `out` now.
    /// Returns the retry time if the flit is rate-limited.
    fn policy_gate(
        &mut self,
        i: usize,
        out: usize,
        flow: FlowId,
        now: SimTime,
        reserved_phase: bool,
    ) -> Result<(), Option<SimTime>> {
        match self.cfg.allocation {
            AllocPolicy::Fair => {
                if reserved_phase {
                    Err(None)
                } else {
                    Ok(())
                }
            }
            AllocPolicy::RampUp { .. } => {
                if reserved_phase {
                    return Err(None);
                }
                // ramp_state is Some whenever the policy is RampUp; treat
                // the impossible None as "no allocation gate".
                match self.ramp_state(out) {
                    Some(state) if !state.may_send(i) => Err(None),
                    _ => Ok(()),
                }
            }
            AllocPolicy::Arbitrated => {
                let is_reserved = self.flows.contains_key(&flow);
                if is_reserved != reserved_phase {
                    return Err(None);
                }
                if let Some(bucket) = self.flows.get_mut(&flow) {
                    let bytes = self.cfg.phys.flit_mode.bytes();
                    let at = bucket.earliest(now, bytes);
                    if at > now {
                        return Err(Some(at));
                    }
                }
                Ok(())
            }
        }
    }

    fn record_send(&mut self, i: usize, out: usize, flow: FlowId, now: SimTime) {
        if let Some(state) = self.ramp_state(out) {
            state.on_send(i);
        }
        if let Some(bucket) = self.flows.get_mut(&flow) {
            bucket.force_consume(now, self.cfg.phys.flit_mode.bytes());
        }
        if let Some(sched) = self.sched.as_mut() {
            sched.charge(flow.src);
        }
    }

    /// One scheduling sweep: move every dispatchable flit to its egress.
    fn schedule(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let n = self.ports.len();
        let mut next_kick: Option<SimTime> = None;
        // Reserved traffic first (only meaningful under Arbitrated).
        for reserved_phase in [true, false] {
            if reserved_phase && !matches!(self.cfg.allocation, AllocPolicy::Arbitrated) {
                continue;
            }
            let mut progress = true;
            while progress {
                progress = false;
                for step in 0..n {
                    let i = (self.rr_input + step) % n;
                    if self.try_dispatch_input(ctx, i, now, reserved_phase, &mut next_kick) {
                        progress = true;
                    }
                }
                self.rr_input = (self.rr_input + 1) % n;
            }
        }
        if let Some(at) = next_kick {
            self.request_kick(ctx, at);
        }
    }

    /// Attempts to dispatch one flit from input `i`; returns whether one
    /// moved. Scans the input's keyed queues (see the module docs for the
    /// key scheme, the gate order and the park/wake rule) and sends the
    /// first head that clears every gate.
    fn try_dispatch_input(
        &mut self,
        ctx: &mut Ctx<'_>,
        i: usize,
        now: SimTime,
        reserved_phase: bool,
        next_kick: &mut Option<SimTime>,
    ) -> bool {
        if self.backlog[i] == 0 {
            return false;
        }
        let until = self.idle_until[i];
        if now < until {
            if until < SimTime::MAX {
                self.note_kick(next_kick, until);
            }
            return false;
        }
        let keys = self.queues[i].len();
        let first = match self.cfg.queueing {
            QueueDiscipline::Voq => i,
            QueueDiscipline::Fifo | QueueDiscipline::Wormhole => 0,
        };
        // Whether a parked head's gates in front of the park are free of
        // side effects: no deferral to count, no token bucket to refill,
        // no retry to note.
        let quiet = self.sched.is_none() && !matches!(self.cfg.allocation, AllocPolicy::Arbitrated);
        // Ready heads that end the scan not parked (quietly) at a current
        // generation, and the earliest time a head not yet ready will be.
        let mut restless = 0usize;
        let mut wake_at = SimTime::MAX;
        for k in 0..keys {
            // `(first + k) % keys` without a division: sweeps probe every
            // input many times per event, so each probe must stay cheap.
            let key = first + k;
            let key = if key < keys { key } else { key - keys };
            let q = &self.queues[i][key];
            let Some(head) = q.flits.front() else {
                continue;
            };
            let (ready_at, flow, class) = (head.ready_at, head.flow, head.class);
            let (id, dst) = (head.payload.trace_id(), Self::dst_of(&head.payload));
            // A head parked at a generation that has not moved would fail
            // its credit or lane gate again: only the gates in front run.
            let parked = q.parked.filter(|p| self.gens[p.out] == p.gen);
            if ready_at > now {
                self.note_kick(next_kick, ready_at);
                wake_at = wake_at.min(ready_at);
                continue;
            }
            restless += usize::from(parked.is_none() || !quiet);
            let (out, worm) = match parked {
                Some(p) => (p.out, None),
                None => match self.head_egress(key, id, dst, now) {
                    Some(egress) => egress,
                    None if self.cfg.queueing == QueueDiscipline::Wormhole => {
                        // Every wormhole-admitted flit has a worm (created
                        // at admit); a missing one means its transfer raced
                        // a teardown — drop.
                        if let Some(entry) = self.pop_head(i, key) {
                            self.drop_unroutable(ctx, i, entry.class, entry.in_vc);
                        }
                        return true;
                    }
                    // FIFO: the head's destination lost its routes; the
                    // queue waits behind it.
                    None => continue,
                },
            };
            match self.policy_gate(i, out, flow, now, reserved_phase) {
                Ok(()) => {}
                Err(Some(at)) => {
                    self.note_kick(next_kick, at);
                    continue;
                }
                // Under FIFO this is HOL blocking: the whole input queue
                // waits behind its head.
                Err(None) => continue,
            }
            // Tenant out of partition credits: wait for the SchedTick refill.
            if !self.sched_admits(flow) {
                continue;
            }
            // Parked at a current generation: the gates behind would fail.
            if parked.is_some() {
                continue;
            }
            let out_vc = if self.ports[out].link.can_send(class) {
                self.egress_lane(id, worm)
            } else {
                None
            };
            let Some(out_vc) = out_vc else {
                restless -= usize::from(self.park(i, key, out) && quiet);
                continue;
            };
            let Some(entry) = self.pop_head(i, key) else {
                continue;
            };
            if self.worms.advance(id, self.vc_links[out].as_mut(), out_vc) {
                // The tail freed its lane and retired its worm.
                self.wake(out);
            }
            self.finish_dispatch(ctx, i, out, entry, now, out_vc);
            return true;
        }
        if restless == 0 {
            self.idle_until[i] = wake_at;
        }
        false
    }

    /// Parks the head of input `i`'s queue `key` at egress `out`'s current
    /// generation; returns whether it parked. Adaptive FIFO heads never
    /// park: their egress is re-picked against the wire backlog at `now`.
    fn park(&mut self, i: usize, key: usize, out: usize) -> bool {
        if self.cfg.queueing == QueueDiscipline::Fifo && self.cfg.adaptive {
            return false;
        }
        self.queues[i][key].parked = Some(Park {
            out,
            gen: self.gens[out],
        });
        let words = self.ports.len().div_ceil(64);
        self.waiters[out * words + i / 64] |= 1 << (i % 64);
        true
    }

    /// Pops the head of input `i`'s queue `key`, keeping `backlog` in step.
    fn pop_head(&mut self, i: usize, key: usize) -> Option<Entry> {
        let q = &mut self.queues[i][key];
        let entry = q.flits.pop_front()?;
        q.parked = None;
        self.backlog[i] -= 1;
        Some(entry)
    }

    /// The egress of the head of queue `key` (transaction `id`, bound for
    /// `dst`): routed now under FIFO, the key under VOQ, the worm's under
    /// Wormhole — with the worm's lane state.
    fn head_egress(
        &self,
        key: usize,
        id: u64,
        dst: Option<NodeId>,
        now: SimTime,
    ) -> Option<(usize, Option<WormLane>)> {
        match self.cfg.queueing {
            QueueDiscipline::Fifo => dst
                .and_then(|d| self.pick_output(d, now))
                .map(|o| (o, None)),
            QueueDiscipline::Voq => Some((key, None)),
            QueueDiscipline::Wormhole => self.worms.get(id).map(|w| (w.out, Some(w))),
        }
    }

    /// The egress lane gate for the head of worm `id` (`worm` is `None`
    /// outside Wormhole): `Some(lane)` when it may go (`Some(None)`
    /// outside VC flow control), `None` when it must wait for a lane.
    fn egress_lane(&self, id: u64, worm: Option<WormLane>) -> Option<Option<u8>> {
        match worm {
            Some(w) => w.gate(id, self.vc_links[w.out].as_ref()),
            None => Some(None),
        }
    }

    fn finish_dispatch(
        &mut self,
        ctx: &mut Ctx<'_>,
        i: usize,
        out: usize,
        entry: Entry,
        now: SimTime,
        out_vc: Option<u8>,
    ) {
        self.record_send(i, out, entry.flow, now);
        self.queue_delay_ps.add((now - entry.enqueued_at).as_ps());
        if self.trace.is_enabled() {
            let ctx_id = entry.payload.trace_ctx();
            // Crossbar transit (fixed fwd latency), then any time the flit
            // sat *ready* but undispatched: egress credit starvation under
            // Fair allocation, allocator gating otherwise.
            self.trace.span_merged(
                "switch",
                "switch.forward",
                entry.enqueued_at,
                entry.ready_at,
                ctx_id,
            );
            let (cat, name) = if self.cfg.queueing == QueueDiscipline::Wormhole {
                // Under wormhole switching, ready-but-undispatched time is
                // dominated by per-lane credit/allocation waits.
                ("credit", "switch.vc_wait")
            } else {
                match self.cfg.allocation {
                    AllocPolicy::Fair => ("credit", "switch.credit_wait"),
                    AllocPolicy::RampUp { .. } | AllocPolicy::Arbitrated => {
                        ("arb", "switch.arb_wait")
                    }
                }
            };
            self.trace
                .span_nonzero_merged(cat, name, entry.ready_at, now, ctx_id);
        }
        self.forwarded.inc();
        self.ports[out].send_now_vc(ctx, entry.payload, out_vc);
        self.ports[i].release(ctx, entry.class);
        self.return_in_vc(ctx, i, entry.in_vc);
    }

    #[allow(clippy::trivially_copy_pass_by_ref)]
    fn note_kick(&self, next: &mut Option<SimTime>, at: SimTime) {
        match next {
            Some(t) if *t <= at => {}
            _ => *next = Some(at),
        }
    }

    fn on_flit(&mut self, ctx: &mut Ctx<'_>, in_port: usize, fm: FlitMsg) {
        match self.ports[in_port].receive(ctx, fm) {
            PortEvent::Delivered(payload, in_vc) => self.admit(ctx, in_port, payload, in_vc),
            PortEvent::CreditFreed => {
                self.wake(in_port);
                self.schedule(ctx);
            }
            PortEvent::VcCreditReturned { vc, credits } => {
                if let Some(vl) = self.vc_links[in_port].as_mut() {
                    vl.refund(vc, credits);
                }
                self.wake(in_port);
                self.schedule(ctx);
            }
            PortEvent::Quiet => {}
        }
    }
}

impl Component for FabricSwitch {
    fn on_msg(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        let src = msg.src;
        let msg = match msg.downcast::<FlitMsg>() {
            Ok(fm) => {
                // Flits arrive only via ctx.send from a wired peer; a
                // source-less or unknown sender is a topology bug.
                #[allow(clippy::expect_used)]
                let src = src.expect("flits always have a source");
                #[allow(clippy::expect_used)]
                let port = *self
                    .peer_to_port
                    .get(&src)
                    .expect("flit from unconnected component");
                self.on_flit(ctx, port, fm);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<Kick>() {
            Ok(Kick) => {
                // Clear before sweeping so the sweep may arm a new kick.
                if self.next_kick_at.is_some_and(|t| t <= ctx.now()) {
                    self.next_kick_at = None;
                }
                self.schedule(ctx);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<WindowTick>() {
            Ok(WindowTick) => {
                for state in self.ramp.iter_mut().flatten() {
                    debug_assert!(state.audit().is_ok(), "{:?}", state.audit());
                    state.rollover();
                    debug_assert!(state.audit().is_ok(), "{:?}", state.audit());
                }
                self.tick_armed = false;
                self.wake_all();
                if self.queued() > 0 {
                    self.arm_tick(ctx);
                    self.schedule(ctx);
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<SchedTick>() {
            Ok(SchedTick) => {
                if let Some(sched) = self.sched.as_mut() {
                    debug_assert!(sched.audit().is_ok(), "{:?}", sched.audit());
                    sched.rollover();
                    debug_assert!(sched.audit().is_ok(), "{:?}", sched.audit());
                }
                self.sched_tick_armed = false;
                self.wake_all();
                if self.queued() > 0 {
                    self.arm_sched_tick(ctx);
                    self.schedule(ctx);
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<InstallScheduler>() {
            Ok(r) => {
                self.install_scheduler(r.sched);
                if self.queued() > 0 {
                    self.arm_sched_tick(ctx);
                    self.schedule(ctx);
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<InstallPbrRoute>() {
            Ok(r) => {
                self.routing.add_pbr(r.dst, r.port);
                self.rerouted();
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<RemovePbrRoute>() {
            Ok(r) => {
                self.remove_route(r.dst);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<InstallHbrRoute>() {
            Ok(r) => {
                self.routing.add_hbr(r.domain, r.port);
                self.rerouted();
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<SetNodeDomain>() {
            Ok(r) => {
                self.routing.set_domain(r.node, r.domain);
                self.rerouted();
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<InstallRate>() {
            Ok(r) => {
                self.flows
                    .insert(r.flow, TokenBucket::new(r.gbps, r.burst_bytes.max(1)));
                self.wake_all();
                self.schedule(ctx);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<RemoveRate>() {
            Ok(r) => {
                self.flows.remove(&r.flow);
                self.wake_all();
                self.schedule(ctx);
                return;
            }
            Err(m) => m,
        };
        match msg.downcast::<DiscoverReq>() {
            Ok(req) => {
                let peers: Vec<ComponentId> = (0..self.ports.len())
                    .map(|p| self.ports[p].peer())
                    .collect();
                let rsp = DiscoverRsp {
                    switch: ctx.self_id(),
                    peers,
                };
                ctx.send(req.reply_to, SimTime::from_ns(100.0), rsp);
            }
            Err(m) => panic!("switch: unexpected message {}", m.type_name()),
        }
    }

    fn outstanding(&self, out: &mut Vec<PendingWork>) {
        for (i, row) in self.queues.iter().enumerate() {
            for (key, q) in row.iter().enumerate() {
                let Some(head) = q.flits.front() else {
                    continue;
                };
                let n = q.flits.len();
                let what = match self.cfg.queueing {
                    QueueDiscipline::Fifo => format!("{n} flit(s) queued at input {i}"),
                    QueueDiscipline::Voq => format!("{n} flit(s) queued input {i} -> output {key}"),
                    QueueDiscipline::Wormhole => format!("{n} flit(s) queued input {i} lane {key}"),
                };
                // The queue waits on its head's egress.
                let (id, dst) = (head.payload.trace_id(), Self::dst_of(&head.payload));
                let waiting_on = self
                    .head_egress(key, id, dst, SimTime::ZERO)
                    .and_then(|(o, _)| self.ports[o].peer_opt());
                out.push(PendingWork { what, waiting_on });
            }
        }
        for (p, port) in self.ports.iter().enumerate() {
            if port.pending_len() > 0 {
                out.push(PendingWork {
                    what: format!(
                        "{} payload(s) awaiting tx credit on port {p}",
                        port.pending_len()
                    ),
                    waiting_on: port.peer_opt(),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn port_growth_keeps_voq_square() {
        let mut sw = FabricSwitch::new(SwitchConfig::fabrex_like());
        for _ in 0..5 {
            sw.add_port();
        }
        assert_eq!(sw.port_count(), 5);
        assert_eq!(sw.queues.len(), 5);
        for row in &sw.queues {
            assert_eq!(row.len(), 5);
        }
        assert_eq!(sw.queued(), 0);

        // The other disciplines key one queue per input; a VC link widens
        // its wormhole row to one queue per lane.
        for q in [QueueDiscipline::Fifo, QueueDiscipline::Wormhole] {
            let mut sw = FabricSwitch::new(SwitchConfig {
                queueing: q,
                ..SwitchConfig::fabrex_like()
            });
            for _ in 0..5 {
                sw.add_port();
            }
            sw.set_vc_link(3, VcConfig::default());
            let keys: Vec<usize> = sw.queues.iter().map(Vec::len).collect();
            let lanes = if q == QueueDiscipline::Wormhole { 4 } else { 1 };
            assert_eq!(keys, [1, 1, 1, lanes, 1], "{q:?}");
        }
    }

    /// Swallows host completions.
    struct Sink;

    impl Component for Sink {
        fn on_msg(&mut self, _ctx: &mut Ctx<'_>, _msg: Msg) {}
    }

    #[test]
    fn starved_egress_backlog_reads_the_same_under_every_discipline() {
        use crate::adapter::{Fea, HostOp, HostRequest};
        use crate::endpoint::FixedLatencyMemory;
        use crate::topology::{self, TopologySpec, FAM_BASE};
        use fcc_sim::Engine;

        // Per discipline: the `outstanding()` text of inputs 0 and 1, and
        // the refusals of detaching the busy host port 0 and the starved
        // device port 2. FIFO resolves egress at dispatch, so it keeps no
        // per-output backlog to refuse port 2 with and is not probed there.
        let cases = [
            (
                QueueDiscipline::Fifo,
                ["3 flit(s) queued at input 0", "2 flit(s) queued at input 1"],
                vec![(0, "port 0: 3 flit(s) queued")],
            ),
            (
                QueueDiscipline::Voq,
                [
                    "3 flit(s) queued input 0 -> output 2",
                    "2 flit(s) queued input 1 -> output 2",
                ],
                vec![
                    (0, "port 0: 3 flit(s) from it, 0 toward it"),
                    (2, "port 2: 0 flit(s) from it, 5 toward it"),
                ],
            ),
            (
                QueueDiscipline::Wormhole,
                [
                    "3 flit(s) queued input 0 lane 0",
                    "2 flit(s) queued input 1 lane 0",
                ],
                vec![
                    (0, "port 0: 3 flit(s) in ingress lanes"),
                    (2, "port 2: 3 worm(s) in transit toward it"),
                ],
            ),
        ];
        for (q, what, refusals) in cases {
            let mut engine = Engine::new(0x5A);
            let mut spec = TopologySpec::default();
            spec.switch.queueing = q;
            // Two credits per class on every link.
            let tight = CreditConfig {
                buffer_flits: 8,
                return_threshold: 1,
                ..CreditConfig::default()
            };
            spec.switch.credit = tight;
            spec.credit = tight;
            let dev = Box::new(FixedLatencyMemory::new(
                SimTime::from_ns(2000.0),
                SimTime::from_ns(2000.0),
                1 << 26,
            ));
            // Hosts take ports 0 and 1, the device port 2.
            let topo = topology::single_switch(&mut engine, spec, 2, vec![dev]);
            let fea = topo.devices[0].fea;
            // One admission slot: parked requests keep holding their
            // ingress credit, so the switch's egress toward the device
            // starves.
            engine.component_mut::<Fea>(fea).set_queue_depth(1);
            let sink = engine.add_component("sink", Sink);
            for i in 0..12u64 {
                let addr = FAM_BASE + i * 256;
                let op = if i % 2 == 0 {
                    HostOp::Write { addr, bytes: 256 }
                } else {
                    HostOp::Read { addr, bytes: 64 }
                };
                engine.post(
                    topo.hosts[(i % 2) as usize].fha,
                    SimTime::ZERO,
                    HostRequest {
                        op,
                        tag: i,
                        reply_to: sink,
                    },
                );
            }
            let sw_id = topo.switches[0];
            engine.run_until(SimTime::from_ns(1500.0));
            let sw = engine.component_mut::<FabricSwitch>(sw_id);
            assert_eq!(sw.queued(), 5, "{q:?}");
            let mut work = Vec::new();
            sw.outstanding(&mut work);
            let got: Vec<(&str, Option<ComponentId>)> = work
                .iter()
                .map(|w| (w.what.as_str(), w.waiting_on))
                .collect();
            assert_eq!(got, what.map(|w| (w, Some(fea))), "{q:?}");
            for (port, msg) in refusals {
                assert_eq!(sw.detach_port(port), Err(msg.to_string()), "{q:?}");
            }
            engine.run_until_idle();
            let sw = engine.component::<FabricSwitch>(sw_id);
            assert_eq!(sw.queued(), 0, "{q:?}");
            let mut work = Vec::new();
            sw.outstanding(&mut work);
            assert!(work.is_empty(), "{q:?}");
            assert!(sw.audit().is_clean(), "{q:?}: {:?}", sw.audit());
        }
    }

    /// A link endpoint the wake-up tests drive: sends the payloads it is
    /// handed, records what arrives, and — while `hold` — keeps every
    /// arrival in its receive buffer, so the switch's egress toward it
    /// runs out of credit.
    struct Peer {
        port: LinkPort,
        hold: bool,
        held: Vec<(MsgClass, Option<u8>)>,
        got: Vec<(SimTime, FlitPayload)>,
    }

    /// What a test tells a [`Peer`] to do.
    enum Do {
        Send(Vec<FlitPayload>),
        Release,
    }

    impl Peer {
        fn release(&mut self, ctx: &mut Ctx<'_>) {
            for (class, vc) in self.held.drain(..) {
                self.port.release(ctx, class);
                if let Some(v) = vc {
                    self.port.return_vc_credit(ctx, v, 1);
                }
            }
        }
    }

    impl Component for Peer {
        fn on_msg(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
            let msg = match msg.downcast::<FlitMsg>() {
                Ok(fm) => {
                    if let PortEvent::Delivered(payload, vc) = self.port.receive(ctx, fm) {
                        self.held.push((payload.msg_class(), vc));
                        self.got.push((ctx.now(), payload));
                        if !self.hold {
                            self.release(ctx);
                        }
                    }
                    return;
                }
                Err(m) => m,
            };
            match msg.downcast::<Do>() {
                Ok(Do::Send(payloads)) => {
                    for p in payloads {
                        assert!(self.port.enqueue(ctx, p));
                    }
                }
                Ok(Do::Release) => {
                    self.hold = false;
                    self.release(ctx);
                }
                Err(m) => panic!("peer: unexpected message {}", m.type_name()),
            }
        }
    }

    /// A switch under `q` whose port `p` faces a [`Peer`] built from
    /// `peers[p]`: (holds its receive buffer, has two credits per class).
    fn rig(
        q: QueueDiscipline,
        peers: &[(bool, bool)],
    ) -> (fcc_sim::Engine, ComponentId, Vec<ComponentId>) {
        let cfg = SwitchConfig {
            queueing: q,
            ..SwitchConfig::fabrex_like()
        };
        let mut engine = fcc_sim::Engine::new(0x5B);
        let sw = engine.add_component("sw", FabricSwitch::new(cfg));
        let mut ids = Vec::new();
        for (p, &(hold, tight)) in peers.iter().enumerate() {
            let credit = if tight {
                CreditConfig {
                    buffer_flits: 8,
                    return_threshold: 1,
                    ..CreditConfig::default()
                }
            } else {
                CreditConfig::default()
            };
            let mut port = LinkPort::new(cfg.phys, credit);
            port.connect(sw);
            let peer = Peer {
                port,
                hold,
                held: Vec::new(),
                got: Vec::new(),
            };
            let id = engine.add_component(format!("peer{p}"), peer);
            let s = engine.component_mut::<FabricSwitch>(sw);
            assert_eq!(s.add_port_with(cfg.phys, credit), p);
            s.connect(p, id);
            ids.push(id);
        }
        (engine, sw, ids)
    }

    fn txn(id: u64, op: fcc_proto::channel::MemOpcode, bytes: u32, dst: u16) -> FlitPayload {
        FlitPayload::Transaction(fcc_proto::channel::Transaction {
            id,
            kind: fcc_proto::channel::TransactionKind::Mem(op),
            addr: id * 64,
            bytes,
            src: NodeId(3),
            dst: NodeId(dst),
        })
    }

    fn read(id: u64, dst: u16) -> FlitPayload {
        txn(id, fcc_proto::channel::MemOpcode::MemRd, 0, dst)
    }

    #[test]
    fn a_head_parked_on_a_starved_egress_moves_on_the_credit_that_refills_it() {
        let hop = {
            let phys = SwitchConfig::fabrex_like().phys;
            phys.flit_serialization() + phys.propagation
        };
        for q in [
            QueueDiscipline::Fifo,
            QueueDiscipline::Voq,
            QueueDiscipline::Wormhole,
        ] {
            // Port 0 sends three reads toward port 1, whose peer holds
            // them: two credits, so the third head waits at the switch.
            let (mut engine, sw, peers) = rig(q, &[(false, false), (true, true)]);
            engine
                .component_mut::<FabricSwitch>(sw)
                .routing
                .add_pbr(NodeId(9), 1);
            let reads = (1..=3).map(|id| read(id, 9)).collect();
            engine.post(peers[0], SimTime::ZERO, Do::Send(reads));
            let release_at = SimTime::from_ns(5000.0);
            engine.run_until(release_at);
            assert_eq!(engine.component::<FabricSwitch>(sw).queued(), 1, "{q:?}");
            assert_eq!(engine.component::<Peer>(peers[1]).got.len(), 2, "{q:?}");
            // The first credit the release returns reaches the switch one
            // hop later; the parked head leaves in that event.
            engine.post(peers[1], release_at, Do::Release);
            engine.run_until_idle();
            let got = &engine.component::<Peer>(peers[1]).got;
            assert_eq!(got.len(), 3, "{q:?}");
            assert_eq!(got[2].0, release_at + hop + hop, "{q:?}");
            assert_eq!(engine.component::<FabricSwitch>(sw).queued(), 0, "{q:?}");
        }
    }

    #[test]
    fn a_header_waiting_for_a_lane_moves_in_the_sweep_its_holder_tail_leaves() {
        use fcc_proto::channel::MemOpcode;
        use fcc_proto::flit::flits_for_transfer;

        // Ports 0 and 2 each open a two-lane-holding write worm toward
        // port 1; port 3's read header then finds both lanes held.
        let (mut engine, sw, peers) = rig(
            QueueDiscipline::Wormhole,
            &[
                (false, false),
                (false, false),
                (false, false),
                (false, false),
            ],
        );
        let bytes = 2 * SwitchConfig::fabrex_like().phys.flit_mode.payload_bytes() as u32;
        let slots = flits_for_transfer(SwitchConfig::fabrex_like().phys.flit_mode, bytes.into());
        {
            let s = engine.component_mut::<FabricSwitch>(sw);
            s.routing.add_pbr(NodeId(9), 1);
            s.set_vc_link(
                1,
                VcConfig {
                    vcs: 2,
                    buf_flits: 8,
                },
            );
        }
        let data = |id: u64| -> Vec<FlitPayload> {
            (0..slots as u32)
                .map(|slot| FlitPayload::Data {
                    txn_id: id,
                    slot,
                    src: NodeId(3),
                    dst: NodeId(9),
                })
                .collect()
        };
        engine.post(
            peers[0],
            SimTime::ZERO,
            Do::Send(vec![txn(1, MemOpcode::MemWr, bytes, 9)]),
        );
        engine.post(
            peers[2],
            SimTime::ZERO,
            Do::Send(vec![txn(2, MemOpcode::MemWr, bytes, 9)]),
        );
        engine.post(
            peers[3],
            SimTime::from_ns(1000.0),
            Do::Send(vec![read(3, 9)]),
        );
        engine.post(peers[0], SimTime::from_ns(3000.0), Do::Send(data(1)));
        engine.post(peers[2], SimTime::from_ns(6000.0), Do::Send(data(2)));
        engine.run_until(SimTime::from_ns(3000.0));
        let sw_ref = engine.component::<FabricSwitch>(sw);
        assert_eq!(sw_ref.forwarded.get(), 2, "both write headers hold a lane");
        assert_eq!(sw_ref.queued(), 1, "the read header waits for a lane");
        // Worm 1's body drains; the event that moves its tail frees the
        // lane and, in the same sweep, moves the waiting read header.
        let mut last_step = 0;
        while engine.component::<FabricSwitch>(sw).queued() > 0 {
            let before = engine.component::<FabricSwitch>(sw).forwarded.get();
            assert!(engine.step());
            assert!(engine.now() < SimTime::from_ns(6000.0));
            last_step = engine.component::<FabricSwitch>(sw).forwarded.get() - before;
        }
        assert_eq!(last_step, 2, "tail and waiting header leave in one sweep");
        engine.run_until_idle();
        let sw_ref = engine.component::<FabricSwitch>(sw);
        assert_eq!(sw_ref.forwarded.get(), 3 + 2 * slots);
        assert!(sw_ref.audit().is_clean(), "{:?}", sw_ref.audit());
    }

    #[test]
    fn a_parked_head_still_counts_a_deferral_when_its_tenant_runs_dry() {
        use fcc_sched::{CreditPartition, TenantShare};

        // Port 0 sends three reads toward starved port 1; port 2 sends one
        // toward port 3. All four come from tenant 7, which may send three
        // flits per (long) window.
        let (mut engine, sw, peers) = rig(
            QueueDiscipline::Fifo,
            &[(false, false), (true, true), (false, false), (false, false)],
        );
        {
            let s = engine.component_mut::<FabricSwitch>(sw);
            s.routing.add_pbr(NodeId(9), 1);
            s.routing.add_pbr(NodeId(10), 3);
            let mut part = CreditPartition::new(3);
            part.add_tenant(
                7,
                TenantShare {
                    group: 0,
                    weight: 1,
                    floor: 1,
                },
            );
            let mut sched = FabricScheduler::new(part, SimTime::from_ns(1_000_000.0));
            sched.map_node(NodeId(3), 7);
            s.install_scheduler(sched);
        }
        let reads = (1..=3).map(|id| read(id, 9)).collect();
        engine.post(peers[0], SimTime::ZERO, Do::Send(reads));
        engine.run_until(SimTime::from_ns(2000.0));
        let sched = engine.component::<FabricSwitch>(sw).scheduler().unwrap();
        assert_eq!((sched.admitted, sched.deferred), (2, 0));
        // The third read is parked at port 1's credit gate. Port 2's read
        // spends the tenant's last credit; the parked head still reaches
        // the tenant gate in front of its park and is deferred there.
        engine.post(
            peers[2],
            SimTime::from_ns(2000.0),
            Do::Send(vec![read(4, 10)]),
        );
        engine.run_until(SimTime::from_ns(4000.0));
        let s = engine.component::<FabricSwitch>(sw);
        assert_eq!(engine.component::<Peer>(peers[3]).got.len(), 1);
        assert_eq!(s.queued(), 1);
        let sched = s.scheduler().unwrap();
        assert_eq!(sched.admitted, 3);
        assert!(sched.deferred >= 1, "deferred {}", sched.deferred);
    }

    #[test]
    fn a_fifo_head_behind_a_removed_route_resolves_its_egress_again() {
        // Port 0's third read toward node 9 waits at starved port 1. The
        // route to node 9 then moves to port 3; the next sweep (port 2's
        // read arriving) must send the waiting head there.
        let (mut engine, sw, peers) = rig(
            QueueDiscipline::Fifo,
            &[(false, false), (true, true), (false, false), (false, false)],
        );
        {
            let s = engine.component_mut::<FabricSwitch>(sw);
            s.routing.add_pbr(NodeId(9), 1);
            s.routing.add_pbr(NodeId(10), 3);
        }
        let reads = (1..=3).map(|id| read(id, 9)).collect();
        engine.post(peers[0], SimTime::ZERO, Do::Send(reads));
        engine.run_until(SimTime::from_ns(2000.0));
        assert_eq!(engine.component::<FabricSwitch>(sw).queued(), 1);
        let at = SimTime::from_ns(2000.0);
        engine.post(sw, at, RemovePbrRoute { dst: NodeId(9) });
        engine.post(
            sw,
            at,
            InstallPbrRoute {
                dst: NodeId(9),
                port: 3,
            },
        );
        engine.post(
            peers[2],
            SimTime::from_ns(3000.0),
            Do::Send(vec![read(4, 10)]),
        );
        engine.run_until(SimTime::from_ns(6000.0));
        assert_eq!(engine.component::<FabricSwitch>(sw).queued(), 0);
        let ids: Vec<u64> = engine
            .component::<Peer>(peers[3])
            .got
            .iter()
            .map(|(_, p)| p.trace_id())
            .collect();
        assert_eq!(ids, [3, 4]);
    }

    #[test]
    fn flow_extraction() {
        use fcc_proto::channel::{MemOpcode, Transaction, TransactionKind};
        let t = FlitPayload::Transaction(Transaction {
            id: 1,
            kind: TransactionKind::Mem(MemOpcode::MemRd),
            addr: 0,
            bytes: 0,
            src: NodeId(3),
            dst: NodeId(9),
        });
        assert_eq!(
            FabricSwitch::flow_of(&t),
            FlowId {
                src: NodeId(3),
                dst: NodeId(9)
            }
        );
        assert_eq!(FabricSwitch::dst_of(&t), Some(NodeId(9)));
        let d = FlitPayload::Data {
            txn_id: 1,
            slot: 0,
            src: NodeId(3),
            dst: NodeId(9),
        };
        assert_eq!(FabricSwitch::dst_of(&d), Some(NodeId(9)));
        assert_eq!(FabricSwitch::dst_of(&FlitPayload::Idle), None);
    }

    #[test]
    fn scheduler_gates_mapped_tenants_and_audits_clean() {
        use fcc_sched::{CreditPartition, TenantShare};
        use fcc_sim::SimTime;

        let mut sw = FabricSwitch::new(SwitchConfig::fabrex_like());
        let mut part = CreditPartition::new(4);
        part.add_tenant(
            7,
            TenantShare {
                group: 0,
                weight: 1,
                floor: 1,
            },
        );
        let mut sched = FabricScheduler::new(part, SimTime::from_ns(1000.0));
        sched.map_node(NodeId(3), 7);
        sw.install_scheduler(sched);

        let mapped = FlowId {
            src: NodeId(3),
            dst: NodeId(9),
        };
        let unmapped = FlowId {
            src: NodeId(5),
            dst: NodeId(9),
        };
        // The mapped tenant drains its whole allocation, then defers;
        // unmapped sources stay ungoverned throughout.
        for _ in 0..4 {
            assert!(sw.sched_admits(mapped));
            sw.record_send(0, 0, mapped, SimTime::ZERO);
        }
        assert!(!sw.sched_admits(mapped));
        assert!(sw.sched_admits(unmapped));
        let sched = sw.scheduler().unwrap();
        assert_eq!(sched.admitted, 4);
        assert_eq!(sched.deferred, 1);
        assert!(sw.audit().is_clean(), "{:?}", sw.audit());
        // A window rollover refills the partition.
        sw.scheduler_mut().unwrap().rollover();
        assert!(sw.sched_admits(mapped));
    }
}
