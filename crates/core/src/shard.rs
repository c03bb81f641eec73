//! The sharded dumbbell world: one scenario split into per-domain shards
//! executed by [`rss_sim::run_sharded`]'s conservative-lookahead protocol.
//!
//! # The topology cut
//!
//! The dumbbell is cut at its two bottleneck egress ports. That yields
//! `host_pairs + 2` *units*, each a closed island of state:
//!
//! * **Edge unit `p`** (one per host pair): the pair's sending and receiving
//!   host — NICs, TCP endpoints, application drivers, cross-traffic sources —
//!   plus the two router egress ports feeding the pair's access links (the
//!   left router's port toward the sender, which delivers ACKs, and the right
//!   router's port toward the receiver, which delivers data).
//! * **Hub unit `FWD`** (`unit = host_pairs`): the left router's bottleneck
//!   egress — the shared queue all data segments cross, with the haul link's
//!   loss model.
//! * **Hub unit `REV`** (`unit = host_pairs + 1`): the right router's
//!   bottleneck egress, carrying the ACK stream back.
//!
//! Units exchange [`Packet`]s over exactly two message legs: edge → hub rides
//! the access link (latency `access_delay`), hub → edge rides the haul link
//! (latency `haul_delay = rtt/2 − 2·access_delay`). The lookahead is the
//! smaller of the two — see the [`rss_sim::shard`] module docs for why a
//! window of that size is independently simulable and why the results are
//! bit-exact for *any* shard count.
//!
//! # What is kept per-unit (the bit-exactness ledger)
//!
//! Every grouping-visible side effect lives inside one unit: packet ids
//! (`(unit+1) << 40 | n`), envelope sequence numbers, RNG streams (each hub
//! derives its own loss/RED stream; each cross-traffic source already owns
//! one), drop and delivery counters, and the per-pair IFQ series. World-level
//! sampling happens at window boundaries. Those lie on the grid `k·L`
//! (clamped to the horizon), which depends only on the lookahead, but the
//! executor skips windows in which no domain has an event. A sample due in
//! a skipped span is taken at the next boundary the executor visits; no
//! event ran in between, so every depth it reads equals the depth at the
//! skipped boundary. Sample times and values are therefore the same as with
//! every window visited and grouping-invariant, and the merged event count
//! is a pure function of the scenario.
//!
//! `shards = 1` therefore *is* the serial reference: the parallel runs are
//! byte-compared against it in CI. It is intentionally not bit-equal to the
//! classic [`crate::World`] serial path (same-instant tie-breaking and loss
//! RNG realization differ); `Scenario::shards = None` keeps that legacy path
//! and its goldens untouched.

use crate::body::WireBody;
use crate::report::RunReport;
use crate::runner::flow_report;
use crate::scenario::Scenario;
use rss_host::HostNic;
use rss_net::{
    DropTailQueue, Ecn, FlowId, Impairment, NodeId, OutageSchedule, Packet, PortQueue, QueueConfig,
    RedQueue, RedStats, TrafficSource, Verdict,
};
use rss_sim::{
    partition_units, run_sharded, Domain, Engine, Envelope, Model, Scheduler, SimDuration, SimRng,
    SimTime, TimeSeries,
};
use rss_tcp::{
    make_cc, AckToSend, ConnId, IfqSnapshot, SegKind, TcpReceiver, TcpSegment, TcpSender,
};
use rss_workload::AppDriver;

type Env = Envelope<Packet<WireBody>>;

/// Events local to one domain. `u` is the *local* unit index within the
/// domain's unit table; connection/cross indexes are local to their unit.
#[derive(Debug, Clone)]
enum DEv {
    /// A packet from a hub reached this edge's adjacent router port.
    EdgeArrive {
        u: u32,
        pkt: Packet<WireBody>,
    },
    /// A packet from an edge reached this hub's queue.
    HubArrive {
        u: u32,
        pkt: Packet<WireBody>,
    },
    /// A packet cleared an edge delivery port and its access link.
    HostArrive {
        u: u32,
        pkt: Packet<WireBody>,
    },
    /// A host NIC finished serializing (`snd` selects the pair's side).
    NicTx {
        u: u32,
        snd: bool,
    },
    /// An edge router port finished serializing (`dlv` selects the port).
    PortTx {
        u: u32,
        dlv: bool,
    },
    /// A hub port finished serializing.
    HubTx {
        u: u32,
    },
    FlowStart {
        u: u32,
        c: u32,
    },
    RtoCheck {
        u: u32,
        c: u32,
    },
    DelackCheck {
        u: u32,
        c: u32,
    },
    StallRetry {
        u: u32,
        c: u32,
    },
    AppWrite {
        u: u32,
        c: u32,
        bytes: u64,
    },
    CrossEmit {
        u: u32,
        x: u32,
    },
}

/// One TCP connection living on an edge unit.
struct ConnState {
    /// Global connection index (the scenario's flow index).
    global: u32,
    sender: TcpSender,
    receiver: TcpReceiver,
    app: AppDriver,
    start: SimTime,
    completed_at: Option<SimTime>,
    scheduled_rto: Option<SimTime>,
}

/// One cross-traffic source living on an edge unit.
struct CrossState {
    /// Global cross-stream index.
    global: u32,
    source: TrafficSource,
    stop: Option<SimTime>,
    sent_bytes: u64,
}

/// A router egress port owned by an edge unit (always drop-tail; RED applies
/// only to the bottleneck, i.e. the hubs).
struct EdgePort {
    queue: DropTailQueue<WireBody>,
    transmitting: Option<Packet<WireBody>>,
    rate_bps: u64,
}

impl EdgePort {
    fn new(cap_pkts: u32, rate_bps: u64) -> Self {
        EdgePort {
            queue: DropTailQueue::new(QueueConfig::packets(cap_pkts)),
            transmitting: None,
            rate_bps,
        }
    }
}

/// One host pair and its access-side router ports.
struct EdgeUnit {
    /// Global unit id (== pair index).
    unit: u32,
    snd_node: NodeId,
    rcv_node: NodeId,
    snd_nic: HostNic<WireBody>,
    rcv_nic: HostNic<WireBody>,
    /// Left-router egress toward the sender's access link (returns ACKs).
    ret_port: EdgePort,
    /// Right-router egress toward the receiver's access link (delivers data).
    dlv_port: EdgePort,
    /// Connections sending from this pair, ascending by `global`.
    conns: Vec<ConnState>,
    cross: Vec<CrossState>,
    ifq_series: Option<TimeSeries>,
    next_pkt: u64,
    /// Envelope sequence counter — per unit, so `(time, unit, seq)` is a
    /// unique canonical key regardless of grouping.
    seq: u64,
    queue_drops: u64,
    cross_delivered_bytes: u64,
    /// Access-leg impairments in canonical leg order: sender NIC -> left
    /// router, left router -> sender host, right router -> receiver host,
    /// receiver NIC -> right router. Each draws from a private stream
    /// derived from `(seed, 0xACC, pair)`, matching the serial fabric, so
    /// the realization is identical at every shard count.
    leg_imps: [Option<Impairment>; 4],
}

/// Access-leg indexes into [`EdgeUnit::leg_imps`].
const LEG_SND_NIC: usize = 0;
const LEG_RET_PORT: usize = 1;
const LEG_DLV_PORT: usize = 2;
const LEG_RCV_NIC: usize = 3;

impl EdgeUnit {
    /// Per-unit packet ids: unique across units without shared state.
    fn next_id(&mut self) -> u64 {
        let n = self.next_pkt;
        self.next_pkt += 1;
        ((self.unit as u64 + 1) << 40) + n
    }

    fn conn_local(&self, global: u32) -> usize {
        self.conns
            .binary_search_by_key(&global, |c| c.global)
            .expect("segment for a connection not on this unit")
    }
}

/// One direction of the shared bottleneck.
struct HubUnit {
    /// Global unit id (`host_pairs` for FWD, `host_pairs + 1` for REV).
    unit: u32,
    queue: PortQueue<WireBody>,
    transmitting: Option<Packet<WireBody>>,
    rate_bps: u64,
    loss_prob: f64,
    haul_delay: SimDuration,
    rng: SimRng,
    seq: u64,
    queue_drops: u64,
    /// Haul impairment for this direction (private per-packet stream; the
    /// two directions share one outage realization).
    impairment: Option<Impairment>,
    /// Queue-depth series on the boundary-sampling grid (forward hub only;
    /// the grid depends only on the lookahead, so it is grouping-invariant).
    series: Option<TimeSeries>,
}

/// Consult one (optional) impairment at a packet departure.
///
/// `None` means the packet is dropped; otherwise the extra delay for the
/// packet and, when the verdict asked for duplication, the copy's own
/// jittered extra delay. Draw order matches the serial fabric's
/// `start_flight` exactly so the per-stream sequences stay aligned.
fn leg_verdict(
    imp: &mut Option<Impairment>,
    now: SimTime,
) -> Option<(SimDuration, Option<SimDuration>)> {
    let Some(imp) = imp.as_mut() else {
        return Some((SimDuration::ZERO, None));
    };
    match imp.decide(now) {
        Verdict::Drop(_) => None,
        Verdict::Deliver {
            extra_delay,
            duplicate,
        } => {
            let dup = duplicate.then(|| imp.dup_jitter());
            Some((extra_delay, dup))
        }
    }
}

enum Unit {
    Edge(Box<EdgeUnit>),
    Hub(Box<HubUnit>),
}

/// The model one domain's engine runs: its units plus the cross-unit mail it
/// has produced since the last window.
struct DomainWorld {
    units: Vec<Unit>,
    /// Local unit index by global unit id (`u32::MAX` = other domain).
    local: Vec<u32>,
    /// Global unit ids at or above this are hubs.
    first_hub: u32,
    hub_fwd: u32,
    hub_rev: u32,
    access_delay: SimDuration,
    outgoing: Vec<Env>,
    new_completions: u64,
}

fn snd_snapshot(e: &EdgeUnit) -> IfqSnapshot {
    IfqSnapshot {
        depth: e.snd_nic.ifq_queued(),
        max: e.snd_nic.ifq_max(),
    }
}

fn kick_nic(e: &mut EdgeUnit, u: u32, snd: bool, now: SimTime, sched: &mut Scheduler<'_, DEv>) {
    let nic = if snd { &mut e.snd_nic } else { &mut e.rcv_nic };
    if let Some(ser) = nic.start_tx_if_idle(now) {
        sched.after(ser, DEv::NicTx { u, snd });
    }
}

fn kick_port(e: &mut EdgeUnit, u: u32, dlv: bool, sched: &mut Scheduler<'_, DEv>) {
    let port = if dlv {
        &mut e.dlv_port
    } else {
        &mut e.ret_port
    };
    if port.transmitting.is_some() {
        return;
    }
    let Some(pkt) = port.queue.dequeue() else {
        return;
    };
    let ser = SimDuration::for_bytes_at_rate(pkt.wire_size() as u64, port.rate_bps);
    port.transmitting = Some(pkt);
    sched.after(ser, DEv::PortTx { u, dlv });
}

/// Transmit as much as connection `c` is allowed to right now — the exact
/// mirror of the serial world's pump loop, against this unit's NIC.
fn pump(e: &mut EdgeUnit, u: u32, c: usize, now: SimTime, sched: &mut Scheduler<'_, DEv>) {
    loop {
        if now < e.conns[c].start {
            break;
        }
        let Some(plan) = e.conns[c].sender.can_transmit(now) else {
            break;
        };
        let global = e.conns[c].global;
        let header = e.conns[c].sender.config().header_bytes;
        let seg = TcpSegment {
            conn: ConnId(global),
            kind: SegKind::Data {
                seq: plan.seq,
                len: plan.len,
                retransmit: plan.retransmit,
            },
            header_bytes: header,
            ecn: if e.conns[c].sender.config().ecn {
                Ecn::Ect
            } else {
                Ecn::NotEct
            },
        };
        let pkt = Packet {
            id: e.next_id(),
            src: e.snd_node,
            dst: e.rcv_node,
            flow: ConnId(global).into(),
            created: now,
            body: WireBody::Tcp(seg),
        };
        match e.snd_nic.enqueue(pkt) {
            Ok(()) => {
                e.conns[c].sender.commit_transmit(now, plan);
                kick_nic(e, u, true, now, sched);
            }
            Err(_) => {
                // Send-stall: the paper's central event.
                let snap = snd_snapshot(e);
                let sender = &mut e.conns[c].sender;
                sender.on_local_stall(now, snap);
                if let Some(at) = sender.stall_retry_at() {
                    sched.at(at, DEv::StallRetry { u, c: c as u32 });
                }
                break;
            }
        }
    }
    let sender = &mut e.conns[c].sender;
    // Pacer-held departures re-enter through the stall-retry event, exactly
    // like the serial world.
    if let Some(at) = sender.pacing_retry_at(now) {
        sched.at(at, DEv::StallRetry { u, c: c as u32 });
    }
    sender.update_lim_state(now);
    if let Some(d) = sender.rto_deadline() {
        let needs = match e.conns[c].scheduled_rto {
            Some(at) => d < at,
            None => true,
        };
        if needs {
            sched.at(d.max(now), DEv::RtoCheck { u, c: c as u32 });
            e.conns[c].scheduled_rto = Some(d.max(now));
        }
    }
}

fn send_ack(
    e: &mut EdgeUnit,
    u: u32,
    c: usize,
    ack: AckToSend,
    now: SimTime,
    sched: &mut Scheduler<'_, DEv>,
) {
    let global = e.conns[c].global;
    let header = e.conns[c].sender.config().header_bytes;
    let seg = TcpSegment {
        conn: ConnId(global),
        kind: SegKind::Ack {
            ack: ack.ack,
            rwnd: ack.rwnd,
            ece: ack.ece,
        },
        header_bytes: header,
        ecn: Ecn::NotEct,
    };
    let pkt = Packet {
        id: e.next_id(),
        src: e.rcv_node,
        dst: e.snd_node,
        flow: ConnId(global).into(),
        created: now,
        body: WireBody::Tcp(seg),
    };
    // A full receiver IFQ silently drops the ACK; cumulative ACKs make this
    // safe.
    if e.rcv_nic.enqueue(pkt).is_ok() {
        kick_nic(e, u, false, now, sched);
    }
}

fn deliver(
    e: &mut EdgeUnit,
    u: u32,
    pkt: Packet<WireBody>,
    now: SimTime,
    sched: &mut Scheduler<'_, DEv>,
    completions: &mut u64,
) {
    match pkt.body {
        WireBody::Raw { size } => {
            e.cross_delivered_bytes += size as u64;
        }
        WireBody::Tcp(seg) => {
            let c = e.conn_local(seg.conn.0);
            match seg.kind {
                SegKind::Data { seq, len, .. } => {
                    if seg.ecn == Ecn::Ce {
                        e.conns[c].receiver.on_ce();
                    }
                    match e.conns[c].receiver.on_segment(now, seq, len) {
                        Some(a) => send_ack(e, u, c, a, now, sched),
                        None => {
                            if let Some(d) = e.conns[c].receiver.delack_deadline() {
                                sched.at(d, DEv::DelackCheck { u, c: c as u32 });
                            }
                        }
                    }
                }
                SegKind::Ack { ack, rwnd, ece } => {
                    let snap = snd_snapshot(e);
                    if ece {
                        e.conns[c].sender.on_ecn_echo(now, snap);
                    }
                    e.conns[c].sender.on_ack(now, ack, rwnd, snap);
                    if e.conns[c].sender.is_complete() && e.conns[c].completed_at.is_none() {
                        e.conns[c].completed_at = Some(now);
                        // The executor stops at the next window boundary once
                        // every domain has reported its completions — the
                        // deterministic analogue of the serial world's
                        // request_stop.
                        *completions += 1;
                    }
                    pump(e, u, c, now, sched);
                }
            }
        }
    }
}

fn emit_cross(e: &mut EdgeUnit, u: u32, x: usize, now: SimTime, sched: &mut Scheduler<'_, DEv>) {
    if let Some(stop) = e.cross[x].stop {
        if now >= stop {
            return;
        }
    }
    let (gap, size) = e.cross[x].source.next_packet();
    let global = e.cross[x].global;
    let pkt = Packet {
        id: e.next_id(),
        src: e.snd_node,
        dst: e.rcv_node,
        flow: FlowId(u32::MAX - global),
        created: now,
        body: WireBody::Raw { size },
    };
    e.cross[x].sent_bytes += size as u64;
    // Cross sources are open-loop: a full IFQ just drops the datagram.
    if e.snd_nic.enqueue(pkt).is_ok() {
        kick_nic(e, u, true, now, sched);
    }
    sched.after(gap, DEv::CrossEmit { u, x: x as u32 });
}

fn kick_hub(h: &mut HubUnit, u: u32, now: SimTime, sched: &mut Scheduler<'_, DEv>) {
    if h.transmitting.is_some() {
        return;
    }
    let Some(pkt) = h.queue.dequeue(now) else {
        return;
    };
    let ser = SimDuration::for_bytes_at_rate(pkt.wire_size() as u64, h.rate_bps);
    h.transmitting = Some(pkt);
    sched.after(ser, DEv::HubTx { u });
}

fn hub_tx(
    h: &mut HubUnit,
    u: u32,
    now: SimTime,
    sched: &mut Scheduler<'_, DEv>,
    outgoing: &mut Vec<Env>,
) {
    let pkt = h
        .transmitting
        .take()
        .expect("hub tx-done with no packet in flight");
    // Loss is drawn when the packet enters the haul link, as in the serial
    // fabric's start_flight — but from this hub's private stream. The
    // impairment layer runs after the independent loss model, also matching
    // the serial fabric; jitter only ever adds delay, so the haul delay
    // stays a valid lookahead bound.
    if h.loss_prob > 0.0 && h.rng.chance(h.loss_prob) {
        // drop on the wire
    } else if let Some((extra, dup)) = leg_verdict(&mut h.impairment, now) {
        // Edge unit of the destination host: pair hosts are numbered
        // 2+2p (sender) / 3+2p (receiver), mirroring the serial dumbbell.
        let dst_unit = (pkt.dst.0 - 2) / 2;
        if let Some(extra2) = dup {
            // The copy flies first, with its own jitter and the same packet
            // id, so the receiver's dedup accounting sees a true duplicate.
            h.seq += 1;
            outgoing.push(Envelope {
                time: now + h.haul_delay + extra2,
                src_unit: h.unit,
                seq: h.seq,
                dst_unit,
                msg: pkt.clone(),
            });
        }
        h.seq += 1;
        outgoing.push(Envelope {
            time: now + h.haul_delay + extra,
            src_unit: h.unit,
            seq: h.seq,
            dst_unit,
            msg: pkt,
        });
    }
    kick_hub(h, u, now, sched);
}

impl Model for DomainWorld {
    type Event = DEv;

    fn handle(&mut self, ev: DEv, sched: &mut Scheduler<'_, DEv>) {
        let now = sched.now();
        let access_delay = self.access_delay;
        let (hub_fwd, hub_rev) = (self.hub_fwd, self.hub_rev);
        let DomainWorld {
            units,
            outgoing,
            new_completions,
            ..
        } = self;
        match ev {
            DEv::EdgeArrive { u, pkt } => {
                let Unit::Edge(e) = &mut units[u as usize] else {
                    unreachable!("edge event at a hub")
                };
                let dlv = pkt.dst == e.rcv_node;
                let ok = {
                    let port = if dlv {
                        &mut e.dlv_port
                    } else {
                        &mut e.ret_port
                    };
                    port.queue.try_enqueue(pkt).is_ok()
                };
                if ok {
                    kick_port(e, u, dlv, sched);
                } else {
                    e.queue_drops += 1;
                }
            }
            DEv::HubArrive { u, pkt } => {
                let Unit::Hub(h) = &mut units[u as usize] else {
                    unreachable!("hub event at an edge")
                };
                if h.queue.try_enqueue(now, pkt, &mut h.rng) {
                    kick_hub(h, u, now, sched);
                } else {
                    h.queue_drops += 1;
                }
            }
            DEv::HostArrive { u, pkt } => {
                let Unit::Edge(e) = &mut units[u as usize] else {
                    unreachable!("edge event at a hub")
                };
                deliver(e, u, pkt, now, sched, new_completions);
            }
            DEv::NicTx { u, snd } => {
                let Unit::Edge(e) = &mut units[u as usize] else {
                    unreachable!("edge event at a hub")
                };
                let nic = if snd { &mut e.snd_nic } else { &mut e.rcv_nic };
                let pkt = nic.on_tx_done(now);
                let leg = if snd { LEG_SND_NIC } else { LEG_RCV_NIC };
                let dst_unit = if snd { hub_fwd } else { hub_rev };
                if let Some((extra, dup)) = leg_verdict(&mut e.leg_imps[leg], now) {
                    if let Some(extra2) = dup {
                        e.seq += 1;
                        outgoing.push(Envelope {
                            time: now + access_delay + extra2,
                            src_unit: e.unit,
                            seq: e.seq,
                            dst_unit,
                            msg: pkt.clone(),
                        });
                    }
                    e.seq += 1;
                    outgoing.push(Envelope {
                        time: now + access_delay + extra,
                        src_unit: e.unit,
                        seq: e.seq,
                        dst_unit,
                        msg: pkt,
                    });
                }
                kick_nic(e, u, snd, now, sched);
                // A queue slot freed: stalled connections may proceed.
                if snd {
                    for c in 0..e.conns.len() {
                        pump(e, u, c, now, sched);
                    }
                }
            }
            DEv::PortTx { u, dlv } => {
                let Unit::Edge(e) = &mut units[u as usize] else {
                    unreachable!("edge event at a hub")
                };
                let pkt = {
                    let port = if dlv {
                        &mut e.dlv_port
                    } else {
                        &mut e.ret_port
                    };
                    port.transmitting
                        .take()
                        .expect("port tx-done with no packet in flight")
                };
                // The last hop: the access link's propagation to the host.
                let leg = if dlv { LEG_DLV_PORT } else { LEG_RET_PORT };
                if let Some((extra, dup)) = leg_verdict(&mut e.leg_imps[leg], now) {
                    if let Some(extra2) = dup {
                        sched.after(
                            access_delay + extra2,
                            DEv::HostArrive {
                                u,
                                pkt: pkt.clone(),
                            },
                        );
                    }
                    sched.after(access_delay + extra, DEv::HostArrive { u, pkt });
                }
                kick_port(e, u, dlv, sched);
            }
            DEv::HubTx { u } => {
                let Unit::Hub(h) = &mut units[u as usize] else {
                    unreachable!("hub event at an edge")
                };
                hub_tx(h, u, now, sched, outgoing);
            }
            DEv::FlowStart { u, c } => {
                let Unit::Edge(e) = &mut units[u as usize] else {
                    unreachable!("edge event at a hub")
                };
                let ci = c as usize;
                let start = e.conns[ci].start;
                if let Some((when, bytes)) = e.conns[ci].app.next_write(start) {
                    sched.at(when.max(now), DEv::AppWrite { u, c, bytes });
                }
                pump(e, u, ci, now, sched);
            }
            DEv::RtoCheck { u, c } => {
                let Unit::Edge(e) = &mut units[u as usize] else {
                    unreachable!("edge event at a hub")
                };
                let ci = c as usize;
                e.conns[ci].scheduled_rto = None;
                // Coalesced deadline check, exactly like the serial world: a
                // stale pop (deadline moved later) re-arms and does nothing
                // else. Per-connection, so grouping-invariant.
                if let Some(d) = e.conns[ci].sender.rto_deadline() {
                    if now < d {
                        sched.at(d, DEv::RtoCheck { u, c });
                        e.conns[ci].scheduled_rto = Some(d);
                        return;
                    }
                }
                let snap = snd_snapshot(e);
                e.conns[ci].sender.on_rto_check(now, snap);
                pump(e, u, ci, now, sched);
            }
            DEv::DelackCheck { u, c } => {
                let Unit::Edge(e) = &mut units[u as usize] else {
                    unreachable!("edge event at a hub")
                };
                let ci = c as usize;
                if let Some(a) = e.conns[ci].receiver.on_delack_timer(now) {
                    send_ack(e, u, ci, a, now, sched);
                } else if let Some(d) = e.conns[ci].receiver.delack_deadline() {
                    sched.at(d, DEv::DelackCheck { u, c });
                }
            }
            DEv::StallRetry { u, c } => {
                let Unit::Edge(e) = &mut units[u as usize] else {
                    unreachable!("edge event at a hub")
                };
                pump(e, u, c as usize, now, sched);
            }
            DEv::AppWrite { u, c, bytes } => {
                let Unit::Edge(e) = &mut units[u as usize] else {
                    unreachable!("edge event at a hub")
                };
                let ci = c as usize;
                e.conns[ci].sender.app_extend(bytes);
                let start = e.conns[ci].start;
                if let Some((when, b)) = e.conns[ci].app.next_write(start) {
                    sched.at(when.max(now), DEv::AppWrite { u, c, bytes: b });
                }
                pump(e, u, ci, now, sched);
            }
            DEv::CrossEmit { u, x } => {
                let Unit::Edge(e) = &mut units[u as usize] else {
                    unreachable!("edge event at a hub")
                };
                emit_cross(e, u, x as usize, now, sched);
            }
        }
    }
}

/// One shard: a private engine over a [`DomainWorld`], plus the
/// boundary-sampling cursor.
struct ShardDomain {
    engine: Engine<DomainWorld>,
    next_sample: SimTime,
    sample_interval: SimDuration,
    sample_end: SimTime,
}

impl Domain for ShardDomain {
    type Msg = Packet<WireBody>;

    fn inject(&mut self, env: Env) {
        let world = self.engine.model();
        let local = world.local[env.dst_unit as usize];
        debug_assert_ne!(local, u32::MAX, "envelope routed to the wrong domain");
        let ev = if env.dst_unit >= world.first_hub {
            DEv::HubArrive {
                u: local,
                pkt: env.msg,
            }
        } else {
            DEv::EdgeArrive {
                u: local,
                pkt: env.msg,
            }
        };
        self.engine.schedule_at(env.time, ev);
    }

    fn on_boundary(&mut self, now: SimTime) {
        // Boundary sampling: sample times follow the nominal grid, depths are
        // read at the boundary. The executor visits the same boundaries at
        // every shard count, and the skipped ones saw no event, so the series
        // is identical for every shard count — and samples are not engine
        // events, keeping the merged event count grouping-invariant too.
        while self.next_sample <= now && self.next_sample <= self.sample_end {
            let world = self.engine.model_mut();
            for unit in &mut world.units {
                match unit {
                    Unit::Edge(e) => {
                        if let Some(series) = e.ifq_series.as_mut() {
                            series.push(self.next_sample, e.snd_nic.ifq_queued() as f64);
                        }
                    }
                    Unit::Hub(h) => {
                        let depth = h.queue.len();
                        if let Some(series) = h.series.as_mut() {
                            series.push(self.next_sample, depth as f64);
                        }
                    }
                }
            }
            self.next_sample += self.sample_interval;
        }
    }

    fn next_event_time(&self) -> Option<SimTime> {
        self.engine.next_event_time()
    }

    fn run_window(&mut self, end: SimTime) -> u64 {
        self.engine.run_window(end)
    }

    fn finish(&mut self, horizon: SimTime) -> u64 {
        self.engine.run_until(horizon).events_processed
    }

    fn drain_outgoing(&mut self, into: &mut Vec<Env>) {
        into.append(&mut self.engine.model_mut().outgoing);
    }

    fn take_completions(&mut self) -> u64 {
        std::mem::take(&mut self.engine.model_mut().new_completions)
    }
}

/// Execute one scenario through the sharded parallel world and merge the
/// per-domain state into the same [`RunReport`] the serial runner produces.
pub(crate) fn run_sharded_scenario(sc: &Scenario, shards: u32) -> RunReport {
    let pairs = sc.host_pairs();
    let hub_fwd = pairs as u32;
    let hub_rev = pairs as u32 + 1;
    let total_units = pairs + 2;

    let access_delay = sc.path.access_delay;
    let one_way = sc.path.rtt / 2;
    let haul_delay = one_way.saturating_sub(access_delay * 2);
    assert!(
        access_delay > SimDuration::ZERO && haul_delay > SimDuration::ZERO,
        "sharded runs need 0 < 4 x access_delay < rtt (access_delay {access_delay:?}, rtt {:?})",
        sc.path.rtt
    );
    assert!(
        sc.sample_interval > SimDuration::ZERO,
        "sample_interval must be positive"
    );
    let lookahead = access_delay.min(haul_delay);

    let mut pair_conns: Vec<Vec<u32>> = vec![Vec::new(); pairs];
    for i in 0..sc.flows.len() {
        pair_conns[sc.flow_pair(i)].push(i as u32);
    }
    let mut pair_cross: Vec<Vec<u32>> = vec![Vec::new(); pairs];
    for j in 0..sc.cross.len() {
        pair_cross[sc.cross_pair(j)].push(j as u32);
    }

    // Estimated per-unit event weight for the LPT partition: connections
    // dominate (closed-loop, ~4 events per segment round trip), cross
    // sources are open-loop, and each hub sees roughly a quarter of the
    // total edge traffic as queue/serialize events.
    let mut weights: Vec<u64> = (0..pairs)
        .map(|p| (pair_conns[p].len() as u64 * 4 + pair_cross[p].len() as u64 * 2).max(1))
        .collect();
    let edge_sum: u64 = weights.iter().sum();
    weights.push((edge_sum / 4).max(1));
    weights.push((edge_sum / 4).max(1));
    let domains_n = (shards.max(1) as usize).min(total_units);
    let unit_domain = partition_units(&weights, domains_n);

    let rng = SimRng::seed_from_u64(sc.seed);
    let mut worlds: Vec<DomainWorld> = (0..domains_n)
        .map(|_| DomainWorld {
            units: Vec::new(),
            local: vec![u32::MAX; total_units],
            first_hub: hub_fwd,
            hub_fwd,
            hub_rev,
            access_delay,
            outgoing: Vec::new(),
            new_completions: 0,
        })
        .collect();

    // Fault injection: the exact stream derivations the serial world uses,
    // so a given scenario sees one impairment realization at every shard
    // count. Directions/legs of one physical link share an outage schedule.
    let fault_horizon = SimTime::ZERO + sc.duration;
    let (mut haul_imp_fwd, mut haul_imp_rev) = (None, None);
    if let Some(cfg) = sc.haul_impairment.as_ref().filter(|c| !c.is_noop()) {
        let haul_rng = rng.derive(0x1FA);
        let schedule = OutageSchedule::build(cfg, &mut haul_rng.derive(0), fault_horizon);
        haul_imp_fwd = Some(Impairment::new(cfg, schedule.clone(), haul_rng.derive(1)));
        haul_imp_rev = Some(Impairment::new(cfg, schedule, haul_rng.derive(2)));
    }
    let acc_cfg = sc.access_impairment.as_ref().filter(|c| !c.is_noop());
    let acc_rng = rng.derive(0xACC);

    let access_rate = sc.path.access_rate();
    for p in 0..pairs {
        let mut leg_imps: [Option<Impairment>; 4] = [None, None, None, None];
        if let Some(cfg) = acc_cfg {
            let pair_rng = acc_rng.derive(p as u64);
            let schedule = OutageSchedule::build(cfg, &mut pair_rng.derive(0), fault_horizon);
            for (k, slot) in leg_imps.iter_mut().enumerate() {
                *slot = Some(Impairment::new(
                    cfg,
                    schedule.clone(),
                    pair_rng.derive(1 + k as u64),
                ));
            }
        }
        let mut e = EdgeUnit {
            unit: p as u32,
            snd_node: NodeId(2 + 2 * p as u32),
            rcv_node: NodeId(3 + 2 * p as u32),
            snd_nic: HostNic::new(sc.host),
            rcv_nic: HostNic::new(sc.host),
            ret_port: EdgePort::new(sc.path.router_queue_pkts, access_rate),
            dlv_port: EdgePort::new(sc.path.router_queue_pkts, access_rate),
            conns: Vec::with_capacity(pair_conns[p].len()),
            cross: Vec::with_capacity(pair_cross[p].len()),
            ifq_series: None,
            next_pkt: 0,
            seq: 0,
            queue_drops: 0,
            cross_delivered_bytes: 0,
            leg_imps,
        };
        for &i in &pair_conns[p] {
            let f = &sc.flows[i as usize];
            let cc = make_cc(f.algo, &sc.tcp).unwrap_or_else(|e| panic!("flows[{i}]: {e}"));
            let mut sender = TcpSender::new(ConnId(i), sc.tcp, cc, f.app.initial_bytes());
            sender.web100_mut().sample_stride = sc.web100_stride;
            e.conns.push(ConnState {
                global: i,
                sender,
                receiver: TcpReceiver::new(ConnId(i), sc.tcp),
                app: AppDriver::new(f.app),
                start: f.start,
                completed_at: None,
                scheduled_rto: None,
            });
        }
        for &j in &pair_cross[p] {
            let c = &sc.cross[j as usize];
            e.cross.push(CrossState {
                global: j,
                source: TrafficSource::new(c.pattern, rng.derive(0x0C05 + j as u64)),
                stop: c.stop,
                sent_bytes: 0,
            });
        }
        if !e.conns.is_empty() {
            e.ifq_series = Some(TimeSeries::new(format!("ifq_host{}", e.snd_node.0)));
        }
        let d = unit_domain[p] as usize;
        worlds[d].local[p] = worlds[d].units.len() as u32;
        worlds[d].units.push(Unit::Edge(Box::new(e)));
    }

    let mean_pkt = SimDuration::for_bytes_at_rate(1500, sc.path.rate_bps);
    for (hub_unit, stream, impairment) in [
        (hub_fwd, 0xFAB0u64, haul_imp_fwd.take()),
        (hub_rev, 0xFAB1u64, haul_imp_rev.take()),
    ] {
        let queue = match sc.queue.to_red_config(sc.path.router_queue_pkts, mean_pkt) {
            Some(red) => PortQueue::Red(RedQueue::new(red)),
            None => PortQueue::DropTail(DropTailQueue::new(QueueConfig::packets(
                sc.path.router_queue_pkts,
            ))),
        };
        let d = unit_domain[hub_unit as usize] as usize;
        worlds[d].local[hub_unit as usize] = worlds[d].units.len() as u32;
        worlds[d].units.push(Unit::Hub(Box::new(HubUnit {
            unit: hub_unit,
            queue,
            transmitting: None,
            rate_bps: sc.path.rate_bps,
            loss_prob: sc.path.loss_prob,
            haul_delay,
            rng: rng.derive(stream),
            seq: 0,
            queue_drops: 0,
            impairment,
            series: (hub_unit == hub_fwd).then(|| TimeSeries::new("bottleneck_queue")),
        })));
    }

    let mut domains: Vec<ShardDomain> = worlds
        .into_iter()
        .map(|w| ShardDomain {
            engine: Engine::new(w),
            next_sample: SimTime::ZERO,
            sample_interval: sc.sample_interval,
            sample_end: SimTime::ZERO + sc.duration,
        })
        .collect();

    // Seed initial events in global order, so same-instant starts fire in
    // the same per-unit order under every grouping.
    for (i, f) in sc.flows.iter().enumerate() {
        let p = sc.flow_pair(i);
        let d = unit_domain[p] as usize;
        let u = domains[d].engine.model().local[p];
        let c = pair_conns[p]
            .binary_search(&(i as u32))
            .expect("flow indexed") as u32;
        domains[d]
            .engine
            .schedule_at(f.start, DEv::FlowStart { u, c });
    }
    for (j, c) in sc.cross.iter().enumerate() {
        let p = sc.cross_pair(j);
        let d = unit_domain[p] as usize;
        let u = domains[d].engine.model().local[p];
        let x = pair_cross[p]
            .binary_search(&(j as u32))
            .expect("cross indexed") as u32;
        domains[d]
            .engine
            .schedule_at(c.start, DEv::CrossEmit { u, x });
    }

    let target = (sc.stop_when_complete && !sc.flows.is_empty()).then_some(sc.flows.len() as u64);
    // The watchdog clamps the horizon: a window-boundary cut is invariant
    // across shard counts, so truncated runs stay bit-exact at any sharding.
    let horizon = sc.max_sim_time.map_or(sc.duration, |t| t.min(sc.duration));
    let stats = run_sharded(
        &mut domains,
        &unit_domain,
        lookahead,
        SimTime::ZERO + horizon,
        target,
    )
    // A shard panic is a simulator bug; re-raise it on the caller's thread
    // with the shard attribution instead of deadlocking the barrier.
    .unwrap_or_else(|e| panic!("sharded run failed: {e}"));
    let end = stats.end_time;

    // --- merge ------------------------------------------------------------
    let mut worlds: Vec<DomainWorld> = domains.into_iter().map(|d| d.engine.into_model()).collect();

    let mut conn_refs: Vec<Option<&mut ConnState>> = sc.flows.iter().map(|_| None).collect();
    let mut conn0_unit: Option<&EdgeUnit> = None;
    let mut router_queue_drops = 0u64;
    let mut cross_offered_bytes = 0u64;
    let mut cross_delivered_bytes = 0u64;
    let mut red_total: Option<RedStats> = None;
    let mut bottleneck_queue_series: Vec<(f64, f64)> = Vec::new();
    for w in &mut worlds {
        for unit in &mut w.units {
            match unit {
                Unit::Edge(e) => {
                    router_queue_drops += e.queue_drops;
                    cross_delivered_bytes += e.cross_delivered_bytes;
                    cross_offered_bytes += e.cross.iter().map(|c| c.sent_bytes).sum::<u64>();
                    for c in e.conns.iter_mut() {
                        let g = c.global as usize;
                        conn_refs[g] = Some(c);
                    }
                }
                Unit::Hub(h) => {
                    router_queue_drops += h.queue_drops;
                    if let Some(s) = h.queue.red_stats() {
                        let acc = red_total.get_or_insert(RedStats::default());
                        acc.early_drops += s.early_drops;
                        acc.forced_drops += s.forced_drops;
                        acc.ecn_marks += s.ecn_marks;
                    }
                    if let Some(series) = h.series.as_ref() {
                        bottleneck_queue_series =
                            series.iter().map(|(t, v)| (t.as_secs_f64(), v)).collect();
                    }
                }
            }
        }
    }
    let mut flows = Vec::with_capacity(sc.flows.len());
    for (i, slot) in conn_refs.into_iter().enumerate() {
        let c = slot.expect("every flow assigned to a unit");
        flows.push(flow_report(
            i,
            sc,
            &mut c.sender,
            &c.receiver,
            c.completed_at,
            end,
        ));
    }
    // The report's host-level fields describe connection 0's sending host,
    // as in the serial runner.
    for w in &worlds {
        for unit in &w.units {
            if let Unit::Edge(e) = unit {
                if e.unit as usize == sc.flow_pair(0) {
                    conn0_unit = Some(e);
                }
            }
        }
    }
    let e0 = conn0_unit.expect("conn 0's unit exists");

    RunReport {
        duration_s: end.as_secs_f64(),
        seed: sc.seed,
        path_rate_bps: sc.path.rate_bps,
        flows,
        sender_ifq_series: e0
            .ifq_series
            .as_ref()
            .expect("conn 0's host has an IFQ series")
            .iter()
            .map(|(t, v)| (t.as_secs_f64(), v))
            .collect(),
        sender_nic: e0.snd_nic.stats(),
        sender_nic_utilization: e0.snd_nic.utilization(end),
        router_queue_drops,
        router_red_early_drops: red_total.map_or(0, |s| s.early_drops),
        router_red_forced_drops: red_total.map_or(0, |s| s.forced_drops),
        router_ecn_marks: red_total.map_or(0, |s| s.ecn_marks),
        bottleneck_queue_series,
        cross_offered_bytes,
        cross_delivered_bytes,
        events_processed: stats.events_processed,
        // Queue-placement counters are not grouping-invariant across shard
        // counts, and the reports must compare byte-equal; leave them out.
        engine: None,
        truncated: (sc.max_sim_time.is_some_and(|t| t < sc.duration) && !stats.stopped_early).then(
            || {
                format!(
                    "max_sim_time {:.6}s reached before the {:.6}s horizon",
                    sc.max_sim_time.expect("checked above").as_secs_f64(),
                    sc.duration.as_secs_f64()
                )
            },
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rss_net::TrafficPattern;
    use rss_sim::SimDuration;
    use rss_tcp::CcAlgorithm;
    use rss_workload::AppModel;

    /// A fast multi-flow scenario with cross traffic, loss and staggered
    /// starts — every mechanism the sharded world models.
    fn busy(flows: usize) -> Scenario {
        let mut sc = Scenario::paper_testbed(CcAlgorithm::Reno)
            .with_rate(20_000_000)
            .with_rtt(SimDuration::from_millis(10))
            .with_duration(SimDuration::from_millis(400))
            .with_access_delay(SimDuration::from_micros(500));
        sc.flows = (0..flows)
            .map(|i| crate::scenario::FlowSpec {
                algo: if i % 2 == 0 {
                    CcAlgorithm::Reno
                } else {
                    CcAlgorithm::Restricted(rss_tcp::RssConfig::tuned())
                },
                app: AppModel::Bulk { bytes: None },
                start: SimTime::from_millis(5 * i as u64),
            })
            .collect();
        sc.cross = vec![crate::scenario::CrossSpec {
            pattern: TrafficPattern::Cbr {
                rate_bps: 2_000_000,
                pkt_size: 1500,
            },
            start: SimTime::ZERO,
            stop: None,
        }];
        sc.path.loss_prob = 0.001;
        sc.web100_stride = 8;
        sc
    }

    fn report_json(sc: &Scenario, shards: u32) -> String {
        run_sharded_scenario(sc, shards).to_json()
    }

    #[test]
    fn shard_counts_are_bit_exact() {
        let sc = busy(4);
        let serial = report_json(&sc, 1);
        for shards in [2, 3, 6] {
            let parallel = report_json(&sc, shards);
            assert_eq!(serial, parallel, "{shards} shards diverged from serial");
        }
    }

    #[test]
    fn sharded_run_moves_data_and_reports_all_flows() {
        let sc = busy(3);
        let r = run_sharded_scenario(&sc, 2);
        assert_eq!(r.flows.len(), 3);
        for f in &r.flows {
            assert!(f.vars.thru_bytes_acked > 0, "flow {} moved no data", f.conn);
        }
        assert!(r.cross_offered_bytes > 0);
        assert!(r.cross_delivered_bytes > 0);
        assert!(r.events_processed > 1000);
    }

    #[test]
    fn sharded_stop_when_complete_stops_early() {
        let mut sc = busy(2);
        sc.cross.clear();
        sc.path.loss_prob = 0.0;
        for f in &mut sc.flows {
            f.app = AppModel::Bulk {
                bytes: Some(100_000),
            };
            f.start = SimTime::ZERO;
        }
        sc.stop_when_complete = true;
        sc.duration = SimDuration::from_secs(20);
        let r = run_sharded_scenario(&sc, 2);
        for f in &r.flows {
            assert_eq!(f.vars.thru_bytes_acked, 100_000);
            assert!(f.completed_at_s.is_some());
        }
        assert!(r.duration_s < 19.0, "did not stop early: {}", r.duration_s);
        // Early stop is also shard-count invariant.
        let a = report_json(&sc, 1);
        let b = report_json(&sc, 4);
        assert_eq!(a, b);
    }

    /// Once the only flow has finished, no event is left and the executor
    /// jumps straight to the horizon; every sample up to it must still be
    /// emitted on the `sample_interval` grid, at every shard count.
    #[test]
    fn samples_reach_the_horizon_after_the_last_event() {
        let mut sc = busy(1);
        sc.cross.clear();
        sc.path.loss_prob = 0.0;
        sc.flows[0].app = AppModel::Bulk {
            bytes: Some(100_000),
        };
        sc.duration = SimDuration::from_secs(2);
        sc.sample_interval = SimDuration::from_millis(10);
        let r = run_sharded_scenario(&sc, 1);
        let done = r.flows[0].completed_at_s.expect("flow completes");
        assert!(done < 1.0, "flow finished late: {done}");
        assert_eq!(r.duration_s, 2.0);
        let grid: Vec<f64> = (0..=200)
            .map(|k| SimTime::from_millis(10 * k).as_secs_f64())
            .collect();
        for (name, series) in [
            ("bottleneck_queue_series", &r.bottleneck_queue_series),
            ("sender_ifq_series", &r.sender_ifq_series),
        ] {
            let times: Vec<f64> = series.iter().map(|&(t, _)| t).collect();
            assert_eq!(times, grid, "{name} left the grid");
            assert_eq!(series.last().map(|&(_, v)| v), Some(0.0), "{name}");
        }
        assert_eq!(r.to_json(), report_json(&sc, 3));
    }

    #[test]
    fn shared_sender_host_pumps_in_global_order() {
        let mut sc = busy(3);
        sc.shared_sender_host = true;
        let a = report_json(&sc, 1);
        let b = report_json(&sc, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn red_bottleneck_is_grouping_invariant() {
        use crate::scenario::{QueueDiscipline, RedParams};
        let mut sc = busy(4);
        sc.path.router_queue_pkts = 40;
        sc = sc.with_queue(QueueDiscipline::Red(RedParams::for_capacity(40)));
        let a = report_json(&sc, 1);
        let b = report_json(&sc, 4);
        assert_eq!(a, b);
    }

    #[test]
    fn ecn_bottleneck_is_grouping_invariant_and_marks() {
        use crate::scenario::{QueueDiscipline, RedParams};
        let mut sc = busy(4);
        sc.path.router_queue_pkts = 40;
        sc = sc.with_queue(QueueDiscipline::RedEcn(RedParams::for_capacity(40)));
        let r = run_sharded_scenario(&sc, 2);
        assert!(
            r.router_ecn_marks > 0,
            "a congested ECN bottleneck never marked"
        );
        for f in &r.flows {
            assert!(f.vars.thru_bytes_acked > 0, "flow {} starved", f.conn);
        }
        let a = report_json(&sc, 1);
        for shards in [2, 4] {
            let b = report_json(&sc, shards);
            assert_eq!(a, b, "{shards} shards diverged under ECN");
        }
    }

    /// Every impairment mechanism at once, on both the haul and the access
    /// links — the realization must be identical at every shard count.
    fn faulty() -> Scenario {
        use rss_net::{Flap, GilbertElliott, ImpairmentConfig, Jitter, OutageWindow};
        let mut sc = busy(4);
        sc.haul_impairment = Some(ImpairmentConfig {
            burst_loss: Some(GilbertElliott {
                p_good_to_bad: 0.01,
                p_bad_to_good: 0.3,
                loss_good: 0.0,
                loss_bad: 0.5,
            }),
            outages: vec![OutageWindow {
                start: SimTime::from_millis(100),
                duration: SimDuration::from_millis(30),
            }],
            flap: None,
            jitter: Some(Jitter {
                prob: 0.2,
                max: SimDuration::from_micros(400),
            }),
            duplicate_prob: 0.01,
        });
        sc.access_impairment = Some(ImpairmentConfig {
            flap: Some(Flap {
                mean_up: SimDuration::from_millis(150),
                mean_down: SimDuration::from_millis(10),
            }),
            jitter: Some(Jitter {
                prob: 0.1,
                max: SimDuration::from_micros(200),
            }),
            ..Default::default()
        });
        sc
    }

    #[test]
    fn impaired_runs_are_shard_count_invariant() {
        let sc = faulty();
        let serial = report_json(&sc, 1);
        for shards in [2, 3, 6] {
            let parallel = report_json(&sc, shards);
            assert_eq!(serial, parallel, "{shards} shards diverged under faults");
        }
    }

    #[test]
    fn impaired_run_still_moves_data() {
        let r = run_sharded_scenario(&faulty(), 2);
        for f in &r.flows {
            assert!(f.vars.thru_bytes_acked > 0, "flow {} starved", f.conn);
        }
        assert!(r.truncated.is_none());
    }

    /// Livelock regression: `stop_when_complete` plus a permanent outage can
    /// never satisfy its stop condition — the watchdog must end the run at
    /// `max_sim_time` with an explicit truncation, identically at every
    /// shard count, instead of spinning toward a huge horizon.
    #[test]
    fn watchdog_truncates_uncompletable_run() {
        use rss_net::{ImpairmentConfig, OutageWindow};
        let mut sc = busy(1);
        sc.cross.clear();
        sc.flows[0].app = AppModel::Bulk {
            bytes: Some(5_000_000),
        };
        sc.flows[0].start = SimTime::ZERO;
        sc.stop_when_complete = true;
        sc.duration = SimDuration::from_secs(3600);
        sc.max_sim_time = Some(SimDuration::from_secs(8));
        // The haul goes down at 50 ms and never comes back.
        sc.haul_impairment = Some(ImpairmentConfig {
            outages: vec![OutageWindow {
                start: SimTime::from_millis(50),
                duration: SimDuration::from_secs(7200),
            }],
            ..Default::default()
        });
        let r = run_sharded_scenario(&sc, 2);
        assert!(r.duration_s <= 8.1, "ran past the clamp: {}", r.duration_s);
        let reason = r.truncated.as_deref().expect("truncation reported");
        assert!(reason.contains("max_sim_time"), "unexpected: {reason}");
        assert!(r.flows[0].completed_at_s.is_none());
        assert!(r.flows[0].rto_episodes >= 1, "no RTO episodes recorded");
        assert!(r.flows[0].rto_max_backoff >= 2, "backoff never deepened");
        // Truncated runs are shard-count invariant too.
        assert_eq!(report_json(&sc, 1), report_json(&sc, 2));
    }
}
