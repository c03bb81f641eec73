//! The traced run: the serial executor driving `Engine<Traced<World>>`.
//!
//! [`Traced`] classifies each event into the layer that handles it *before*
//! calling `World::handle`, and times that call. Engine self time (calendar
//! wheel pops and dispatch) is the `run_until` time minus the summed handle
//! time. Node ids follow `rss_net::dumbbell`: routers are 0 and 1, sender
//! hosts are even ids from 2, receiver hosts odd ids.
//!
//! [`run_traced`] mirrors the serial branch of `rss_core::run` step for step
//! using only public accessors, so its report (and therefore its CSV rows and
//! event count) must equal the untraced run's; the benchmark checks that on
//! every traced run.

use rss_core::{Ev, FlowReport, RunReport, Scenario, World};
use rss_net::NetEvent;
use rss_sim::{Engine, Model, RunStats, Scheduler, SimTime};
use std::time::Instant;

/// The layer an event is attributed to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `PortTxDone`: a router egress port finished serializing (rss-net).
    Port,
    /// `Arrival` at a router: queue discipline, RED/ECN, impairment verdict.
    Enqueue,
    /// `NicTxDone` plus the pump it triggers (rss-host).
    Nic,
    /// `Arrival` at a sender host: the ACK path (rss-tcp sender, rss-cc,
    /// rss-control, rss-web100 hooks).
    Ack,
    /// `Arrival` at a receiver host: the data path (rss-tcp receiver).
    Data,
    /// `RtoCheck`, `DelackCheck`, `StallRetry` (rss-tcp timers).
    Timer,
    /// `Sample`: periodic world sampling (rss-web100 series).
    Sample,
    /// `FlowStart`, `AppWrite`, `CrossEmit` (rss-workload and traffic).
    App,
}

/// Every kind, in report order.
pub const KINDS: [Kind; 8] = [
    Kind::Port,
    Kind::Enqueue,
    Kind::Nic,
    Kind::Ack,
    Kind::Data,
    Kind::Timer,
    Kind::Sample,
    Kind::App,
];

impl Kind {
    /// Metric-name prefix of the layer.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Port => "net.port",
            Kind::Enqueue => "net.enqueue",
            Kind::Nic => "host.nic",
            Kind::Ack => "tcp.ack",
            Kind::Data => "tcp.data",
            Kind::Timer => "tcp.timer",
            Kind::Sample => "web100.sample",
            Kind::App => "workload.app",
        }
    }

    /// The layer that will handle `ev`.
    pub fn of(ev: &Ev) -> Kind {
        match ev {
            Ev::Net(NetEvent::PortTxDone { .. }) => Kind::Port,
            Ev::Net(NetEvent::Arrival { node, .. }) => match node.0 {
                0 | 1 => Kind::Enqueue,
                n if n % 2 == 0 => Kind::Ack,
                _ => Kind::Data,
            },
            Ev::NicTxDone { .. } => Kind::Nic,
            Ev::RtoCheck { .. } | Ev::DelackCheck { .. } | Ev::StallRetry { .. } => Kind::Timer,
            Ev::Sample => Kind::Sample,
            Ev::FlowStart { .. } | Ev::AppWrite { .. } | Ev::CrossEmit { .. } => Kind::App,
        }
    }
}

/// Per-kind event counts and handle nanoseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KindTotals {
    /// Events dispatched, by `Kind as usize`.
    pub events: [u64; KINDS.len()],
    /// Nanoseconds spent in `World::handle`, by `Kind as usize`.
    pub handle_ns: [u64; KINDS.len()],
}

impl KindTotals {
    /// Add another run's totals.
    pub fn add(&mut self, o: &KindTotals) {
        for k in 0..KINDS.len() {
            self.events[k] += o.events[k];
            self.handle_ns[k] += o.handle_ns[k];
        }
    }

    /// Events over all kinds.
    pub fn total_events(&self) -> u64 {
        self.events.iter().sum()
    }

    /// Handle nanoseconds over all kinds.
    pub fn total_handle_ns(&self) -> u64 {
        self.handle_ns.iter().sum()
    }
}

/// A `World` whose every `handle` call is classified and timed.
pub struct Traced {
    /// The wrapped model.
    pub world: World,
    /// What has been dispatched so far.
    pub totals: KindTotals,
}

impl Model for Traced {
    type Event = Ev;

    #[inline]
    fn handle(&mut self, ev: Ev, sched: &mut Scheduler<'_, Ev>) {
        let k = Kind::of(&ev) as usize;
        let t = Instant::now();
        self.world.handle(ev, sched);
        self.totals.handle_ns[k] += t.elapsed().as_nanos() as u64;
        self.totals.events[k] += 1;
    }
}

/// One traced simulation.
pub struct TracedRun {
    /// The run's report, as `rss_core::run` would build it.
    pub report: RunReport,
    /// Per-kind counts and handle times.
    pub totals: KindTotals,
    /// Host nanoseconds inside `Engine::run_until`; the part not spent in
    /// `World::handle` is engine self time.
    pub run_until_ns: u64,
}

/// Run `sc` on the serial executor through [`Traced`].
pub fn run_traced(sc: &Scenario) -> Result<TracedRun, String> {
    let world = World::build(sc).map_err(|e| e.to_string())?;
    let mut engine = Engine::new(Traced {
        world,
        totals: KindTotals::default(),
    });
    engine.event_budget = sc.max_events;
    for (t, ev) in engine.model().world.initial_events(sc) {
        engine.schedule_at(t, ev);
    }
    let horizon = sc.max_sim_time.map_or(sc.duration, |t| t.min(sc.duration));
    let t = Instant::now();
    let stats = engine.run_until(SimTime::ZERO + horizon);
    let run_until_ns = t.elapsed().as_nanos() as u64;
    let end = engine.now();
    let counters = engine.queue_counters();
    let Traced { mut world, totals } = engine.into_model();

    let flows = (0..world.conn_count())
        .map(|i| flow_report(sc, &mut world, i, end))
        .collect();
    let nic = world.sender_nic(0);
    let red = world.red_stats();
    let series = |s: &rss_sim::TimeSeries| s.iter().map(|(t, v)| (t.as_secs_f64(), v)).collect();
    let report = RunReport {
        duration_s: end.as_secs_f64(),
        seed: sc.seed,
        path_rate_bps: sc.path.rate_bps,
        flows,
        sender_ifq_series: series(world.sender_ifq_series(0)),
        sender_nic: nic.stats(),
        sender_nic_utilization: nic.utilization(end),
        router_queue_drops: world.fabric().queue_drops,
        router_red_early_drops: red.map_or(0, |s| s.early_drops),
        router_red_forced_drops: red.map_or(0, |s| s.forced_drops),
        router_ecn_marks: red.map_or(0, |s| s.ecn_marks),
        bottleneck_queue_series: series(world.bottleneck_series()),
        cross_offered_bytes: world.cross_offered().iter().map(|&(_, b)| b).sum(),
        cross_delivered_bytes: world.cross_delivered_bytes,
        events_processed: stats.events_processed,
        engine: Some(counters),
        truncated: truncation(sc, &stats),
    };
    Ok(TracedRun {
        report,
        totals,
        run_until_ns,
    })
}

fn flow_report(sc: &Scenario, world: &mut World, i: usize, end: SimTime) -> FlowReport {
    let completed = world.completed_at(i);
    let (sender, receiver) = world.conn_endpoints_mut(i);
    sender.finish(end);
    let rstats = receiver.stats();
    let w = sender.web100();
    let secs = |c: &rss_sim::EventCounter| c.times().map(|t| t.as_secs_f64()).collect();
    let series = |s: &rss_sim::TimeSeries| s.iter().map(|(t, v)| (t.as_secs_f64(), v)).collect();
    let goodput = w.goodput_bps(end);
    FlowReport {
        conn: i as u32,
        algo: sc.flows[i].algo.label().into(),
        vars: w.snapshot(),
        goodput_bps: goodput,
        utilization: goodput / sc.path.rate_bps as f64,
        completed_at_s: completed.map(|t| t.as_secs_f64()),
        stall_times_s: secs(w.send_stalls()),
        congestion_times_s: secs(w.congestion_events()),
        cwnd_series: series(w.cwnd_series()),
        acked_series: series(w.acked_series()),
        receiver_delivered_bytes: receiver.rcv_nxt(),
        receiver_dup_segments: rstats.duplicate_segments,
        receiver_ooo_segments: rstats.out_of_order_segments,
        rto_episodes: sender.rto_episodes(),
        rto_max_backoff: sender.rtt().max_backoff_shift(),
        rto_max_recovery_s: sender.rto_max_recovery().map(|d| d.as_secs_f64()),
    }
}

/// The serial runner's watchdog verdict: why the run was cut short.
fn truncation(sc: &Scenario, stats: &RunStats) -> Option<String> {
    if stats.budget_exhausted {
        return Some(format!(
            "event budget {} exhausted at t={:.6}s",
            sc.max_events.unwrap_or_default(),
            stats.end_time.as_secs_f64()
        ));
    }
    let clamp = sc.max_sim_time?;
    (clamp < sc.duration && !stats.drained && !stats.stopped_by_model).then(|| {
        format!(
            "max_sim_time {:.6}s reached before the {:.6}s horizon",
            clamp.as_secs_f64(),
            sc.duration.as_secs_f64()
        )
    })
}
