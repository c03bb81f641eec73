//! Conservative-lookahead parallel execution of one simulation run.
//!
//! A run is partitioned into *units* — closed islands of model state (a host
//! pair and its access ports, or one direction of the shared bottleneck) that
//! interact only by exchanging timestamped messages with a minimum delivery
//! latency. Units are grouped into *domains*; each domain owns a private
//! calendar-wheel [`Engine`](crate::Engine) and runs on its own thread.
//!
//! # The lookahead bound
//!
//! Let `L` be the minimum latency of any cross-unit message leg (for the
//! dumbbell worlds built on top of this module: the smaller of the access-link
//! and haul-link propagation delays). Time advances in windows `[w, w+L)`
//! whose starts lie on the grid `k·L`. A message sent at time `t ∈ [w, w+L)`
//! arrives at `t + leg ≥ w + L`, i.e. **no message sent during a window can
//! be due inside that same window** — so every domain may simulate the
//! window to completion without hearing from its peers. That is the classic
//! conservative (CMB-style) argument specialized to a window equal to the
//! static lookahead.
//!
//! Windows with nothing in them are skipped. Once a domain has injected its
//! arrivals, it publishes the time of its earliest pending event, and every
//! domain reads the same global minimum `t` — the lower bound on the next
//! timestamp of conservative PDES. The next window starts at the grid point
//! `⌊t/L⌋·L` (clamped to the horizon) instead of at the previous window's
//! end. The jump is exact: every message still in flight was injected
//! before the minimum was taken, so no event of any domain falls in the
//! skipped span, and a window that would have run there would have done
//! nothing. Windows stay on the same `k·L` grid, and `on_boundary` is called
//! at the new window start before it runs, so boundary sampling sees the
//! state it would have seen at any skipped boundary.
//!
//! Two barriers bound each window: after the first, every domain runs
//! `[w, w+L)` and publishes its outgoing messages into per-`(src, dst)`
//! domain rings; after the second, each domain drains its inbound rings,
//! injects the arrivals and folds its next event time into the shared
//! minimum before the next window starts. The rings are locked once per pair
//! per window (a buffer swap), never per event.
//!
//! # Why results are bit-exact for any domain count
//!
//! Grouping units into domains must not change any observable state. The
//! argument:
//!
//! 1. **Units share no mutable state.** All interaction is via messages, and
//!    *every* cross-unit message goes through the ring — even when both units
//!    happen to share a domain. The union of per-unit state is therefore a
//!    product of independent machines driven by (local events ∪ injected
//!    arrivals).
//! 2. **Injection order is canonical.** Each domain sorts the arrivals it
//!    drains by `(arrival_time, source_unit, per-source sequence)` before
//!    injecting. The key is unique — a source unit's sequence counter never
//!    repeats — so the injected order is a pure function of the message set,
//!    not of ring layout or thread interleaving.
//! 3. **Within a window, event order per unit is reproducible.** The engine
//!    orders events by `(time, insertion-seq)`. Injections happen first (at
//!    the window boundary, in canonical order), and subsequent insertions are
//!    made by handlers in engine order. Two same-timestamp events belonging
//!    to *different* units may interleave differently under a different
//!    grouping, but by (1) they touch disjoint state, and every
//!    grouping-visible side effect (message sequence numbers, RNG draws,
//!    packet ids, counters) is kept per-unit — so per-unit event streams,
//!    and hence all results, are identical for any grouping.
//!
//! By induction over windows, every unit sees the same arrivals and produces
//! the same messages under any partition, including the single-domain one —
//! which is why `shards = 1` is the serial reference the parallel runs are
//! byte-compared against.

use crate::{SimDuration, SimTime};
use core::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex, PoisonError};

/// A cross-unit message in flight, carrying its canonical ordering key.
#[derive(Debug, Clone)]
pub struct Envelope<M> {
    /// Simulation time the message is due at its destination.
    pub time: SimTime,
    /// Unit that sent it (global unit id).
    pub src_unit: u32,
    /// Per-source-unit sequence number; `(time, src_unit, seq)` is unique.
    pub seq: u64,
    /// Unit it is addressed to (global unit id).
    pub dst_unit: u32,
    /// Payload.
    pub msg: M,
}

/// One domain of a sharded run: a group of units with a private scheduler.
pub trait Domain: Send {
    /// Message payload exchanged between units.
    type Msg: Send;
    /// Schedule an inbound arrival. Called in canonical order at a window
    /// boundary; `env.time` is never before the boundary.
    fn inject(&mut self, env: Envelope<Self::Msg>);
    /// Window-boundary hook (sampling, bookkeeping). The domain's state is
    /// quiescent at `now`. Boundaries increase along the window grid but
    /// need not be consecutive: windows in which no domain has an event are
    /// skipped.
    fn on_boundary(&mut self, now: SimTime);
    /// Timestamp of the domain's earliest pending event, if any. Read once
    /// per window, after the boundary's arrivals are injected.
    fn next_event_time(&self) -> Option<SimTime>;
    /// Run every event strictly before `end`; return events processed.
    fn run_window(&mut self, end: SimTime) -> u64;
    /// Final inclusive pass: run events up to and at `horizon`.
    fn finish(&mut self, horizon: SimTime) -> u64;
    /// Append messages produced since the last call to `into`, leaving the
    /// domain's internal buffer empty *with its capacity intact* — the
    /// executor calls this once per window per domain, and the contract
    /// exists so the steady state recycles both buffers instead of
    /// allocating a fresh `Vec` every window.
    fn drain_outgoing(&mut self, into: &mut Vec<Envelope<Self::Msg>>);
    /// Drain the count of flows newly completed since the last call.
    fn take_completions(&mut self) -> u64;
}

/// Merged result of a sharded run.
#[derive(Debug, Clone, Copy)]
pub struct ShardStats {
    /// Total events processed across all domains.
    pub events_processed: u64,
    /// Time the run ended: the horizon, or the window boundary at which the
    /// completion target was reached.
    pub end_time: SimTime,
    /// Whether the run stopped at the completion target before the horizon.
    pub stopped_early: bool,
}

/// A shard thread panicked during a sharded run.
///
/// [`run_sharded`] catches the panic, releases the lockstep barriers so the
/// sibling shards can observe the failure and exit cleanly at the next
/// window boundary, and returns this structured error instead of
/// deadlocking (or poisoning the join).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardError {
    /// Index of the domain whose thread panicked first.
    pub shard: usize,
    /// The panic payload, stringified when possible.
    pub message: String,
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shard {} panicked: {}", self.shard, self.message)
    }
}

impl std::error::Error for ShardError {}

/// Best-effort stringification of a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Per-`(src, dst)` domain message rings, swapped once per window.
struct Rings<M> {
    domains: usize,
    slots: Vec<Mutex<Vec<Envelope<M>>>>,
}

impl<M> Rings<M> {
    /// Ring capacity preallocated per pair; rings grow past this only under
    /// bursts, and the buffers are recycled so steady state never allocates.
    const CAPACITY: usize = 256;

    fn new(domains: usize) -> Self {
        Rings {
            domains,
            slots: (0..domains * domains)
                .map(|_| Mutex::new(Vec::with_capacity(Self::CAPACITY)))
                .collect(),
        }
    }

    /// Publish `src`'s messages for `dst`: one lock, one append.
    ///
    /// A poisoned slot (its lock holder panicked) is recovered with
    /// `into_inner`: the run is already doomed to a [`ShardError`], but the
    /// sibling shards must keep moving through the barrier protocol instead
    /// of amplifying the panic here.
    fn publish(&self, src: usize, dst: usize, buf: &mut Vec<Envelope<M>>) {
        let mut slot = self.slots[src * self.domains + dst]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        slot.append(buf);
    }

    /// Drain everything addressed to `dst` into `into` (one lock per source).
    /// Poison-tolerant for the same reason as [`Rings::publish`].
    fn drain_into(&self, dst: usize, into: &mut Vec<Envelope<M>>) {
        for src in 0..self.domains {
            let mut slot = self.slots[src * self.domains + dst]
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            into.append(&mut slot);
        }
    }
}

/// Deterministically assign weighted units to `domains` groups.
///
/// Longest-processing-time greedy: heaviest unit first onto the least-loaded
/// domain, every tie broken by the lower index. The output depends only on
/// `(weights, domains)`, so a partition is reproducible across runs and
/// machines; every unit is assigned to exactly one domain.
pub fn partition_units(weights: &[u64], domains: usize) -> Vec<u32> {
    assert!(domains > 0, "need at least one domain");
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(weights[i]), i));
    let mut load = vec![0u64; domains];
    let mut assign = vec![0u32; weights.len()];
    for i in order {
        let mut best = 0usize;
        for d in 1..domains {
            if load[d] < load[best] {
                best = d;
            }
        }
        load[best] += weights[i].max(1);
        assign[i] = best as u32;
    }
    assign
}

/// Run `domains` under the conservative-lookahead window protocol.
///
/// * `unit_domain[u]` maps each global unit id to the domain that owns it.
/// * `lookahead` is the window size `L`; it must not exceed the minimum
///   cross-unit message latency (see the module docs) and must be positive.
///   Windows start on the grid `k·L`; empty stretches of it are skipped.
/// * `stop_after_completions`: when `Some(n)`, the run ends at the first
///   window boundary at which `n` flow completions have been reported.
///
/// Returns the merged [`ShardStats`]; per-domain results stay in `domains`.
///
/// # Panic safety
///
/// Model code runs inside `catch_unwind`. When a domain panics, its thread
/// records the payload, raises a shared poison flag, and *keeps
/// participating in the barrier protocol*; every sibling observes the flag
/// at its next window boundary and exits, so the panic surfaces as a
/// [`ShardError`] within one lockstep window instead of deadlocking the
/// remaining shards at a barrier.
pub fn run_sharded<D: Domain>(
    domains: &mut [D],
    unit_domain: &[u32],
    lookahead: SimDuration,
    horizon: SimTime,
    stop_after_completions: Option<u64>,
) -> Result<ShardStats, ShardError> {
    assert!(!domains.is_empty(), "need at least one domain");
    assert!(lookahead > SimDuration::ZERO, "lookahead must be positive");
    let n = domains.len();
    let rings: Rings<D::Msg> = Rings::new(n);
    let barrier = Barrier::new(n);
    let completions = AtomicU64::new(0);
    let total_events = AtomicU64::new(0);
    // Two poison flags, split by the phase of the window protocol that may
    // set them. A single flag would race: a thread panicking in the run
    // phase sets it *between* the two barriers, so a slow sibling could
    // observe it at the post-barrier-1 checkpoint while a fast sibling
    // (which checked before the write landed) is already committed to
    // waiting at barrier 2 — and the barriers deadlock. With the split,
    // each flag is only read at a checkpoint that is barrier-separated from
    // every write site of that flag, so the value is frozen there and all
    // threads take the same branch.
    //
    // * `poison_inject` — set during the inject/boundary phase (between
    //   barrier 2 of the previous window and barrier 1); read only at the
    //   post-barrier-1 checkpoint.
    // * `poison_run` — set during the run/publish phase (between barrier 1
    //   and barrier 2); read only at the top-of-window checkpoint (after
    //   barrier 2).
    let poison_inject = AtomicBool::new(false);
    let poison_run = AtomicBool::new(false);
    let first_panic: Mutex<Option<ShardError>> = Mutex::new(None);
    // The global minimum of the domains' next event times, in nanoseconds
    // (`u64::MAX`: nothing pending). The slot a window folds into alternates
    // with its parity, so the jump needs no third barrier: a slot is read
    // between barriers 1 and 2 of its window, which leaves the other slot,
    // read a window earlier, free to reset before barrier 1.
    let next_min = [AtomicU64::new(u64::MAX), AtomicU64::new(u64::MAX)];
    let step = lookahead.as_nanos();

    let record_panic = |flag: &AtomicBool, shard: usize, payload: Box<dyn std::any::Any + Send>| {
        flag.store(true, Ordering::Release);
        let mut slot = first_panic.lock().unwrap_or_else(PoisonError::into_inner);
        if slot.is_none() {
            *slot = Some(ShardError {
                shard,
                message: panic_message(payload.as_ref()),
            });
        }
    };

    let mut results: Vec<Option<(SimTime, bool)>> = Vec::with_capacity(n);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(n);
        for (d, domain) in domains.iter_mut().enumerate() {
            let rings = &rings;
            let barrier = &barrier;
            let completions = &completions;
            let total_events = &total_events;
            let poison_inject = &poison_inject;
            let poison_run = &poison_run;
            let next_min = &next_min;
            let record_panic = &record_panic;
            handles.push(scope.spawn(move || {
                let mut w = SimTime::ZERO;
                let mut parity = 0usize;
                let mut events = 0u64;
                let mut inbound: Vec<Envelope<D::Msg>> = Vec::new();
                // Per-thread scratch, all capacity-recycled across windows:
                // the domain drains into `outgoing`, which is routed into
                // the per-destination `outgoing_bufs`, which the rings
                // consume with an append. Steady state allocates nothing.
                let mut outgoing: Vec<Envelope<D::Msg>> = Vec::new();
                let mut outgoing_bufs: Vec<Vec<Envelope<D::Msg>>> =
                    (0..n).map(|_| Vec::new()).collect();
                let outcome = loop {
                    // Top-of-window checkpoint: barrier 2 of the previous
                    // window separates this read from every `poison_run`
                    // write site, so all threads read the same value here.
                    if poison_run.load(Ordering::Acquire) {
                        break None;
                    }
                    let stop = match catch_unwind(AssertUnwindSafe(|| {
                        rings.drain_into(d, &mut inbound);
                        inbound.sort_by_key(|e| (e.time, e.src_unit, e.seq));
                        for env in inbound.drain(..) {
                            domain.inject(env);
                        }
                        domain.on_boundary(w);
                        if d == 0 {
                            next_min[parity ^ 1].store(u64::MAX, Ordering::Release);
                        }
                        let next = domain.next_event_time().map_or(u64::MAX, SimTime::as_nanos);
                        next_min[parity].fetch_min(next, Ordering::AcqRel);
                        stop_after_completions
                            .is_some_and(|target| completions.load(Ordering::Acquire) >= target)
                    })) {
                        Ok(stop) => stop,
                        Err(payload) => {
                            record_panic(poison_inject, d, payload);
                            false
                        }
                    };
                    barrier.wait();
                    // Post-barrier-1 checkpoint: the barrier separates this
                    // read from every `poison_inject` write site. A
                    // panicking thread reported `stop = false`, so the
                    // poison check must come first to keep the verdict
                    // uniform.
                    if poison_inject.load(Ordering::Acquire) {
                        break None;
                    }
                    if stop {
                        break Some((w, true));
                    }
                    // Jump to the grid window holding the earliest pending
                    // event of any domain. Every thread reads the same
                    // minimum, so all of them land on the same window.
                    let t = next_min[parity].load(Ordering::Acquire);
                    parity ^= 1;
                    let start = SimTime::from_nanos(t / step * step).clamp(w, horizon);
                    let jumped = start > w;
                    w = start;
                    if w >= horizon {
                        // Arrivals due exactly at the horizon were injected
                        // above; messages produced now would be due after it.
                        match catch_unwind(AssertUnwindSafe(|| {
                            if jumped {
                                domain.on_boundary(w);
                            }
                            let e = domain.finish(horizon);
                            // Messages produced at the horizon would be due
                            // after it; drain and discard them.
                            outgoing.clear();
                            domain.drain_outgoing(&mut outgoing);
                            outgoing.clear();
                            e
                        })) {
                            Ok(e) => events += e,
                            Err(payload) => {
                                // Every thread breaks out of the loop on
                                // this branch regardless of the flag, so no
                                // checkpoint reads it — only the final
                                // error check after the join does.
                                record_panic(poison_run, d, payload);
                                break None;
                            }
                        }
                        break Some((horizon, false));
                    }
                    let end = (w + lookahead).min(horizon);
                    if let Err(payload) = catch_unwind(AssertUnwindSafe(|| {
                        if jumped {
                            domain.on_boundary(w);
                        }
                        events += domain.run_window(end);
                        let done = domain.take_completions();
                        if done > 0 {
                            completions.fetch_add(done, Ordering::AcqRel);
                        }
                        domain.drain_outgoing(&mut outgoing);
                        for env in outgoing.drain(..) {
                            outgoing_bufs[unit_domain[env.dst_unit as usize] as usize].push(env);
                        }
                        for (dst, buf) in outgoing_bufs.iter_mut().enumerate() {
                            if !buf.is_empty() {
                                rings.publish(d, dst, buf);
                            }
                        }
                    })) {
                        record_panic(poison_run, d, payload);
                    }
                    barrier.wait();
                    w = end;
                };
                total_events.fetch_add(events, Ordering::AcqRel);
                outcome
            }));
        }
        for (d, h) in handles.into_iter().enumerate() {
            match h.join() {
                Ok(outcome) => results.push(outcome),
                // A panic outside the catch_unwind regions (barrier/atomic
                // code) still surfaces as a structured error.
                Err(payload) => {
                    record_panic(&poison_run, d, payload);
                    results.push(None);
                }
            }
        }
    });

    if poison_inject.load(Ordering::Acquire) || poison_run.load(Ordering::Acquire) {
        let err = first_panic
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
            .unwrap_or(ShardError {
                shard: 0,
                message: "unknown shard failure".to_string(),
            });
        return Err(err);
    }
    let (end_time, stopped_early) = results[0].expect("non-poisoned run must have an outcome");
    debug_assert!(results
        .iter()
        .all(|&r| r == Some((end_time, stopped_early))));
    Ok(ShardStats {
        events_processed: total_events.load(Ordering::Acquire),
        end_time,
        stopped_early,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitioner_is_deterministic_and_total() {
        let weights: Vec<u64> = (0..37).map(|i| (i * 7919) % 101).collect();
        for domains in 1..=5 {
            let a = partition_units(&weights, domains);
            let b = partition_units(&weights, domains);
            assert_eq!(a, b, "partition must be reproducible");
            assert_eq!(a.len(), weights.len(), "every unit assigned");
            assert!(a.iter().all(|&d| (d as usize) < domains));
            // Every domain gets work when there are enough units.
            if weights.len() >= domains {
                for d in 0..domains as u32 {
                    assert!(a.contains(&d), "domain {d} of {domains} left empty");
                }
            }
        }
    }

    #[test]
    fn partitioner_balances_equal_weights() {
        let weights = vec![1u64; 12];
        let assign = partition_units(&weights, 4);
        for d in 0..4u32 {
            assert_eq!(assign.iter().filter(|&&x| x == d).count(), 3);
        }
    }

    /// A unit that forwards a token around a ring of units with a fixed
    /// per-hop latency, counting hops. Exercises the full barrier loop.
    struct Token {
        unit: u32,
        next_unit: u32,
        hop: SimDuration,
        hops_seen: u64,
        seq: u64,
    }

    #[derive(Default)]
    struct RingDomain {
        units: Vec<Token>,
        queued: Vec<(SimTime, usize, u64)>, // (due, local unit, token)
        outgoing: Vec<Envelope<u64>>,
        /// `run_window` calls, i.e. windows this domain actually ran.
        windows: u64,
        /// Every `on_boundary` time, and every hop time `run_window` ran.
        boundaries: Vec<SimTime>,
        window_hops: Vec<SimTime>,
    }

    impl RingDomain {
        fn forward(token: &mut Token, at: SimTime, payload: u64) -> Envelope<u64> {
            token.hops_seen += 1;
            token.seq += 1;
            Envelope {
                time: at + token.hop,
                src_unit: token.unit,
                seq: token.seq,
                dst_unit: token.next_unit,
                msg: payload + 1,
            }
        }
    }

    impl Domain for RingDomain {
        type Msg = u64;
        fn inject(&mut self, env: Envelope<u64>) {
            let local = self
                .units
                .iter()
                .position(|t| t.unit == env.dst_unit)
                .expect("misrouted");
            self.queued.push((env.time, local, env.msg));
        }
        fn on_boundary(&mut self, now: SimTime) {
            self.boundaries.push(now);
        }
        fn next_event_time(&self) -> Option<SimTime> {
            self.queued.iter().map(|&(t, _, _)| t).min()
        }
        fn run_window(&mut self, end: SimTime) -> u64 {
            self.windows += 1;
            self.queued.sort_by_key(|&(t, u, m)| (t, u, m));
            let mut events = 0;
            while let Some(&(t, local, msg)) = self.queued.first() {
                if t >= end {
                    break;
                }
                self.queued.remove(0);
                self.window_hops.push(t);
                let env = Self::forward(&mut self.units[local], t, msg);
                self.outgoing.push(env);
                events += 1;
            }
            events
        }
        fn finish(&mut self, horizon: SimTime) -> u64 {
            // Inclusive: tokens due exactly at the horizon still count.
            self.queued.sort_by_key(|&(t, u, m)| (t, u, m));
            let mut events = 0;
            while let Some(&(t, local, msg)) = self.queued.first() {
                if t > horizon {
                    break;
                }
                self.queued.remove(0);
                let env = Self::forward(&mut self.units[local], t, msg);
                self.outgoing.push(env);
                events += 1;
            }
            events
        }
        fn drain_outgoing(&mut self, into: &mut Vec<Envelope<u64>>) {
            into.append(&mut self.outgoing);
        }
        fn take_completions(&mut self) -> u64 {
            0
        }
    }

    /// Pass a token around `units` units with a 1 ms hop. Returns the hop
    /// count per unit, the merged stats, and the windows one domain ran.
    fn run_ring(
        units: usize,
        domains: usize,
        horizon_ms: u64,
        lookahead: SimDuration,
    ) -> (Vec<u64>, ShardStats, u64) {
        let hop = SimDuration::from_millis(1);
        let weights = vec![1u64; units];
        let unit_domain = partition_units(&weights, domains);
        let mut doms: Vec<RingDomain> = (0..domains).map(|_| RingDomain::default()).collect();
        for u in 0..units {
            doms[unit_domain[u] as usize].units.push(Token {
                unit: u as u32,
                next_unit: ((u + 1) % units) as u32,
                hop,
                hops_seen: 0,
                seq: 0,
            });
        }
        // Seed: unit 0 holds the token at t=0.
        let d0 = unit_domain[0] as usize;
        let local0 = doms[d0].units.iter().position(|t| t.unit == 0).unwrap();
        doms[d0].queued.push((SimTime::ZERO, local0, 0));
        let stats = run_sharded(
            &mut doms,
            &unit_domain,
            lookahead,
            SimTime::ZERO + SimDuration::from_millis(horizon_ms),
            None,
        )
        .expect("ring run must not fail");
        // A window that ran was announced at its start: every hop it ran
        // lies less than one lookahead after some boundary.
        for d in &doms {
            for &t in &d.window_hops {
                assert!(
                    d.boundaries.iter().any(|&b| b <= t && t < b + lookahead),
                    "hop at {t:?} ran without a boundary at its window start"
                );
            }
        }
        let windows = doms.iter().map(|d| d.windows).max().unwrap_or(0);
        let mut hops = vec![0u64; units];
        for d in doms {
            for t in d.units {
                hops[t.unit as usize] = t.hops_seen;
            }
        }
        (hops, stats, windows)
    }

    #[test]
    fn ring_token_is_grouping_invariant() {
        let hop = SimDuration::from_millis(1);
        let serial = run_ring(6, 1, 50, hop);
        for domains in 2..=4 {
            let parallel = run_ring(6, domains, 50, hop);
            assert_eq!(serial.0, parallel.0, "{domains} domains diverged");
            assert_eq!(
                serial.1.events_processed, parallel.1.events_processed,
                "event counts diverged at {domains} domains"
            );
        }
        // 6 units, 1 ms per hop, horizon 50 ms inclusive: 51 hops total.
        assert_eq!(serial.0.iter().sum::<u64>(), 51);
    }

    #[test]
    fn empty_windows_are_skipped() {
        // A 10 us lookahead under a 1 ms hop leaves 99 of every 100 grid
        // windows empty: 5,000 windows span the 50 ms horizon, but only
        // those holding a hop may run.
        let reference = run_ring(6, 1, 50, SimDuration::from_millis(1));
        for domains in [1, 3] {
            let (hops, stats, windows) = run_ring(6, domains, 50, SimDuration::from_micros(10));
            assert_eq!(hops, reference.0, "hops diverged at {domains} domains");
            assert_eq!(stats.events_processed, reference.1.events_processed);
            assert_eq!(stats.end_time, reference.1.end_time);
            let total: u64 = hops.iter().sum();
            assert!(
                windows <= 2 * (total + 1),
                "{windows} windows ran for {total} hops at {domains} domains"
            );
        }
    }

    /// A domain that panics inside `run_window` once the clock passes a
    /// trigger time; all other behavior forwards to the ring domain.
    struct PanickyDomain {
        inner: RingDomain,
        panic_at: SimTime,
    }

    impl Domain for PanickyDomain {
        type Msg = u64;
        fn inject(&mut self, env: Envelope<u64>) {
            self.inner.inject(env);
        }
        fn on_boundary(&mut self, now: SimTime) {
            self.inner.on_boundary(now);
        }
        fn next_event_time(&self) -> Option<SimTime> {
            self.inner.next_event_time()
        }
        fn run_window(&mut self, end: SimTime) -> u64 {
            if end > self.panic_at {
                panic!("injected fault at {end:?}");
            }
            self.inner.run_window(end)
        }
        fn finish(&mut self, horizon: SimTime) -> u64 {
            self.inner.finish(horizon)
        }
        fn drain_outgoing(&mut self, into: &mut Vec<Envelope<u64>>) {
            self.inner.drain_outgoing(into);
        }
        fn take_completions(&mut self) -> u64 {
            self.inner.take_completions()
        }
    }

    #[test]
    fn shard_panic_surfaces_as_error_without_deadlock() {
        // 4 units over 3 domains; the domain owning unit 1 blows up a few
        // windows in. Without panic capture the sibling threads would wait
        // forever at the lockstep barrier and this test would hang.
        let hop = SimDuration::from_millis(1);
        let units = 4usize;
        let unit_domain: Vec<u32> = vec![0, 1, 2, 0];
        let mut doms: Vec<PanickyDomain> = (0..3)
            .map(|d| PanickyDomain {
                inner: RingDomain::default(),
                panic_at: if d == 1 {
                    SimTime::from_millis(5)
                } else {
                    SimTime::MAX
                },
            })
            .collect();
        for u in 0..units {
            doms[unit_domain[u] as usize].inner.units.push(Token {
                unit: u as u32,
                next_unit: ((u + 1) % units) as u32,
                hop,
                hops_seen: 0,
                seq: 0,
            });
        }
        doms[0].inner.queued.push((SimTime::ZERO, 0, 0));
        let err = run_sharded(&mut doms, &unit_domain, hop, SimTime::from_secs(1), None)
            .expect_err("panicking domain must produce an error");
        assert_eq!(err.shard, 1);
        assert!(
            err.message.contains("injected fault"),
            "payload lost: {}",
            err.message
        );
        // The error must also format usefully.
        let text = err.to_string();
        assert!(text.contains("shard 1"), "{text}");
    }

    #[test]
    fn single_domain_panic_is_an_error_too() {
        let hop = SimDuration::from_millis(1);
        let mut doms = vec![PanickyDomain {
            inner: RingDomain {
                units: vec![Token {
                    unit: 0,
                    next_unit: 0,
                    hop,
                    hops_seen: 0,
                    seq: 0,
                }],
                queued: vec![(SimTime::ZERO, 0, 0)],
                ..RingDomain::default()
            },
            panic_at: SimTime::from_millis(2),
        }];
        let err =
            run_sharded(&mut doms, &[0], hop, SimTime::from_secs(1), None).expect_err("must error");
        assert_eq!(err.shard, 0);
    }
}
