//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--root <dir>] [--out <file>] [--commit <id>]`
//!
//! With `--trace 0` it times the workload's batch back to back for
//! `--seconds` and reports the end-to-end metrics; with `--trace 1` it runs
//! the same scenarios traced on the serial executor and reports the per-layer
//! metrics. Either way every run's output is checked, and the last stdout
//! line is the JSON result. `--out` also appends the result, with the run's
//! context, to that file as one JSON line; nothing else is written.
//!
//! `--seed` orders the runs within a batch. Every simulation runs at
//! [`GOLDEN_SEED`], the seed the goldens were recorded at: a fault run's event
//! count varies by 30-70% between scenario seeds, so varying it with `--seed`
//! would swamp any change in host time.

use perfbench::check::{check_run, Checker, Outputs, GOLDEN_SEED};
use perfbench::trace::{run_traced, Kind, KindTotals, TracedRun, KINDS};
use perfbench::workload::{
    find, timed_setup, with_shards, Item, Workload, OVERHEAD_SHARDS, WORKLOADS,
};
use rss_core::{fairness_csv, fairness_reports, results_csv, RunReport, Scenario};
use rss_sim::{QueueCounters, SplitMix64};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Set-up is sampled before the first batch (at least this many times)...
const SETUP_FIRST_REPS: usize = 11;
/// ...and again before every batch, for about this long (at least once), so
/// its median spans the whole run rather than one moment of host load.
const SETUP_CHUNK_S: f64 = 0.05;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    root: PathBuf,
    out: Option<PathBuf>,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let mut kv = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        let v = it.next().ok_or_else(|| format!("{k} needs a value"))?;
        kv.insert(k, v);
    }
    let mut take = |k: &str| kv.remove(k);
    let workload = take("--workload").ok_or("--workload is required")?;
    let workload = find(&workload).ok_or_else(|| {
        let known: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "unknown workload `{workload}` (known: {})",
            known.join(", ")
        )
    })?;
    let seed = take("--seed").map_or(Ok(1), |v| {
        v.parse::<u64>().map_err(|e| format!("--seed: {e}"))
    })?;
    let seconds = take("--seconds").map_or(Ok(10.0), |v| {
        v.parse::<f64>().map_err(|e| format!("--seconds: {e}"))
    })?;
    let trace = match take("--trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(v) => return Err(format!("--trace must be 0 or 1, got `{v}`")),
    };
    let root = PathBuf::from(take("--root").unwrap_or_else(|| ".".into()));
    let out = take("--out").map(PathBuf::from);
    let commit: String = take("--commit")
        .unwrap_or_else(|| "unknown".into())
        .chars()
        .filter(|c| c.is_ascii_alphanumeric() || "._-".contains(*c))
        .collect();
    if let Some(k) = kv.keys().next() {
        return Err(format!("unknown argument `{k}`"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        root,
        out,
        commit,
    })
}

fn median(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Set-up timings, sampled through the run.
#[derive(Default)]
struct SetupSamples {
    /// Spec load/validate/expand of every file, seconds, one per set-up.
    spec_s: Vec<f64>,
    /// `World::build` of every run, summed, seconds, one per set-up.
    build_s: Vec<f64>,
}

impl SetupSamples {
    /// Set the workload up at least `min_reps` times and until `budget_s`
    /// has passed; returns the items of the last set-up.
    fn sample(&mut self, args: &Args, min_reps: usize, budget_s: f64) -> Result<Vec<Item>, String> {
        let t = Instant::now();
        let mut reps = 0;
        loop {
            let (items, times) = timed_setup(&args.root, args.workload, GOLDEN_SEED)?;
            self.spec_s.push(times.spec_s);
            self.build_s.push(times.build_s.iter().sum());
            reps += 1;
            if reps >= min_reps && secs(t) >= budget_s {
                return Ok(items);
            }
        }
    }

    fn total_s(&self) -> f64 {
        median(
            self.spec_s
                .iter()
                .zip(&self.build_s)
                .map(|(a, b)| a + b)
                .collect(),
        )
    }

    fn spec_s(&self) -> f64 {
        median(self.spec_s.clone())
    }

    fn build_s(&self) -> f64 {
        median(self.build_s.clone())
    }
}

fn run_one(sc: &Scenario) -> Result<RunReport, String> {
    catch_unwind(AssertUnwindSafe(|| rss_core::run(sc))).map_err(|p| {
        p.downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".into())
    })
}

/// The order a batch runs in: every `(item, run)` pair, shuffled by `seed`.
fn batch_order(items: &[Item], seed: u64) -> Vec<(usize, usize)> {
    let mut order: Vec<_> = items
        .iter()
        .enumerate()
        .flat_map(|(i, it)| (0..it.runs.len()).map(move |j| (i, j)))
        .collect();
    let mut rng = SplitMix64::new(seed);
    for k in (1..order.len()).rev() {
        order.swap(k, (rng.next_u64() % (k as u64 + 1)) as usize);
    }
    order
}

/// One batch: every run back to back on this thread. Each run is checked
/// as soon as it ends, off the clock, so one report is alive at a time.
struct Batch {
    wall_s: f64,
    events: u64,
}

impl Batch {
    fn run(items: &[Item], order: &[(usize, usize)], checker: &mut Checker) -> Batch {
        let (mut wall_s, mut events) = (0.0, 0);
        for &(i, j) in order {
            let t = Instant::now();
            let outcome = run_one(&items[i].runs[j].scenario);
            wall_s += secs(t);
            events += outcome.as_ref().map_or(0, |r| r.events_processed);
            checker.check(items, i, j, &outcome);
        }
        Batch { wall_s, events }
    }

    /// Host nanoseconds per event, with `build_s` of `World::build` time
    /// taken out.
    fn ns_per_event(&self, build_s: f64) -> f64 {
        (self.wall_s - build_s) * 1e9 / self.events.max(1) as f64
    }
}

/// One untimed pass of the batch before timing, checked against the goldens.
fn warm_up(args: &Args, items: &[Item], order: &[(usize, usize)]) -> Result<Checker, String> {
    let mut checker = Checker::new(&args.root, items, true)?;
    Batch::run(items, order, &mut checker);
    Ok(checker)
}

struct Measured {
    checkers: Vec<Checker>,
    metrics: Vec<(String, f64)>,
    notes: Vec<String>,
}

/// End-to-end metrics: the batch back to back for `--seconds`, untraced.
fn measure(args: &Args) -> Result<Measured, String> {
    let mut setup = SetupSamples::default();
    let items = setup.sample(args, SETUP_FIRST_REPS, 0.0)?;
    let order = batch_order(&items, args.seed);
    let mut checker = warm_up(args, &items, &order)?;
    let mut batches = Vec::new();
    let t = Instant::now();
    while batches.is_empty() || secs(t) < args.seconds {
        setup.sample(args, 1, SETUP_CHUNK_S)?;
        batches.push(Batch::run(&items, &order, &mut checker));
    }
    // Only serial runs call `World::build`; the sharded executor builds its
    // worlds privately, so its batches keep that time in.
    let build_s = match args.workload.shards {
        None => setup.build_s(),
        Some(_) => 0.0,
    };
    let notes = vec![format!(
        "{} timed batches, {} set-ups",
        batches.len(),
        setup.spec_s.len()
    )];
    let metrics = vec![
        (
            "wall_s".into(),
            median(batches.iter().map(|b| b.wall_s).collect()),
        ),
        (
            "events_per_s".into(),
            median(
                batches
                    .iter()
                    .map(|b| 1e9 / b.ns_per_event(build_s))
                    .collect(),
            ),
        ),
        ("setup_s".into(), setup.total_s()),
        ("peak_rss_mb".into(), peak_rss_mb()?),
    ];
    Ok(Measured {
        checkers: vec![checker],
        metrics,
        notes,
    })
}

/// Per-layer metrics: every run of the batch on the serial executor, once
/// untraced and once through `Engine<Traced<World>>`, repeated for
/// `--seconds`. Sharded workloads also run their batch once at
/// [`OVERHEAD_SHARDS`], for `shard.overhead_x`.
fn measure_traced(args: &Args) -> Result<Measured, String> {
    let mut setup = SetupSamples::default();
    let items = setup.sample(args, SETUP_FIRST_REPS, 0.0)?;
    let order = batch_order(&items, args.seed);
    let mut checker = warm_up(args, &items, &order)?;
    let sharded = args.workload.shards.map(|_| {
        let threaded = with_shards(&items, Some(OVERHEAD_SHARDS));
        Batch::run(&threaded, &order, &mut checker)
    });
    let mut checkers = vec![checker];
    let serial = with_shards(&items, None);
    // The serial executor reproduces the goldens only for serial workloads;
    // for the others its reference is its own first execution.
    let mut checker = Checker::new(&args.root, &serial, args.workload.shards.is_none())?;
    let mut reps = Vec::new();
    let t = Instant::now();
    while reps.is_empty() || secs(t) < args.seconds {
        setup.sample(args, 1, SETUP_CHUNK_S)?;
        reps.push(Rep::run(&serial, &mut checker));
    }
    checkers.push(checker);

    let build_s = setup.build_s();
    let mut per_rep: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for rep in &reps {
        for (k, v) in rep.metrics() {
            per_rep.entry(k).or_default().push(v);
        }
    }
    let mut metrics: Vec<(String, f64)> =
        per_rep.into_iter().map(|(k, v)| (k, median(v))).collect();
    // Whole runs on both sides: each executor's world build stays in.
    let serial_ns = median(
        reps.iter()
            .map(|r| r.untraced_s * 1e9 / r.events().max(1) as f64)
            .collect(),
    );
    let shard_x = sharded.map_or(1.0, |b| b.ns_per_event(0.0) / serial_ns);
    metrics.push(("shard.overhead_x".into(), shard_x));
    metrics.push(("core.spec_s".into(), setup.spec_s()));
    metrics.push(("core.build_s".into(), build_s));
    let notes = reps.pop().map(|r| r.detail).unwrap_or_default();
    Ok(Measured {
        checkers,
        metrics,
        notes,
    })
}

/// One traced repetition of the batch.
#[derive(Default)]
struct Rep {
    totals: KindTotals,
    run_until_ns: u64,
    counters: QueueCounters,
    /// Sums over the traced runs' reports, by metric name.
    counts: BTreeMap<&'static str, u64>,
    untraced_s: f64,
    traced_s: f64,
    report_s: f64,
    /// One line per run, for the log.
    detail: Vec<String>,
}

impl Rep {
    /// Run every run of `serial` untraced, then traced, checking the traced
    /// report against the untraced one; time the artifacts' rendering.
    fn run(serial: &[Item], checker: &mut Checker) -> Rep {
        let mut rep = Rep::default();
        for (i, item) in serial.iter().enumerate() {
            let mut reports = Vec::new();
            for (j, sc) in item.scenarios().enumerate() {
                let t = Instant::now();
                let untraced = run_one(sc);
                rep.untraced_s += secs(t);
                let rows = checker.check(serial, i, j, &untraced);
                let t = Instant::now();
                let traced = catch_unwind(AssertUnwindSafe(|| run_traced(sc)))
                    .unwrap_or_else(|_| Err("traced run panicked".into()));
                rep.traced_s += secs(t);
                let verdict = traced.and_then(|tr| {
                    let got = Outputs::of_run(item, j, &tr.report).rows(item, j);
                    let want = rows.as_deref().unwrap_or("<untraced run failed>");
                    check_run(&tr.report, &got, Some(want))?;
                    if tr.totals.total_events() != tr.report.events_processed {
                        return Err("traced event count differs from the engine's".into());
                    }
                    Ok(tr)
                });
                if let Some(tr) = checker.record(item, j, verdict) {
                    let line = rep.add(tr);
                    let r = &item.runs[j];
                    rep.detail.push(format!(
                        "{}/{}/cell {}: {line}",
                        item.spec.name, r.label, r.cell
                    ));
                }
                reports.extend(untraced.ok());
            }
            if reports.len() == item.runs.len() {
                let t = Instant::now();
                black_box(results_csv(&item.spec, &item.runs, &reports));
                if item.spec.fairness.is_some() {
                    let frs = fairness_reports(&item.spec, &reports);
                    black_box(fairness_csv(&item.spec, &item.runs, &frs));
                }
                rep.report_s += secs(t);
            }
        }
        rep
    }

    /// Fold one traced run in; returns its log line.
    fn add(&mut self, tr: TracedRun) -> String {
        self.totals.add(&tr.totals);
        self.run_until_ns += tr.run_until_ns;
        let r = &tr.report;
        if let Some(c) = &r.engine {
            self.counters.merge(c);
        }
        let mut count = |k, v| *self.counts.entry(k).or_default() += v;
        count("net.drops", r.router_queue_drops);
        count("net.red.early_drops", r.router_red_early_drops);
        count("net.red.forced_drops", r.router_red_forced_drops);
        count("net.ecn_marks", r.router_ecn_marks);
        for f in &r.flows {
            count("host.send_stalls", f.vars.send_stall);
            count("tcp.rto_episodes", f.rto_episodes);
            count("tcp.dup_segments", f.receiver_dup_segments);
            count("tcp.ooo_segments", f.receiver_ooo_segments);
            count("delivered_bytes", f.receiver_delivered_bytes);
            count("data_bytes_out", f.vars.data_bytes_out);
        }
        let data = tr.totals.events[Kind::Data as usize];
        format!(
            "events {} data segments {} events/segment {:.3} traced run_until ns/event {:.1}",
            r.events_processed,
            data,
            r.events_processed as f64 / data.max(1) as f64,
            tr.run_until_ns as f64 / r.events_processed.max(1) as f64,
        )
    }

    fn events(&self) -> u64 {
        self.totals.total_events()
    }

    fn metrics(&self) -> Vec<(String, f64)> {
        let events = self.events().max(1) as f64;
        let run_ns = self.run_until_ns.max(1) as f64;
        let self_ns = self.run_until_ns as f64 - self.totals.total_handle_ns() as f64;
        let count = |k: &str| self.counts.get(k).copied().unwrap_or(0) as f64;
        let c = &self.counters;
        let data = self.totals.events[Kind::Data as usize].max(1) as f64;
        let mut m: Vec<(String, f64)> = vec![
            ("sim.events".into(), self.events() as f64),
            ("sim.self_ns_per_event".into(), self_ns / events),
            ("sim.share".into(), self_ns / run_ns),
            ("sim.wheel.scheduled".into(), c.scheduled as f64),
            ("sim.wheel.cancelled".into(), c.cancelled as f64),
            ("sim.wheel.tombstone_ratio".into(), c.tombstone_ratio()),
            ("sim.wheel.far_migrations".into(), c.far_migrations as f64),
            ("sim.wheel.hit_rate".into(), c.wheel_hit_rate()),
            ("tcp.events_per_segment".into(), events / data),
            (
                "tcp.delivered_ratio".into(),
                count("delivered_bytes") / count("data_bytes_out").max(1.0),
            ),
            ("core.report_s".into(), self.report_s),
            ("trace.overhead_x".into(), self.traced_s / self.untraced_s),
        ];
        for k in [
            "net.drops",
            "net.red.early_drops",
            "net.red.forced_drops",
            "net.ecn_marks",
            "host.send_stalls",
            "tcp.rto_episodes",
            "tcp.dup_segments",
            "tcp.ooo_segments",
        ] {
            m.push((k.into(), count(k)));
        }
        for k in KINDS {
            let (n, ns) = (
                self.totals.events[k as usize],
                self.totals.handle_ns[k as usize],
            );
            m.push((format!("{}.events", k.name()), n as f64));
            m.push((
                format!("{}.ns_per_event", k.name()),
                ns as f64 / n.max(1) as f64,
            ));
            m.push((format!("{}.share", k.name()), ns as f64 / run_ns));
        }
        m
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

fn unit(name: &str) -> &'static str {
    if name == "events_per_s" {
        "1/s"
    } else if name == "peak_rss_mb" {
        "MB"
    } else if name == "tcp.events_per_segment" {
        "events/segment"
    } else if name.ends_with("_s") {
        "s"
    } else if name.ends_with("ns_per_event") {
        "ns"
    } else if name.ends_with("_x") {
        "x"
    } else if name.ends_with("share") || name.ends_with("ratio") || name.ends_with("rate") {
        "ratio"
    } else {
        "count"
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let measured = if args.trace {
        measure_traced(&args)
    } else {
        measure(&args)
    };
    let m = match measured {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some((name, _)) = m.metrics.iter().find(|(_, v)| !v.is_finite()) {
        eprintln!("perfbench: metric {name} is not a finite number");
        return ExitCode::FAILURE;
    }
    let attempted: u64 = m.checkers.iter().map(|c| c.attempted).sum();
    let failed: u64 = m.checkers.iter().map(|c| c.failed).sum();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let shards = args
        .workload
        .shards
        .map_or("serial".into(), |n| n.to_string());
    println!(
        "perfbench workload={} seed={} trace={} seconds={} nproc={nproc} shards={shards} commit={}",
        args.workload.name, args.seed, args.trace as u8, args.seconds, args.commit
    );
    for note in &m.notes {
        println!("  # {note}");
    }
    for (name, v) in &m.metrics {
        println!("  {name:<28} {v:>16.6} {}", unit(name));
    }
    println!(
        "  {:<28} {:>16.6} ratio ({failed} failed / {attempted} attempted)",
        "fail_frac",
        failed as f64 / attempted.max(1) as f64
    );
    for f in m.checkers.iter().filter_map(|c| c.first_failure.as_deref()) {
        println!("  FAILED {f}");
    }
    let metrics = m
        .metrics
        .iter()
        .map(|(name, v)| {
            format!(
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                unit(name)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    let result = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}",
        failed == 0 && attempted > 0
    );
    if let Some(out) = &args.out {
        let record = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"seconds\": {}, \"nproc\": {nproc}, \"shards\": \"{shards}\", \"commit\": \"{}\", \"result\": {result}}}\n",
            args.workload.name, args.seed, args.trace as u8, args.seconds, args.commit
        );
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(out)
            .and_then(|mut f| f.write_all(record.as_bytes()));
        if let Err(e) = appended {
            eprintln!("perfbench: {}: {e}", out.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{result}");
    ExitCode::SUCCESS
}
