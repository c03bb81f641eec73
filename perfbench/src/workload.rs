//! The four workloads: which scenario files (and which of their runs) make up
//! each batch, the executor each batch runs on, and the timed set-up that
//! turns files into ready-to-run scenarios.

use rss_core::{ExpandedRun, Scenario, ScenarioSpec, ShardsDef, World};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// The shard count `"shards": "auto"` resolves to on a 2-core host. The
/// traced run times the sharded workloads at this count once, for
/// `shard.overhead_x`. Fixed, never `available_parallelism`, so hosts with
/// different core counts compare like with like.
pub const OVERHEAD_SHARDS: u32 = 2;

/// One scenario file of a workload, optionally narrowed to some of its runs.
pub struct Source {
    /// Path relative to the repository root.
    pub spec: &'static str,
    /// `(label, sweep cell)` of the runs to keep; `None` keeps every run.
    pub runs: Option<&'static [(&'static str, usize)]>,
}

/// A named batch of simulations run back to back, one at a time.
pub struct Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// The scenario files, in run order.
    pub sources: &'static [Source],
    /// `Some(n)`: the files' `"shards": "auto"`, pinned to `n`; `None`: the
    /// serial executor. The sharded workloads are timed at 1 shard: at 2, the
    /// shard threads meet at a barrier every lookahead window, and CPU steal
    /// on a shared host turns that into unsteady timings.
    pub shards: Option<u32>,
}

const fn all(spec: &'static str) -> Source {
    Source { spec, runs: None }
}

/// Every workload the benchmark knows.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "paper",
        sources: &[
            all("scenarios/headline.json"),
            all("scenarios/figure1.json"),
        ],
        shards: None,
    },
    Workload {
        name: "manyflow",
        sources: &[all("scenarios/manyflow_dumbbell.json")],
        shards: Some(1),
    },
    Workload {
        name: "aqm",
        sources: &[all("scenarios/aqm/red_vs_droptail.json")],
        shards: None,
    },
    // The paper's algorithm from each file: under bursty loss, and at the
    // paper's 60 ms RTT (sweep cell 1) under reordering and duplication. The
    // other ten runs would add about 8 s to every batch.
    Workload {
        name: "faults",
        sources: &[
            Source {
                spec: "scenarios/faults/burst_loss_lfn.json",
                runs: Some(&[("restricted", 0)]),
            },
            Source {
                spec: "scenarios/faults/reorder_sweep.json",
                runs: Some(&[("restricted", 1)]),
            },
        ],
        shards: Some(1),
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One loaded scenario file: the spec and its selected, seeded runs.
#[derive(Clone)]
pub struct Item {
    /// The parsed spec (its name and output block name the goldens).
    pub spec: ScenarioSpec,
    /// The runs to execute, in file order.
    pub runs: Vec<ExpandedRun>,
}

impl Item {
    /// The scenarios of this item.
    pub fn scenarios(&self) -> impl Iterator<Item = &Scenario> {
        self.runs.iter().map(|r| &r.scenario)
    }
}

/// Copies of `items` whose runs use `shards` (`None`: the serial executor).
pub fn with_shards(items: &[Item], shards: Option<u32>) -> Vec<Item> {
    let mut out = items.to_vec();
    for r in out.iter_mut().flat_map(|it| &mut it.runs) {
        r.scenario.shards = shards;
    }
    out
}

/// Load, validate and expand one workload's files (expansion is the spec's
/// validation pass), pin the executor, keep the selected runs and give every
/// run `seed`.
pub fn load(root: &Path, w: &Workload, seed: u64) -> Result<Vec<Item>, String> {
    let mut items = Vec::with_capacity(w.sources.len());
    for src in w.sources {
        let path = root.join(src.spec);
        let mut spec = ScenarioSpec::load(&path).map_err(|e| e.msg)?;
        match (w.shards, spec.shards) {
            (Some(n), _) => spec.shards = Some(ShardsDef::Count(n)),
            (None, None) => {}
            (None, Some(_)) => return Err(format!("{}: expected a serial scenario", src.spec)),
        }
        let mut runs = spec.expand().map_err(|e| format!("{}: {e}", src.spec))?;
        if let Some(keep) = src.runs {
            runs.retain(|r| keep.iter().any(|&(l, c)| r.label == l && r.cell == c));
            if runs.len() != keep.len() {
                return Err(format!("{}: a selected run is missing", src.spec));
            }
        }
        for r in &mut runs {
            r.scenario.seed = seed;
        }
        items.push(Item { spec, runs });
    }
    Ok(items)
}

/// Host time of one set-up of a workload, split by stage.
pub struct SetupTimes {
    /// Spec load, validate and expand of every file, seconds.
    pub spec_s: f64,
    /// `World::build` of every run, seconds, in run order.
    pub build_s: Vec<f64>,
}

/// Set a workload up once, timing each stage on its own calls. The worlds
/// are built and dropped: the runs themselves go through `rss_core::run`,
/// which builds its own. The sharded executor builds its worlds privately,
/// so for sharded workloads the serial `World::build` stands in for it.
pub fn timed_setup(
    root: &Path,
    w: &Workload,
    seed: u64,
) -> Result<(Vec<Item>, SetupTimes), String> {
    let t = Instant::now();
    let items = load(root, w, seed)?;
    let spec_s = t.elapsed().as_secs_f64();
    let mut build_s = Vec::new();
    for sc in items.iter().flat_map(Item::scenarios) {
        let t = Instant::now();
        let world = World::build(black_box(sc)).map_err(|e| e.to_string())?;
        black_box(&world);
        build_s.push(t.elapsed().as_secs_f64());
        drop(world);
    }
    Ok((items, SetupTimes { spec_s, build_s }))
}
