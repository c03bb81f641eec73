//! Outside-in benchmark of the restricted slow-start simulator.
//!
//! Runs batches of the repository's own scenario files through the public
//! entry points (`ScenarioSpec::load`/`expand`, `rss_core::run`,
//! `World::build`/`initial_events`, `results_csv`/`fairness_reports`,
//! `rss_sim::Engine`), checks every output, and attributes host time to the
//! simulator's layers from a separate traced run. `run.py` next to this
//! crate is the command; `README.md` describes the workloads and metrics.

pub mod check;
pub mod trace;
pub mod workload;
