//! Output checks. Every run's rows of the results CSV (and of the fairness
//! CSV, where the spec writes one) are compared byte for byte with a
//! reference: the committed golden at the default seed, otherwise the same
//! run's rows from an earlier repeat. Independently of the reference, a run
//! must not be truncated and no flow may deliver more bytes than it sent.

use crate::workload::Item;
use rss_core::{fairness_csv, fairness_reports, results_csv, RunReport};
use std::path::Path;

/// The seed the committed goldens were recorded at.
pub const GOLDEN_SEED: u64 = 1;

/// The rendered artifacts of one item.
#[derive(Debug, PartialEq)]
pub struct Outputs {
    /// The per-flow results CSV.
    pub results: String,
    /// The fairness CSV, when the spec has a fairness block.
    pub fairness: Option<String>,
}

impl Outputs {
    /// Render run `j` of `item` exactly as `rss run` writes it (header
    /// included; [`Outputs::rows`] drops it).
    pub fn of_run(item: &Item, j: usize, report: &RunReport) -> Outputs {
        let runs = std::slice::from_ref(&item.runs[j]);
        let reports = std::slice::from_ref(report);
        let results = results_csv(&item.spec, runs, reports);
        let fairness = item.spec.fairness.as_ref().map(|_| {
            let frs = fairness_reports(&item.spec, reports);
            fairness_csv(&item.spec, runs, &frs)
        });
        Outputs { results, fairness }
    }

    /// The committed goldens of an item's scenario file.
    pub fn golden(root: &Path, item: &Item) -> Result<Outputs, String> {
        let read = |name: String| {
            let path = root.join("scenarios/golden").join(&name);
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))
        };
        let results = read(item.spec.csv_name())?;
        let fairness = item.spec.fairness_csv_name().map(read).transpose()?;
        Ok(Outputs { results, fairness })
    }

    /// The rows belonging to run `j` of `item`: every line, in either CSV,
    /// that starts with the run's `scenario,run,cell,` key.
    pub fn rows(&self, item: &Item, j: usize) -> String {
        let r = &item.runs[j];
        let key = format!("{},{},{},", item.spec.name, r.label, r.cell);
        let mut rows = String::new();
        for csv in std::iter::once(&self.results).chain(&self.fairness) {
            for line in csv.lines().filter(|l| l.starts_with(&key)) {
                rows.push_str(line);
                rows.push('\n');
            }
        }
        rows
    }
}

/// Check one run. `rows` are its rendered rows, `expected` the reference
/// rows (`None` when no reference exists yet).
pub fn check_run(report: &RunReport, rows: &str, expected: Option<&str>) -> Result<(), String> {
    if let Some(why) = &report.truncated {
        return Err(format!("truncated: {why}"));
    }
    for f in &report.flows {
        if f.receiver_delivered_bytes > f.vars.data_bytes_out {
            return Err(format!(
                "flow {} delivered {} bytes but sent only {}",
                f.conn, f.receiver_delivered_bytes, f.vars.data_bytes_out
            ));
        }
    }
    if rows.is_empty() {
        return Err("no output rows".into());
    }
    match expected {
        Some(exp) if exp != rows => {
            let end = || std::iter::repeat("<end>");
            let n = exp.lines().count().max(rows.lines().count());
            let (want, got) = exp
                .lines()
                .chain(end())
                .zip(rows.lines().chain(end()))
                .take(n)
                .find(|(a, b)| a != b)
                .unwrap_or(("<same lines>", "<different line endings>"));
            Err(format!(
                "output differs from its reference: expected `{want}`, got `{got}`"
            ))
        }
        _ => Ok(()),
    }
}

/// Checks every run of a workload against its reference rows and keeps the
/// attempted/failed tally.
pub struct Checker {
    /// Reference rows by item, then run; filled from the goldens, or from
    /// the first passing execution of the run.
    expected: Vec<Vec<Option<String>>>,
    /// Runs checked.
    pub attempted: u64,
    /// Runs that failed a check (or panicked).
    pub failed: u64,
    /// The first failure, for the log.
    pub first_failure: Option<String>,
}

impl Checker {
    /// A checker whose reference is the goldens when `golden` is set, and
    /// otherwise each run's first passing execution.
    pub fn new(root: &Path, items: &[Item], golden: bool) -> Result<Checker, String> {
        let mut expected = Vec::with_capacity(items.len());
        for item in items {
            let runs = 0..item.runs.len();
            if golden {
                let g = Outputs::golden(root, item)?;
                expected.push(runs.map(|j| Some(g.rows(item, j))).collect());
            } else {
                expected.push(runs.map(|_| None).collect());
            }
        }
        Ok(Checker {
            expected,
            attempted: 0,
            failed: 0,
            first_failure: None,
        })
    }

    /// Check one execution of run `j` of item `i`; returns its rows when it
    /// passes.
    pub fn check(
        &mut self,
        items: &[Item],
        i: usize,
        j: usize,
        outcome: &Result<RunReport, String>,
    ) -> Option<String> {
        let checked = outcome
            .as_ref()
            .map_err(|e| format!("panicked: {e}"))
            .and_then(|report| {
                let rows = Outputs::of_run(&items[i], j, report).rows(&items[i], j);
                check_run(report, &rows, self.expected[i][j].as_deref()).map(|()| rows)
            });
        if let Ok(rows) = &checked {
            self.expected[i][j].get_or_insert_with(|| rows.clone());
        }
        self.record(&items[i], j, checked)
    }

    /// Count one checked execution of run `j` of `item`.
    pub fn record<T>(&mut self, item: &Item, j: usize, verdict: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        verdict
            .map_err(|why| {
                self.failed += 1;
                let r = &item.runs[j];
                self.first_failure.get_or_insert_with(|| {
                    format!("{}/{}/cell {}: {why}", item.spec.name, r.label, r.cell)
                });
            })
            .ok()
    }
}
