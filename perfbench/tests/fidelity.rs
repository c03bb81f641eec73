//! The traced run must be the untraced serial run plus timing: same event
//! count, byte-identical CSV rows, and a time split that adds up.

use perfbench::check::Outputs;
use perfbench::trace::{run_traced, KindTotals, KINDS};
use perfbench::workload::Item;
use rss_core::ScenarioSpec;

/// Two short runs that between them reach every event kind: the paper's
/// restricted flow (PID-paced ACK path), and RED/ECN with four flows and a
/// fairness block.
const SPEC: &str = r#"{
  "name": "fidelity",
  "runs": [
    { "label": "restricted", "flows": [{ "cc": { "Restricted": {} } }], "duration_s": 2 },
    {
      "label": "red_ecn",
      "path": { "rate_mbps": 100, "rtt_ms": 40, "access_rate_mbps": 400, "router_queue_pkts": 100 },
      "host": { "nic_rate_mbps": 400 },
      "flows": [{ "count": 4 }],
      "queue": { "RedEcn": { "min_th": 20, "max_th": 80, "w_q": 0.002, "max_p": 0.1 } },
      "duration_s": 2,
      "auto_rwnd": true
    }
  ],
  "fairness": { "window_s": 0.5 }
}"#;

#[test]
fn traced_run_matches_the_serial_run() {
    let spec = ScenarioSpec::from_json(SPEC).expect("valid spec");
    let runs = spec.expand().expect("expands");
    let item = Item { spec, runs };
    let mut seen = KindTotals::default();
    for (j, sc) in item.scenarios().enumerate() {
        assert_eq!(sc.shards, None, "serial executor");
        let plain = rss_core::run(sc);
        let traced = run_traced(sc).expect("traced run");
        let label = &item.runs[j].label;

        assert_eq!(
            traced.report.events_processed, plain.events_processed,
            "{label}"
        );
        assert_eq!(
            traced.totals.total_events(),
            plain.events_processed,
            "{label}"
        );
        let want = Outputs::of_run(&item, j, &plain);
        let got = Outputs::of_run(&item, j, &traced.report);
        assert!(want.fairness.is_some());
        assert_eq!(got, want, "{label}: CSVs differ");
        assert_eq!(
            traced.report.to_json(),
            plain.to_json(),
            "{label}: reports differ"
        );

        // Engine self time, run_until time minus all handle time, is never
        // negative, so per-kind handle times plus self time add up to it.
        let handle = traced.totals.total_handle_ns();
        assert!(handle > 0, "{label}: no handle time recorded");
        assert!(
            handle <= traced.run_until_ns,
            "{label}: handle time exceeds run_until"
        );
        seen.add(&traced.totals);
    }
    for k in KINDS {
        assert!(seen.events[k as usize] > 0, "no {} events", k.name());
    }
}
