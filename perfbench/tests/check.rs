//! The output check fails on any changed byte of the reference, and on the
//! sanity conditions it checks at every seed.

use perfbench::check::{check_run, Checker, Outputs, GOLDEN_SEED};
use perfbench::workload::{find, load};
use std::path::Path;

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("package sits in the repository")
}

#[test]
fn a_changed_golden_byte_fails_the_check() {
    let items = load(root(), find("paper").expect("paper workload"), GOLDEN_SEED).expect("loads");
    let headline = &items[0];
    assert_eq!(headline.spec.name, "headline");
    let report = rss_core::run(&headline.runs[0].scenario);
    let rows = Outputs::of_run(headline, 0, &report).rows(headline, 0);

    let mut golden = Outputs::golden(root(), headline).expect("golden present");
    let expected = golden.rows(headline, 0);
    assert!(!expected.is_empty());
    check_run(&report, &rows, Some(&expected)).expect("matches the committed golden");

    // Change one digit of the golden row's goodput: the check must fail.
    let at = golden
        .results
        .find("59619604")
        .expect("standard goodput in golden");
    golden.results.replace_range(at..at + 1, "6");
    let err = check_run(&report, &rows, Some(&golden.rows(headline, 0))).unwrap_err();
    assert!(err.contains("differs"), "{err}");
}

#[test]
fn repeats_truncation_and_overdelivery_fail() {
    let mut items = load(root(), find("paper").expect("paper workload"), 7).expect("loads");
    items.truncate(1);
    items[0].runs.truncate(1);
    let sc = items[0].runs[0]
        .scenario
        .clone()
        .with_duration(rss_core::SimDuration::from_secs(1));
    items[0].runs[0].scenario = sc;
    let report = rss_core::run(&items[0].runs[0].scenario);

    let mut checker = Checker::new(root(), &items, false).expect("no goldens needed");
    assert!(checker.check(&items, 0, 0, &Ok(report.clone())).is_some());
    assert!(checker.check(&items, 0, 0, &Ok(report.clone())).is_some());
    assert_eq!((checker.attempted, checker.failed), (2, 0));

    let mut changed = report.clone();
    changed.events_processed += 1;
    assert!(
        checker.check(&items, 0, 0, &Ok(changed)).is_none(),
        "differs from the first execution"
    );

    let mut truncated = report.clone();
    truncated.truncated = Some("max_sim_time".into());
    assert!(checker.check(&items, 0, 0, &Ok(truncated)).is_none());

    let mut over = report.clone();
    over.flows[0].receiver_delivered_bytes = over.flows[0].vars.data_bytes_out + 1;
    assert!(checker.check(&items, 0, 0, &Ok(over)).is_none());

    assert!(checker.check(&items, 0, 0, &Err("boom".into())).is_none());
    assert_eq!((checker.attempted, checker.failed), (6, 4));
}
