//! The `.metrics` lines external tooling parses. The socket benchmark reads
//! its server-side counters from these lines by prefix and label, and fails
//! the run when one is missing, so a rewording here must be deliberate.

use service::{Service, ServiceConfig};
use std::sync::Arc;

/// The report line starting with `prefix`, or a failure naming it.
fn line<'a>(report: &'a str, prefix: &str) -> &'a str {
    report
        .lines()
        .find(|l| l.starts_with(prefix))
        .unwrap_or_else(|| panic!("no line starting with {prefix:?} in:\n{report}"))
}

fn assert_labels(line: &str, labels: &[&str]) {
    for label in labels {
        assert!(line.contains(label), "{label:?} missing from {line:?}");
    }
}

#[test]
fn metrics_report_keeps_the_parsed_lines() {
    let db = Arc::new(xmark::auction_database(0.0005));
    let svc = Service::new(db, ServiceConfig::default());
    svc.execute(r#"FOR $p IN document("auction.xml")//person RETURN $p/name"#).unwrap();
    let report = svc.metrics_report();

    assert_labels(line(&report, "requests: "), &[" ok,"]);
    assert_labels(line(&report, "plan cache: "), &[" hits /", " lookups"]);
    assert_labels(line(&report, "queue wait: "), &["p50=", "p95="]);
    assert_labels(
        line(&report, "executor: "),
        &[
            " nodes inspected",
            " candidate fetches",
            " structural-join comparisons",
            " trees built",
            " join steps",
        ],
    );
    assert_labels(line(&report, "match cache: "), &[" hits /", " lookups", " evictions", " bytes"]);
    assert_labels(line(&report, "batch dispatch: "), &[" batch(es)", " job(s)"]);
}
