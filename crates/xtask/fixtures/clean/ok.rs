//! Audit fixture: a tree with zero findings against the test registry
//! (sites: `s3.put_object`, `dataflow.pe{}`; metrics:
//! `requests_completed` counter, `latency_us` histogram).
//!
//! Not compiled — lexed by the audit's fixture tests only.

fn exercise(handle: &FaultHandle, metrics: &MetricsRegistry) {
    // A commented-out site must not count: // handle.check("ghost.site")
    handle.check("s3.put_object");
    handle.gate("s3.put_object", || Ok(()));
    for pe in 0..4 {
        handle.timing(&format!("dataflow.pe{pe}"));
    }
    let plan = FaultPlan::new().rule(FaultRule::at("dataflow.pe").fail_once());
    // Reading a ledger counter is anyone's business; `intake.rs`
    // writes it.
    let done = metrics.counter("requests_completed");
    metrics.observe("latency_us", done as f64);
    drop(plan);
}

/// A deprecation dated at the current fixture version (0.1.0) is in its
/// grace period and clean.
#[deprecated(since = "0.1.0", note = "use `exercise` instead")]
fn legacy(handle: &FaultHandle) {
    handle.check("dataflow.pe0");
}

/// Public surface that `user.rs` calls: clean under X040.
pub fn entry() {}
