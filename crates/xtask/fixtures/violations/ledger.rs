//! Audit fixture: a dispatcher counting a completion by hand. The
//! fixture config names `intake.rs` as the ledger's one writer, and
//! this is not it.
//!
//! Not compiled — lexed by the audit's fixture tests only.

fn worker(metrics: &MetricsRegistry) {
    // X013: a ledger counter written outside the intake.
    metrics.incr("requests_completed");
}
