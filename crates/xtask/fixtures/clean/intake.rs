//! Audit fixture: the clean tree's ledger owner (the fixture config
//! names `intake.rs`), the one file that may `incr` a ledger counter.
//!
//! Not compiled — lexed by the audit's fixture tests only.

fn resolve(metrics: &MetricsRegistry) {
    metrics.incr("requests_completed");
}
