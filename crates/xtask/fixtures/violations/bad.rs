//! Audit fixture: one seeded violation per scan rule, while still
//! covering every entry of the test registry so the unused-entry rules
//! (X002/X011) stay quiet.
//!
//! Not compiled — lexed by the audit's fixture tests only.

fn covering_uses(handle: &FaultHandle, metrics: &MetricsRegistry) {
    handle.check("s3.put_object");
    handle.timing("dataflow.pe0");
    metrics.counter("requests_completed");
    metrics.observe("latency_us", 1.0);
}

fn seeded(handle: &FaultHandle, metrics: &MetricsRegistry) {
    // X001: typo'd site — matches no registered template.
    handle.check("s3.putobject");
    // X003: a rule prefix that can never match a registered site.
    let plan = FaultPlan::new().rule(FaultRule::at("nosuch.").fail_once());
    // X010: unregistered metric name.
    metrics.incr("requests_compelted");
    // X012: `latency_us` is a histogram, used here as a counter.
    metrics.incr("latency_us");
    drop(plan);
}

// X030: no parseable `since` version.
#[deprecated(note = "gone soon")]
fn undated() {}

// X031: dated at a version that has not shipped (fixture is at 0.1.0).
#[deprecated(since = "9.9.9", note = "use seeded")]
fn future_dated() {}

// X032: the one-release grace period has passed.
#[deprecated(since = "0.0.1", note = "use seeded")]
fn expired() {}

// X040: public, yet no other file of the tree names it.
pub fn orphaned() {}

/// Public and named by `caller.rs`: not a finding.
pub fn shared() {}
