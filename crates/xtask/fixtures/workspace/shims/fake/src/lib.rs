//! Audit fixture: a shim sits outside `crates/`, so its dead `pub fn`
//! is not a finding.
//!
//! Not compiled — lexed by the audit's fixture tests only.

pub fn shim_only() {}
