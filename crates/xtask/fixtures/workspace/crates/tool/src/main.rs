//! Audit fixture: a crate with no `lib.rs` is not a library crate, so
//! its dead `pub fn` is not a finding.
//!
//! Not compiled — lexed by the audit's fixture tests only.

pub fn tool_only() {}

fn main() {}
