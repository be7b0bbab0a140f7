//! Audit fixture: a binary of a library crate. Binaries are not library
//! surface, so its dead `pub fn` is not a finding.
//!
//! Not compiled — lexed by the audit's fixture tests only.

pub fn bin_only() {}

fn main() {}
