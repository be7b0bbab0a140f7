//! Audit fixture: a library crate without an API snapshot.
//!
//! Not compiled — lexed by the audit's fixture tests only.

/// Named nowhere at all: X040, although no snapshot tracks this crate.
pub fn unsnapshotted_dead() {}

fn user() {
    condor::shared_api();
}
