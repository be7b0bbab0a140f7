//! Audit fixture: the one other file of the violations tree. It keeps
//! `shared` alive for X040; a mention in a comment does not count, so
//! `orphaned` stays dead.
//!
//! Not compiled — lexed by the audit's fixture tests only.

fn call() {
    shared();
}
