//! Audit fixture: calls the clean tree's one public function.
//!
//! Not compiled — lexed by the audit's fixture tests only.

fn call() {
    entry();
}
