//! Audit fixture: a library crate whose directory has an API snapshot
//! in the real tree (`crates/core/src`).
//!
//! Not compiled — lexed by the audit's fixture tests only.

/// Named from `crates/hls/src/lib.rs`: not a finding.
pub fn shared_api() {}

/// Named only by this file's own tests: X040.
pub fn self_tested() -> u32 {
    1
}

#[cfg(test)]
mod tests {
    #[test]
    fn self_tested_is_one() {
        assert_eq!(super::self_tested(), 1);
    }
}
