//! Deterministic RNG, case seeds and case-count configuration for the
//! shim.

use std::io::Write;

/// Number of generated cases per property (default 64; override with
/// `PROPTEST_CASES`).
pub fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

/// FNV-1a over a byte string: stable across platforms and releases,
/// unlike `std`'s `DefaultHasher`, whose algorithm may change.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// SplitMix64: the output of a stream whose state has reached `x`.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(GOLDEN_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The seed of case `case` of the property `name`: output `case` of a
/// SplitMix64 stream seeded with FNV-1a of the name (xor the optional
/// `PROPTEST_SEED`). Each case depends on nothing but these, so one
/// case replays alone.
pub fn case_seed(name: &str, case: u32) -> u64 {
    let env_seed: u64 = std::env::var("PROPTEST_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    stream_output(fnv1a(name.as_bytes()) ^ env_seed, case)
}

/// Output `index` of the SplitMix64 stream seeded with `seed`.
fn stream_output(seed: u64, index: u32) -> u64 {
    splitmix64(seed.wrapping_add(GOLDEN_GAMMA.wrapping_mul(u64::from(index))))
}

/// The `(case, seed)` pairs a property runs: [`cases`] of them from
/// [`case_seed`], or the one seed `PROPTEST_REPLAY` names (decimal or
/// `0x` hex) — the replay line a failing case prints.
pub fn case_seeds(name: &str) -> Vec<(u32, u64)> {
    let replay = std::env::var("PROPTEST_REPLAY")
        .ok()
        .and_then(|v| match v.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16).ok(),
            None => v.parse().ok(),
        });
    match replay {
        Some(seed) => vec![(0, seed)],
        None => (0..cases())
            .map(|case| (case, case_seed(name, case)))
            .collect(),
    }
}

/// Prints how to replay the running case when it fails: held across a
/// case's body, it reports only while the thread unwinds from a panic.
pub struct ReplayOnPanic {
    /// Cargo package of the test.
    pub package: &'static str,
    /// `module_path!()` at the test (crate name first).
    pub module: &'static str,
    /// Test function name.
    pub name: &'static str,
    /// Index of the case within the run.
    pub case: u32,
    /// The case's seed.
    pub seed: u64,
}

impl Drop for ReplayOnPanic {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let path = match self.module.split_once("::") {
                Some((_, module)) => format!("{module}::{}", self.name),
                None => self.name.to_string(),
            };
            // `eprintln!` panics if stderr fails, and a second panic here
            // would abort the test binary.
            let _ = writeln!(
                std::io::stderr(),
                "proptest: {} failed on case {} (seed {:#018x}); replay that case alone with\n  \
                 PROPTEST_REPLAY={:#018x} cargo test -p {} -- {path} --exact",
                self.name,
                self.case,
                self.seed,
                self.seed,
                self.package
            );
        }
    }
}

/// xoshiro256++ RNG used for all generation.
#[derive(Clone, Debug)]
pub struct TestRng {
    s: [u64; 4],
}

impl TestRng {
    /// A deterministic RNG from an explicit seed.
    pub fn seeded(seed: u64) -> Self {
        // SplitMix64 state expansion.
        TestRng {
            s: [0, 1, 2, 3].map(|i| stream_output(seed, i)),
        }
    }

    /// The next 64 raw bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform usize in `[0, bound)`; `bound` must be non-zero.
    pub fn index(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    /// Uniform f64 in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_same_stream() {
        assert_eq!(case_seed("t", 3), case_seed("t", 3));
        let mut a = TestRng::seeded(case_seed("t", 0));
        let mut b = TestRng::seeded(case_seed("t", 0));
        assert_eq!(a.next_u64(), b.next_u64());
    }

    /// The seeds are pinned, so a failure's printed seed replays on any
    /// toolchain; FNV-1a matches its published test vectors.
    #[test]
    fn case_seeds_are_pinned_and_distinct() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(stream_output(fnv1a(b"t"), 0), 0x1f13_bda3_2bbb_7ff9);
        assert_ne!(stream_output(fnv1a(b"t"), 3), stream_output(fnv1a(b"t"), 4));
        assert_ne!(stream_output(fnv1a(b"t"), 3), stream_output(fnv1a(b"u"), 3));
    }

    #[test]
    fn index_in_bounds() {
        let mut rng = TestRng::seeded(1);
        for _ in 0..100 {
            assert!(rng.index(7) < 7);
        }
    }
}
