//! # condor-faults
//!
//! Deterministic, seedable fault injection for the simulated substrate,
//! plus the resilience primitives the consumer layers use to survive it.
//!
//! The paper's flow ends on real infrastructure — SDAccel boards on
//! premise, S3 and AFI generation and F1 slots in the cloud — where
//! transfers stall, slots fail to program and kernels hang. The
//! simulated services reproduce the *happy* path of that infrastructure;
//! this crate reproduces the unhappy one, on demand and reproducibly:
//!
//! * a [`FaultPlan`] is a seed plus an ordered list of [`FaultRule`]s
//!   (site prefix, trigger, action, optional fire budget);
//! * [`FaultPlan::install`] produces a [`FaultHandle`] that the
//!   substrate's injection sites consult; a default
//!   [`FaultHandle::disabled`] handle compiles the whole layer down to
//!   one `Option` check, so benchmarks are unaffected;
//! * every fault that fires is appended to the [`FaultLog`], so tests
//!   assert exactly what was injected (and CI uploads the log on
//!   failure).
//!
//! Determinism: each site keeps its own call counter, and probabilistic
//! triggers hash `(seed, rule, site, call)` — so whether call *n* at a
//! site faults never depends on wall-clock time or thread interleaving.
//! At sites exercised concurrently (one per PE, one per serving lane)
//! each thread uses its own site name, keeping per-site call sequences
//! sequential and therefore reproducible.
//!
//! The [`retry`] module provides the consuming half: bounded retry with
//! exponential backoff and deterministic jitter ([`retry::RetryPolicy`])
//! over a mockable [`retry::Clock`], driven by the
//! [`retry::Retryable`] transient-vs-permanent error classification.
//!
//! ```
//! use condor_faults::{FaultPlan, FaultRule};
//!
//! let handle = FaultPlan::new(7)
//!     .rule(FaultRule::at("s3.put_object").nth_call(0).fail_transient())
//!     .install();
//! // First upload fails with a retryable error, second succeeds.
//! assert!(handle.gate("s3.put_object").is_err());
//! assert!(handle.gate("s3.put_object").is_ok());
//! assert_eq!(handle.fired(), 1);
//! ```

#![forbid(unsafe_code)]

pub mod journal;
pub mod retry;
pub mod sites;

pub use sites::{SiteSpec, SITES};

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// FNV-1a over a byte string; stable across platforms and releases so
/// seeded plans reproduce everywhere.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64 finalizer: decorrelates combined hash inputs.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Maps a 64-bit hash onto `[0, 1)`.
pub(crate) fn unit_f64(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// What an injected fault does to the call it intercepts.
///
/// Call sites give the actions substrate-specific meaning; the common
/// mapping is documented on each injection site. For the cloud services
/// (`gate` sites) `FailTransient`/`FailPermanent` become typed errors
/// and `Delay` sleeps; for the dataflow streams `Delay` is a FIFO
/// stall, `FailTransient` drops the frame, and `Abort`/`FailPermanent`
/// terminate the worker (the software analogue of a hung kernel).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Fail with a retryable (transient) error.
    FailTransient,
    /// Fail with a permanent error — retrying must not help.
    FailPermanent,
    /// Stall the call for the given duration, then let it proceed.
    Delay(Duration),
    /// Kill the worker/stream mid-flight (PE panic, wedged kernel).
    Abort,
    /// Timing fault: scale the cost of the intercepted work by the
    /// given factor in per-mille (1500 = ×1.5). Only fires at timing
    /// sites ([`FaultHandle::timing`]); functional gates ignore it.
    Slowdown(u32),
    /// Timing fault: stall the intercepted work for exactly this many
    /// extra cycles (a FIFO-stall window in the DES).
    StallCycles(u64),
    /// Timing fault: stall for a per-fire number of cycles drawn
    /// deterministically from `(seed, site, call)` in `[0, max]` —
    /// datamover jitter.
    JitterCycles(u64),
}

impl FaultAction {
    fn kind_str(&self) -> &'static str {
        match self {
            FaultAction::FailTransient => "fail-transient",
            FaultAction::FailPermanent => "fail-permanent",
            FaultAction::Delay(_) => "delay",
            FaultAction::Abort => "abort",
            FaultAction::Slowdown(_) => "slowdown",
            FaultAction::StallCycles(_) => "stall",
            FaultAction::JitterCycles(_) => "jitter",
        }
    }

    /// True for the timing-domain actions, which only the cycle-level
    /// DES ([`FaultHandle::timing`]) consumes.
    pub fn is_timing(&self) -> bool {
        matches!(
            self,
            FaultAction::Slowdown(_) | FaultAction::StallCycles(_) | FaultAction::JitterCycles(_)
        )
    }

    /// The action's numeric argument as recorded in [`FaultRecord::arg`]
    /// (delay in µs, slowdown in per-mille, stall/jitter in cycles).
    fn arg(&self) -> u64 {
        match self {
            FaultAction::FailTransient | FaultAction::FailPermanent | FaultAction::Abort => 0,
            FaultAction::Delay(d) => d.as_micros().min(u64::MAX as u128) as u64,
            FaultAction::Slowdown(m) => *m as u64,
            FaultAction::StallCycles(n) | FaultAction::JitterCycles(n) => *n,
        }
    }
}

/// When a rule fires, relative to the per-site call counter.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Trigger {
    /// Every matched call.
    Always,
    /// Exactly the `n`-th call at the site (0-based).
    NthCall(u64),
    /// Every call while the site's counter is below `n` — a fault
    /// window that clears once the site has been exercised `n` times.
    FirstCalls(u64),
    /// Every call once the site's counter reaches `n` — the mirror of
    /// [`Trigger::FirstCalls`]: a component that works for a while and
    /// then fails for good (mid-stream instance death).
    AfterCalls(u64),
    /// Each matched call independently with probability `p`, decided by
    /// hashing `(seed, rule, site, call)` — deterministic per plan.
    Probability(f64),
}

/// One injection rule: which sites, when, and what happens.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultRule {
    /// Site prefix this rule matches (`"s3."` matches every S3 site;
    /// `"serve.backend"` matches every serving lane).
    pub site: String,
    /// Firing condition against the per-site call counter.
    pub trigger: Trigger,
    /// Effect at the call site.
    pub action: FaultAction,
    /// Total fires allowed across all sites, `None` = unbounded. A
    /// bounded rule models a fault window that eventually clears.
    pub max_fires: Option<u64>,
}

impl FaultRule {
    /// A rule matching every site starting with `site`, firing always,
    /// failing transiently — narrow it with the builder methods.
    pub fn at(site: impl Into<String>) -> Self {
        FaultRule {
            site: site.into(),
            trigger: Trigger::Always,
            action: FaultAction::FailTransient,
            max_fires: None,
        }
    }

    /// Fires on every matched call (the [`FaultRule::at`] default, made
    /// explicit).
    pub fn always(mut self) -> Self {
        self.trigger = Trigger::Always;
        self
    }

    /// Fires only on the `n`-th call (0-based) at a matched site.
    pub fn nth_call(mut self, n: u64) -> Self {
        self.trigger = Trigger::NthCall(n);
        self
    }

    /// Fires on every matched call while the site counter is `< n`.
    pub fn first_calls(mut self, n: u64) -> Self {
        self.trigger = Trigger::FirstCalls(n);
        self
    }

    /// Fires on every matched call once the site counter is `>= n`.
    pub fn after_calls(mut self, n: u64) -> Self {
        self.trigger = Trigger::AfterCalls(n);
        self
    }

    /// Fires each matched call independently with probability `p`.
    pub fn probability(mut self, p: f64) -> Self {
        self.trigger = Trigger::Probability(p.clamp(0.0, 1.0));
        self
    }

    /// Fail the call with a retryable error.
    pub fn fail_transient(mut self) -> Self {
        self.action = FaultAction::FailTransient;
        self
    }

    /// Fail the call with a permanent error.
    pub fn fail_permanent(mut self) -> Self {
        self.action = FaultAction::FailPermanent;
        self
    }

    /// Stall the call for `d` before letting it proceed.
    pub fn delay(mut self, d: Duration) -> Self {
        self.action = FaultAction::Delay(d);
        self
    }

    /// Kill the worker/stream at the call site.
    pub fn abort(mut self) -> Self {
        self.action = FaultAction::Abort;
        self
    }

    /// Caps the rule's total fires (a clearing fault window).
    pub fn max_fires(mut self, n: u64) -> Self {
        self.max_fires = Some(n);
        self
    }

    /// Timing fault: scale the intercepted work's cycle cost by
    /// `factor` (clamped to `[1.0, 4294.0]`; 1.5 = 50 % slower).
    pub fn slowdown(self, factor: f64) -> Self {
        let permille = (factor.max(1.0) * 1000.0).round().min(u32::MAX as f64) as u32;
        self.slowdown_permille(permille)
    }

    /// Timing fault: slowdown given directly in per-mille (1500 = ×1.5).
    pub fn slowdown_permille(mut self, permille: u32) -> Self {
        self.action = FaultAction::Slowdown(permille.max(1000));
        self
    }

    /// Timing fault: stall the intercepted work for `n` extra cycles.
    pub fn stall_cycles(mut self, n: u64) -> Self {
        self.action = FaultAction::StallCycles(n);
        self
    }

    /// Timing fault: stall for a deterministic per-fire draw in
    /// `[0, max]` cycles.
    pub fn jitter_cycles(mut self, max: u64) -> Self {
        self.action = FaultAction::JitterCycles(max);
        self
    }
}

/// A seed plus an ordered rule list; the unit tests and chaos harness
/// construct these, [`FaultPlan::install`] arms them.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed feeding every probabilistic trigger in the plan.
    pub seed: u64,
    /// Rules, matched in order; the first firing rule wins.
    pub rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// An empty plan under `seed` — installs to a handle that injects
    /// nothing, which must leave every consumer behaviourally unchanged.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            rules: Vec::new(),
        }
    }

    /// Appends a rule (matched after all earlier rules).
    pub fn rule(mut self, rule: FaultRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Arms the plan: the returned handle is what injection sites
    /// consult and what tests read the [`FaultLog`] back from.
    pub fn install(self) -> FaultHandle {
        self.install_inner(None)
    }

    /// Arms the plan with an append-only journal at `path`: every fired
    /// fault is written as one `condor-faultlog/2` JSON line and flushed
    /// immediately, so a crashed run leaves a readable prefix (see
    /// [`journal`]).
    pub fn install_with_journal(
        self,
        path: impl AsRef<std::path::Path>,
    ) -> std::io::Result<FaultHandle> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut file = std::fs::File::create(path)?;
        let header = journal::journal_header(self.seed);
        writeln!(file, "{header}")?;
        file.flush()?;
        Ok(self.install_inner(Some(Box::new(file))))
    }

    fn install_inner(self, sink: Option<Box<dyn Write + Send>>) -> FaultHandle {
        FaultHandle(Some(Arc::new(FaultInjector {
            plan: self,
            enabled: AtomicBool::new(true),
            counters: Mutex::new(BTreeMap::new()),
            fires: Mutex::new(Vec::new()),
            log: Mutex::new(Vec::new()),
            journal: Mutex::new(sink),
        })))
    }

    /// Rebuilds a plan that replays a fired-fault sequence exactly: one
    /// `nth_call`/`max_fires(1)` rule per record, in firing order. Run
    /// against the same call sequence, the replayed plan fires the same
    /// `(site, call, action)` sequence the journal recorded.
    pub fn from_records(seed: u64, records: &[FaultRecord]) -> FaultPlan {
        let mut plan = FaultPlan::new(seed);
        for r in records {
            let rule = FaultRule::at(r.site.clone()).nth_call(r.call).max_fires(1);
            let rule = match r.action {
                "fail-permanent" => rule.fail_permanent(),
                "delay" => rule.delay(Duration::from_micros(r.arg)),
                "abort" => rule.abort(),
                "slowdown" => rule.slowdown_permille(r.arg.min(u32::MAX as u64) as u32),
                "stall" => rule.stall_cycles(r.arg),
                "jitter" => rule.jitter_cycles(r.arg),
                _ => rule.fail_transient(),
            };
            plan = plan.rule(rule);
        }
        plan
    }
}

/// One fault that actually fired, as recorded in the [`FaultLog`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultRecord {
    /// The concrete site that was intercepted.
    pub site: String,
    /// The site's call counter when the fault fired (0-based).
    pub call: u64,
    /// Index of the firing rule in the plan.
    pub rule: usize,
    /// The action kind (`"fail-transient"`, `"delay"`, …).
    pub action: &'static str,
    /// The action's numeric argument: delay in µs, slowdown in
    /// per-mille, stall/jitter bound in cycles; 0 otherwise. Recorded so
    /// [`FaultPlan::from_records`] replays parameterised actions
    /// faithfully.
    pub arg: u64,
}

/// The record of every fault that fired under a handle, in firing order.
pub type FaultLog = Vec<FaultRecord>;

/// The error a [`FaultHandle::gate`] site surfaces for an injected
/// failure; consumers convert it into their own typed error, keeping
/// the transient/permanent classification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InjectedFault {
    /// Site the fault fired at.
    pub site: String,
    /// Whether the failure is retryable.
    pub transient: bool,
}

impl fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "injected {} fault at {}",
            if self.transient {
                "transient"
            } else {
                "permanent"
            },
            self.site
        )
    }
}

impl std::error::Error for InjectedFault {}

impl retry::Retryable for InjectedFault {
    fn is_transient(&self) -> bool {
        self.transient
    }
}

/// A timing perturbation resolved from a fired timing rule: what the
/// cycle-level DES applies to the intercepted unit of work.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimingPerturbation {
    /// Cost multiplier in per-mille (1000 = unperturbed).
    pub slowdown_permille: u32,
    /// Flat extra cycles (stall window, or resolved jitter draw).
    pub stall_cycles: u64,
    /// The firing action kind (`"slowdown"`, `"stall"`, `"jitter"`).
    pub kind: &'static str,
}

impl TimingPerturbation {
    /// The slowdown as a factor (≥ 1.0).
    pub fn slowdown_factor(&self) -> f64 {
        self.slowdown_permille as f64 / 1000.0
    }

    /// Extra cycles this perturbation adds to a unit of work that
    /// nominally costs `base` cycles: the slowdown surcharge (rounded
    /// up) plus the flat stall.
    pub fn extra_cycles(&self, base: u64) -> u64 {
        let scaled = ((base as f64) * self.slowdown_factor()).ceil() as u64;
        scaled
            .saturating_sub(base)
            .saturating_add(self.stall_cycles)
    }
}

/// The armed injector behind a [`FaultHandle`].
struct FaultInjector {
    plan: FaultPlan,
    enabled: AtomicBool,
    counters: Mutex<BTreeMap<String, u64>>,
    fires: Mutex<Vec<u64>>,
    log: Mutex<Vec<FaultRecord>>,
    journal: Mutex<Option<Box<dyn Write + Send>>>,
}

impl FaultInjector {
    /// Bumps the site counter and fires the first matching rule whose
    /// action domain matches (`timing` selects timing actions only,
    /// otherwise functional actions only). Returns the fired rule index,
    /// call number and action.
    fn select(&self, site: &str, timing: bool) -> Option<(usize, u64, FaultAction)> {
        if !self.enabled.load(Ordering::Relaxed) {
            return None;
        }
        let call = {
            let mut counters = self.counters.lock();
            let c = counters.entry(site.to_string()).or_insert(0);
            let v = *c;
            *c += 1;
            v
        };
        let mut fires = self.fires.lock();
        if fires.len() < self.plan.rules.len() {
            fires.resize(self.plan.rules.len(), 0);
        }
        for (i, rule) in self.plan.rules.iter().enumerate() {
            if rule.action.is_timing() != timing {
                continue;
            }
            if !site.starts_with(rule.site.as_str()) {
                continue;
            }
            if let Some(max) = rule.max_fires {
                if fires[i] >= max {
                    continue;
                }
            }
            let hit = match rule.trigger {
                Trigger::Always => true,
                Trigger::NthCall(n) => call == n,
                Trigger::FirstCalls(n) => call < n,
                Trigger::AfterCalls(n) => call >= n,
                Trigger::Probability(p) => {
                    let mixed = self
                        .plan
                        .seed
                        .wrapping_add(splitmix64(i as u64))
                        .wrapping_add(fnv1a(site.as_bytes()))
                        .wrapping_add(splitmix64(call ^ 0xfa17_0000));
                    unit_f64(splitmix64(mixed)) < p
                }
            };
            if hit {
                fires[i] += 1;
                drop(fires);
                let record = FaultRecord {
                    site: site.to_string(),
                    call,
                    rule: i,
                    action: rule.action.kind_str(),
                    arg: rule.action.arg(),
                };
                if let Some(sink) = self.journal.lock().as_mut() {
                    // Best effort: a full disk must not take the run
                    // down with it; the prefix written so far stays
                    // readable either way.
                    let line = journal::record_line(&record);
                    let _ = writeln!(sink, "{line}");
                    let _ = sink.flush();
                }
                self.log.lock().push(record);
                return Some((i, call, rule.action));
            }
        }
        None
    }

    fn check(&self, site: &str) -> Option<FaultAction> {
        self.select(site, false).map(|(_, _, action)| action)
    }

    /// The timing-domain twin of [`FaultInjector::check`]: resolves a
    /// fired timing rule into the concrete perturbation. Jitter draws
    /// hash `(seed, site, call)` only — not the rule index — so a
    /// replayed plan ([`FaultPlan::from_records`]) resolves the same
    /// stall even though its rule order differs.
    fn timing(&self, site: &str) -> Option<TimingPerturbation> {
        let (_, call, action) = self.select(site, true)?;
        Some(match action {
            FaultAction::Slowdown(permille) => TimingPerturbation {
                slowdown_permille: permille.max(1000),
                stall_cycles: 0,
                kind: "slowdown",
            },
            FaultAction::StallCycles(n) => TimingPerturbation {
                slowdown_permille: 1000,
                stall_cycles: n,
                kind: "stall",
            },
            FaultAction::JitterCycles(max) => TimingPerturbation {
                slowdown_permille: 1000,
                stall_cycles: if max == 0 {
                    0
                } else {
                    let mixed = self
                        .plan
                        .seed
                        .wrapping_add(fnv1a(site.as_bytes()))
                        .wrapping_add(splitmix64(call ^ 0x7177_e200));
                    splitmix64(mixed) % (max + 1)
                },
                kind: "jitter",
            },
            // select(timing = true) only returns timing actions.
            _ => unreachable!("functional action from timing select"),
        })
    }
}

/// A cheap, cloneable handle injection sites consult. The default
/// (disabled) handle holds no injector: `check` is a single `Option`
/// test, so an un-faulted substrate pays nothing measurable.
#[derive(Clone, Default)]
pub struct FaultHandle(Option<Arc<FaultInjector>>);

impl fmt::Debug for FaultHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            None => write!(f, "FaultHandle(disabled)"),
            Some(inj) => write!(
                f,
                "FaultHandle({} rules, {}, {} fired)",
                inj.plan.rules.len(),
                if inj.enabled.load(Ordering::Relaxed) {
                    "enabled"
                } else {
                    "cleared"
                },
                inj.log.lock().len()
            ),
        }
    }
}

impl FaultHandle {
    /// The no-op handle every substrate component starts with.
    pub fn disabled() -> Self {
        FaultHandle(None)
    }

    /// True when an installed plan is armed behind this handle.
    pub fn is_active(&self) -> bool {
        self.0
            .as_ref()
            .is_some_and(|inj| inj.enabled.load(Ordering::Relaxed))
    }

    /// Consults the injector at a site: bumps the site counter, fires
    /// the first matching *functional* rule, records it, and returns
    /// the action. Timing rules ([`FaultAction::is_timing`]) are
    /// skipped here — only [`FaultHandle::timing`] fires them — so one
    /// plan can carry both domains over the same site prefixes.
    pub fn check(&self, site: &str) -> Option<FaultAction> {
        self.0.as_ref()?.check(site)
    }

    /// Consults the injector at a *timing* site: fires the first
    /// matching timing rule and resolves it into the perturbation the
    /// cycle-level DES applies. Functional rules are skipped. Fully
    /// deterministic per `(plan, site, call)` — jitter draws do not
    /// depend on threads or wall clock.
    pub fn timing(&self, site: &str) -> Option<TimingPerturbation> {
        self.0.as_ref()?.timing(site)
    }

    /// The standard call-site gate: sleeps injected delays in place and
    /// surfaces injected failures (including `Abort`, which a
    /// non-streaming call can only experience as a permanent error).
    pub fn gate(&self, site: &str) -> Result<(), InjectedFault> {
        match self.check(site) {
            None => Ok(()),
            Some(FaultAction::Delay(d)) => {
                std::thread::sleep(d);
                Ok(())
            }
            Some(FaultAction::FailTransient) => Err(InjectedFault {
                site: site.to_string(),
                transient: true,
            }),
            Some(FaultAction::FailPermanent) | Some(FaultAction::Abort) => Err(InjectedFault {
                site: site.to_string(),
                transient: false,
            }),
            // Timing actions never reach a functional gate (`check`
            // skips them); tolerate them as no-ops for exhaustiveness.
            Some(FaultAction::Slowdown(_))
            | Some(FaultAction::StallCycles(_))
            | Some(FaultAction::JitterCycles(_)) => Ok(()),
        }
    }

    /// Re-arms or clears the injector at runtime; chaos tests call
    /// `set_enabled(false)` to model "the fault window ends".
    pub fn set_enabled(&self, enabled: bool) {
        if let Some(inj) = &self.0 {
            inj.enabled.store(enabled, Ordering::Relaxed);
        }
    }

    /// Stops all further injection (the log is preserved).
    pub fn clear(&self) {
        self.set_enabled(false);
    }

    /// Every fault that fired so far, in firing order.
    pub fn log(&self) -> FaultLog {
        self.0
            .as_ref()
            .map_or_else(Vec::new, |inj| inj.log.lock().clone())
    }

    /// Number of faults fired so far.
    pub fn fired(&self) -> usize {
        self.0.as_ref().map_or(0, |inj| inj.log.lock().len())
    }

    /// The fault log as a `condor-faultlog/2` JSON document (serialised
    /// through `condor-cjson`), for CI artifact upload when a chaos
    /// scenario fails; [`journal::parse_dump`] reads it back.
    pub fn log_json(&self) -> String {
        let (seed, records) = match &self.0 {
            None => (0, Vec::new()),
            Some(inj) => (inj.plan.seed, inj.log.lock().clone()),
        };
        condor_cjson::to_string(&journal::dump_value(seed, &records))
    }

    /// The plan's seed (0 for a disabled handle).
    pub fn seed(&self) -> u64 {
        self.0.as_ref().map_or(0, |inj| inj.plan.seed)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;

    #[test]
    fn disabled_handle_injects_nothing() {
        let h = FaultHandle::disabled();
        for _ in 0..100 {
            assert_eq!(h.check("s3.put_object"), None);
            assert!(h.gate("s3.put_object").is_ok());
        }
        assert_eq!(h.fired(), 0);
        assert!(!h.is_active());
    }

    #[test]
    fn empty_plan_injects_nothing() {
        let h = FaultPlan::new(42).install();
        for _ in 0..100 {
            assert!(h.gate("f1.load_afi").is_ok());
        }
        assert_eq!(h.fired(), 0);
        assert!(h.is_active());
    }

    #[test]
    fn nth_call_fires_exactly_once() {
        let h = FaultPlan::new(1)
            .rule(FaultRule::at("s3.").nth_call(2).fail_transient())
            .install();
        let results: Vec<bool> = (0..5).map(|_| h.gate("s3.put_object").is_ok()).collect();
        assert_eq!(results, vec![true, true, false, true, true]);
        let log = h.log();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].site, "s3.put_object");
        assert_eq!(log[0].call, 2);
        assert_eq!(log[0].action, "fail-transient");
    }

    #[test]
    fn first_calls_is_a_clearing_window() {
        let h = FaultPlan::new(1)
            .rule(FaultRule::at("f1.load_afi").first_calls(3))
            .install();
        let results: Vec<bool> = (0..6).map(|_| h.gate("f1.load_afi").is_ok()).collect();
        assert_eq!(results, vec![false, false, false, true, true, true]);
    }

    #[test]
    fn prefix_matching_spans_sites() {
        let h = FaultPlan::new(1)
            .rule(FaultRule::at("serve.backend").nth_call(0))
            .install();
        // Each concrete lane site has its own counter; call 0 of each
        // matches the prefix rule.
        assert!(h.gate("serve.backend0").is_err());
        assert!(h.gate("serve.backend1").is_err());
        assert!(h.gate("serve.backend0").is_ok());
        assert!(h.gate("other.site").is_ok());
    }

    #[test]
    fn probability_is_deterministic_per_seed() {
        let fire_pattern = |seed: u64| -> Vec<bool> {
            let h = FaultPlan::new(seed)
                .rule(FaultRule::at("x").probability(0.5))
                .install();
            (0..64).map(|_| h.gate("x.y").is_err()).collect()
        };
        let a = fire_pattern(7);
        let b = fire_pattern(7);
        let c = fire_pattern(8);
        assert_eq!(a, b, "same seed must reproduce the same pattern");
        assert_ne!(a, c, "different seeds should differ");
        let fired = a.iter().filter(|&&f| f).count();
        assert!((8..=56).contains(&fired), "p=0.5 fired {fired}/64");
    }

    #[test]
    fn probability_bounds_are_exact() {
        let h = FaultPlan::new(3)
            .rule(FaultRule::at("a").probability(0.0))
            .rule(FaultRule::at("b").probability(1.0))
            .install();
        for _ in 0..32 {
            assert!(h.gate("a.x").is_ok());
            assert!(h.gate("b.x").is_err());
        }
    }

    #[test]
    fn max_fires_caps_the_window_and_later_rules_take_over() {
        let h = FaultPlan::new(1)
            .rule(FaultRule::at("s.").max_fires(2).fail_transient())
            .rule(FaultRule::at("s.x").nth_call(3).fail_permanent())
            .install();
        assert!(h.gate("s.x").is_err()); // rule 0, fire 1
        assert!(h.gate("s.x").is_err()); // rule 0, fire 2 (cap reached)
        assert!(h.gate("s.x").is_ok()); // rule 0 exhausted, rule 1 wants call 3
        let err = h.gate("s.x").unwrap_err(); // rule 1 at call 3
        assert!(!err.transient);
        assert_eq!(h.fired(), 3);
        assert_eq!(h.log()[2].rule, 1);
    }

    #[test]
    fn delay_sleeps_and_proceeds() {
        let h = FaultPlan::new(1)
            .rule(
                FaultRule::at("slow")
                    .nth_call(0)
                    .delay(Duration::from_millis(5)),
            )
            .install();
        let t = std::time::Instant::now();
        assert!(h.gate("slow.call").is_ok());
        assert!(t.elapsed() >= Duration::from_millis(5));
        assert_eq!(h.log()[0].action, "delay");
    }

    #[test]
    fn abort_gates_as_permanent() {
        let h = FaultPlan::new(1)
            .rule(FaultRule::at("pe").abort())
            .install();
        let err = h.gate("pe0").unwrap_err();
        assert!(!err.transient);
        assert!(err.to_string().contains("permanent fault at pe0"));
    }

    #[test]
    fn clear_stops_injection_but_keeps_the_log() {
        let h = FaultPlan::new(1).rule(FaultRule::at("x")).install();
        assert!(h.gate("x.y").is_err());
        h.clear();
        assert!(!h.is_active());
        for _ in 0..10 {
            assert!(h.gate("x.y").is_ok());
        }
        assert_eq!(h.fired(), 1);
        h.set_enabled(true);
        assert!(h.gate("x.y").is_err());
    }

    #[test]
    fn log_json_is_well_formed() {
        let h = FaultPlan::new(9)
            .rule(FaultRule::at("x").nth_call(0))
            .install();
        let _ = h.gate("x.y");
        let json = h.log_json();
        assert!(json.contains("\"schema\":\"condor-faultlog/2\""));
        assert!(json.contains("\"seed\":9"));
        assert!(json.contains("\"site\":\"x.y\""));
        let dump = journal::parse_dump(&json).unwrap();
        assert_eq!(dump.schema_version, 2);
        assert_eq!(dump.records, h.log());
        // Disabled handles still render a valid (empty) document.
        assert!(FaultHandle::disabled().log_json().contains("\"fired\":[]"));
    }

    #[test]
    fn after_calls_is_a_permanent_tail_window() {
        let h = FaultPlan::new(1)
            .rule(FaultRule::at("inst.").after_calls(3).fail_permanent())
            .install();
        let results: Vec<bool> = (0..6).map(|_| h.gate("inst.call").is_ok()).collect();
        assert_eq!(results, vec![true, true, true, false, false, false]);
    }

    #[test]
    fn timing_rules_are_invisible_to_functional_gates() {
        let h = FaultPlan::new(2)
            .rule(FaultRule::at("dataflow.").always().slowdown(2.0))
            .install();
        for _ in 0..10 {
            assert!(h.gate("dataflow.pe0").is_ok());
            assert_eq!(h.check("dataflow.pe0"), None);
        }
        assert_eq!(
            h.fired(),
            0,
            "functional consults must not fire timing rules"
        );
    }

    #[test]
    fn functional_rules_are_invisible_to_timing_consults() {
        let h = FaultPlan::new(2)
            .rule(FaultRule::at("dataflow.").always().fail_permanent())
            .install();
        for _ in 0..10 {
            assert_eq!(h.timing("dataflow.pe0"), None);
        }
        assert_eq!(h.fired(), 0);
        // The same site still fails functionally.
        assert!(h.gate("dataflow.pe0").is_err());
    }

    #[test]
    fn timing_actions_resolve_to_perturbations() {
        let h = FaultPlan::new(3)
            .rule(FaultRule::at("a").nth_call(0).slowdown(1.5))
            .rule(FaultRule::at("b").nth_call(0).stall_cycles(40))
            .install();
        let slow = h.timing("a.pe").unwrap();
        assert_eq!(slow.kind, "slowdown");
        assert_eq!(slow.slowdown_permille, 1500);
        assert_eq!(slow.extra_cycles(100), 50);
        let stall = h.timing("b.pe").unwrap();
        assert_eq!(stall.kind, "stall");
        assert_eq!(stall.extra_cycles(100), 40);
        assert_eq!(h.timing("a.pe"), None, "nth_call(0) fired already");
        let log = h.log();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].action, "slowdown");
        assert_eq!(log[0].arg, 1500);
        assert_eq!(log[1].action, "stall");
        assert_eq!(log[1].arg, 40);
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let draws = |seed: u64| -> Vec<u64> {
            let h = FaultPlan::new(seed)
                .rule(FaultRule::at("dm").always().jitter_cycles(32))
                .install();
            (0..64)
                .map(|_| h.timing("dm.stream").unwrap().stall_cycles)
                .collect()
        };
        let a = draws(11);
        let b = draws(11);
        let c = draws(12);
        assert_eq!(a, b, "same seed must reproduce the same jitter");
        assert_ne!(a, c, "different seeds should differ");
        assert!(a.iter().all(|&d| d <= 32), "jitter bounded by max");
        assert!(a.iter().any(|&d| d > 0), "jitter not identically zero");
        // max = 0 degenerates to no jitter.
        let h = FaultPlan::new(1)
            .rule(FaultRule::at("dm").always().jitter_cycles(0))
            .install();
        assert_eq!(h.timing("dm.x").unwrap().stall_cycles, 0);
    }
}
