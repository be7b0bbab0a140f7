//! # condor-check
//!
//! A static verifier for Condor accelerator plans. It runs entirely
//! without executing the design — no golden inference, no cycle-level
//! simulation — and answers three questions the build flow and the
//! design-space exploration need answered *before* spending HLS time:
//!
//! 1. **Is the network well-typed?** Full shape/stream inference over
//!    every layer, collecting all findings instead of stopping at the
//!    first (pass 1, [`shape`]).
//! 2. **Can the pipeline move data?** The planned accelerator is a
//!    synchronous-dataflow graph with static rates, so FIFO sizing and
//!    deadlock-freedom reduce to balance and fill equations (pass 2,
//!    [`sdf`]).
//! 3. **Does it fit the board?** The analytic synthesis model against
//!    the board catalog's usable resources, per module (pass 3,
//!    [`budget`]).
//!
//! Findings are [`diag::Diagnostic`]s with stable `C0xx` codes,
//! rendered human-readable or as JSON. The [`prefilter`] module reuses
//! the machinery to prune statically-infeasible DSE points, and
//! [`defects`] holds the seeded-defect corpus CI checks the checker
//! against.

#![forbid(unsafe_code)]
#![deny(clippy::indexing_slicing)]

pub mod budget;
pub mod defects;
pub mod diag;
pub mod prefilter;
pub mod sdf;
pub mod shape;

pub use budget::{BudgetOutcome, StageUtilization};
pub use defects::{corpus, DefectClass, SeededDefect};
pub use diag::{Code, Diagnostic, Diagnostics, Severity};
pub use prefilter::PlanBounds;

use condor_cjson::Value;
use condor_dataflow::AcceleratorPlan;
use condor_fpga::Resources;
use condor_hls::PlanSynthesis;
use condor_nn::Network;

/// Everything one verification run found.
#[derive(Clone, Debug)]
pub struct CheckReport {
    /// What was checked, for report headers.
    pub subject: String,
    /// All findings, in pass order.
    pub diagnostics: Diagnostics,
    /// Synthesis estimate from the budget pass, when a board resolved.
    pub synthesis: Option<PlanSynthesis>,
    /// Per-module utilisation, highest pressure first.
    pub stages: Vec<StageUtilization>,
    /// The board's usable budget, when known.
    pub budget: Option<Resources>,
}

impl CheckReport {
    /// True when no error-severity finding exists (warnings allowed).
    pub fn passed(&self) -> bool {
        !self.diagnostics.has_errors()
    }

    /// Human-readable report.
    pub fn render(&self) -> String {
        let verdict = if self.passed() { "PASS" } else { "FAIL" };
        let mut out = format!(
            "condor check: {} — {} ({} error(s), {} warning(s))\n",
            self.subject,
            verdict,
            self.diagnostics.error_count(),
            self.diagnostics.warning_count(),
        );
        if !self.diagnostics.is_empty() {
            out.push_str(&self.diagnostics.render());
            out.push('\n');
        }
        if let (Some(synth), Some(budget)) = (&self.synthesis, &self.budget) {
            let u = synth.total.utilization(budget);
            out.push_str(&format!("  total: {} ({u})\n", synth.total));
            for s in &self.stages {
                out.push_str(&format!(
                    "    {:<16} {:>6.2}%  {}\n",
                    s.module, s.max_pct, s.resources
                ));
            }
        }
        out
    }

    /// Machine-readable report (cjson).
    pub fn to_json(&self) -> Value {
        let mut pairs = vec![
            ("subject".to_string(), Value::str(self.subject.clone())),
            (
                "status".to_string(),
                Value::str(if self.passed() { "pass" } else { "fail" }),
            ),
            (
                "errors".to_string(),
                Value::int(self.diagnostics.error_count() as i64),
            ),
            (
                "warnings".to_string(),
                Value::int(self.diagnostics.warning_count() as i64),
            ),
            ("diagnostics".to_string(), self.diagnostics.to_json()),
        ];
        if let (Some(synth), Some(budget)) = (&self.synthesis, &self.budget) {
            pairs.push(("total".to_string(), resources_json(&synth.total)));
            pairs.push(("budget".to_string(), resources_json(budget)));
            pairs.push((
                "achieved_fmax_mhz".to_string(),
                Value::float(synth.achieved_fmax_mhz),
            ));
            pairs.push((
                "modules".to_string(),
                Value::Array(
                    self.stages
                        .iter()
                        .map(|s| {
                            Value::object([
                                ("name".to_string(), Value::str(s.module.clone())),
                                ("max_pct".to_string(), Value::float(s.max_pct)),
                                ("resources".to_string(), resources_json(&s.resources)),
                            ])
                        })
                        .collect(),
                ),
            ));
        }
        Value::object(pairs)
    }
}

fn resources_json(r: &Resources) -> Value {
    Value::object([
        ("lut".to_string(), Value::int(r.lut as i64)),
        ("ff".to_string(), Value::int(r.ff as i64)),
        ("dsp".to_string(), Value::int(r.dsp as i64)),
        ("bram_36k".to_string(), Value::int(r.bram_36k as i64)),
        ("uram".to_string(), Value::int(r.uram as i64)),
    ])
}

/// Verifies a network together with its accelerator plan: all three
/// passes, every finding collected.
pub fn check(net: &Network, plan: &AcceleratorPlan) -> CheckReport {
    let mut diags = Diagnostics::new();
    let ins = shape::check_network(net, &mut diags);
    // Past the size gate, the plan's FIFO and resource arithmetic would
    // multiply the very extents the gate refused.
    let outcome = if diags.has_code(Code::C017) {
        BudgetOutcome {
            synthesis: None,
            stages: Vec::new(),
            budget: None,
        }
    } else {
        sdf::check_plan(net, plan, &ins, &mut diags);
        budget::check_budget(plan, &mut diags)
    };
    CheckReport {
        subject: format!("{} on {}", net.name, plan.board),
        diagnostics: diags,
        synthesis: outcome.synthesis,
        stages: outcome.stages,
        budget: outcome.budget,
    }
}

/// Verifies a network alone (no plan yet): shape/stream pass only.
pub fn check_network(net: &Network) -> CheckReport {
    let mut diags = Diagnostics::new();
    shape::check_network(net, &mut diags);
    CheckReport {
        subject: net.name.clone(),
        diagnostics: diags,
        synthesis: None,
        stages: Vec::new(),
        budget: None,
    }
}

/// Verifies a seeded defect entry, using whichever passes its plan (or
/// lack of one) allows.
pub fn check_defect(d: &defects::SeededDefect) -> CheckReport {
    match &d.plan {
        Some(plan) => check(&d.network, plan),
        None => check_network(&d.network),
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use condor_dataflow::PlanBuilder;
    use condor_nn::zoo;

    #[test]
    fn lenet_report_passes_and_renders() {
        let net = zoo::lenet_weighted(1);
        let plan = PlanBuilder::new(&net).freq_mhz(180.0).build().unwrap();
        let report = check(&net, &plan);
        assert!(report.passed(), "{}", report.render());
        let text = report.render();
        assert!(text.contains("PASS"));
        assert!(text.contains("total:"));
    }

    #[test]
    fn vgg16_report_fails_with_budget_codes() {
        let net = zoo::vgg16();
        let plan = PlanBuilder::new(&net).build().unwrap();
        let report = check(&net, &plan);
        assert!(!report.passed());
        assert!(
            report.diagnostics.has_code(Code::C030),
            "{}",
            report.render()
        );
    }

    #[test]
    fn json_report_is_parseable_and_complete() {
        let net = zoo::lenet();
        let plan = PlanBuilder::new(&net).build().unwrap();
        let report = check(&net, &plan);
        let text = condor_cjson::to_string_pretty(&report.to_json());
        let v = condor_cjson::parse(&text).unwrap();
        assert_eq!(v.get("status").and_then(Value::as_str), Some("pass"));
        assert!(v.get("modules").and_then(Value::as_array).is_some());
        assert!(v.get("diagnostics").and_then(Value::as_array).is_some());
    }

    #[test]
    fn every_defect_yields_its_expected_code() {
        for d in defects::corpus() {
            let report = check_defect(&d);
            assert!(
                report.diagnostics.has_code(d.expected),
                "{}: expected {}, got [{}]\n{}",
                d.name,
                d.expected,
                report.diagnostics.codes().join(", "),
                report.render()
            );
            assert!(!report.passed(), "{} must fail", d.name);
        }
    }

    #[test]
    fn network_only_check_skips_plan_passes() {
        let report = check_network(&zoo::lenet());
        assert!(report.passed());
        assert!(report.synthesis.is_none());
    }
}
