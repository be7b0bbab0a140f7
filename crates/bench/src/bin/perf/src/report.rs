//! The metric tables (names, units, directions, bounds — mirrored by
//! `BENCHMARK.json` and checked against it by a test), the output of
//! one run, the result files `perf run` writes, and `perf compare`.

use crate::stats::{summarize, Summary};
use condor_cjson::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline's median by which the metric may worsen
    /// before `perf compare` calls it a regression; `None` for numbers
    /// that are only reported.
    pub bound: Option<f64>,
    /// A simulated or computed count that must repeat exactly.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Spec {
    Spec {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: false,
    }
}

const fn lower(name: &'static str, unit: &'static str) -> Spec {
    Spec {
        name,
        unit,
        better: Better::Lower,
        bound: None,
        exact: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Spec {
    Spec {
        name,
        unit,
        better: Better::Higher,
        bound: None,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str) -> Spec {
    Spec {
        name,
        unit,
        better: Better::Lower,
        bound: None,
        exact: true,
    }
}

/// A stream's own rate: reported per layer, but bounded in `perf
/// compare` like an end-to-end metric on the workload that runs it.
const fn stream(name: &'static str) -> Spec {
    Spec {
        name,
        unit: "1/s",
        better: Better::Higher,
        bound: Some(0.25),
        exact: false,
    }
}

/// What a user of each workload sees. Every workload reports all five,
/// for its headline stream (README.md says which that is).
pub const END_TO_END: &[Spec] = &[
    e2e("goodput_rps", "1/s", Better::Higher, 0.25),
    e2e("latency_p50_us", "us", Better::Lower, 0.25),
    e2e("ok_share", "share", Better::Higher, 0.05),
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.10),
];

/// Per-layer numbers of a traced run; layer = module name.
pub const PER_LAYER: &[Spec] = &[
    // The headline stream's tail. Not end-to-end: between identical
    // runs on the 2-core box it moved by more than the largest bound
    // the contract allows (0.25), so it is reported, not gated.
    Spec {
        bound: Some(0.25),
        ..lower("latency_p99_us", "us")
    },
    // Streams beside each workload's headline.
    stream("fast_vgg56_ips"),
    stream("int8_vgg56_ips"),
    stream("fast_lenet_ips"),
    stream("int8_lenet_ips"),
    stream("caffe_to_cloud_per_s"),
    stream("dse_points_per_s"),
    Spec {
        unit: "Mcycles/s",
        ..stream("des_mcycles_per_s")
    },
    // condor-serve, from spans around submit and backend calls and
    // from the server's shutdown snapshot.
    lower("serve.submit_us_p50", "us"),
    lower("serve.submit_us_p99", "us"),
    lower("serve.backend_call_us_p50", "us"),
    higher("serve.mean_batch", "count"),
    lower("serve.backend_busy_share", "share"),
    lower("serve.stack_self_us_p50", "us"),
    lower("serve.queue_sojourn_us_p50", "us"),
    lower("serve.gen_lag_us_p99", "us"),
    higher("serve.accepted", "count"),
    higher("serve.completed", "count"),
    lower("serve.rejected_queue_full", "count"),
    lower("serve.shed_codel", "count"),
    lower("serve.timed_out", "count"),
    lower("serve.fleet_migrated", "count"),
    lower("serve.interactive_p50_us", "us"),
    // What `serve_overload` exists to watch: bounded in `perf compare`
    // (the tail moved by 15 % between identical runs, the share by 4 %).
    Spec {
        bound: Some(0.25),
        ..lower("serve.interactive_p99_us", "us")
    },
    Spec {
        bound: Some(0.10),
        ..lower("serve.interactive_fail_share", "share")
    },
    lower("serve.standard_p99_us", "us"),
    lower("serve.batch_p99_us", "us"),
    // condor-queue.
    lower("queue.durable_submit_extra_us_p50", "us"),
    lower("queue.ack_latency_us_p50", "us"),
    lower("queue.bytes_per_request", "B"),
    exact("queue.depth_at_drain", "count"),
    // condor (core), cloud, cjson, caffe.
    lower("core.metrics_incr_ns", "ns"),
    lower("core.metrics_observe_ns", "ns"),
    lower("core.metrics_observe_contended_ns", "ns"),
    lower("core.metrics_snapshot_us", "us"),
    lower("core.frontend_analyze_us", "us"),
    lower("core.build_us", "us"),
    lower("core.build_residual_us", "us"),
    lower("core.dse_explore_ms", "ms"),
    exact("core.dse_points", "count"),
    exact("core.dse_feasible", "count"),
    lower("cloud.deploy_us", "us"),
    lower("cjson.repr_roundtrip_us", "us"),
    exact("caffe.caffemodel_bytes", "B"),
    // condor-hls: host time, and the model's Table 1 cells for LeNet.
    lower("hls.synthesize_plan_us", "us"),
    lower("hls.ip_package_us", "us"),
    exact("hls.lenet_lut_pct", "%"),
    exact("hls.lenet_ff_pct", "%"),
    exact("hls.lenet_dsp_pct", "%"),
    exact("hls.lenet_bram_pct", "%"),
    // condor-dataflow: host time, then simulated counts.
    lower("dataflow.plan_build_us", "us"),
    lower("dataflow.des_batch64_ns", "ns"),
    lower("dataflow.layersim_conv2_ms", "ms"),
    lower("dataflow.runtime_lenet_b16_ms", "ms"),
    exact("dataflow.des_lenet_total_cycles_b64", "cycles"),
    exact("dataflow.des_lenet_ii_cycles", "cycles"),
    exact("dataflow.des_lenet_latency_cycles", "cycles"),
    exact("dataflow.layersim_conv2_cycles", "cycles"),
    exact("dataflow.layersim_conv2_pe_stall_cycles", "cycles"),
    exact("dataflow.plan.lenet.pe0_cycles", "cycles"),
    exact("dataflow.plan.lenet.pe1_cycles", "cycles"),
    exact("dataflow.plan.lenet.pe2_cycles", "cycles"),
    exact("dataflow.plan.lenet.pe3_cycles", "cycles"),
    exact("dataflow.plan.lenet.pe4_cycles", "cycles"),
    exact("dataflow.plan.lenet.pe5_cycles", "cycles"),
    // condor-nn: every node alone, through forward_layer_fast.
    lower("nn.fast.lenet.conv1_us", "us"),
    lower("nn.fast.lenet.pool1_us", "us"),
    lower("nn.fast.lenet.conv2_us", "us"),
    lower("nn.fast.lenet.pool2_us", "us"),
    lower("nn.fast.lenet.ip1_us", "us"),
    lower("nn.fast.lenet.ip2_us", "us"),
    lower("nn.fast.lenet.prob_us", "us"),
    lower("nn.fast.vgg56.conv1_1_us", "us"),
    lower("nn.fast.vgg56.conv1_2_us", "us"),
    lower("nn.fast.vgg56.pool1_us", "us"),
    lower("nn.fast.vgg56.conv2_1_us", "us"),
    lower("nn.fast.vgg56.conv2_2_us", "us"),
    lower("nn.fast.vgg56.pool2_us", "us"),
    lower("nn.fast.engine_build_ms", "ms"),
    lower("nn.int8.calibrate_ms", "ms"),
    higher("nn.fast.lenet_batch_gain", "ratio"),
    // condor-kernels; flops and bytes are computed from tensor sizes.
    lower("kernels.gemm_f32_vgg56_us", "us"),
    lower("kernels.gemm_i8_vgg56_us", "us"),
    lower("kernels.im2col_vgg56_us", "us"),
    lower("kernels.conv2d_vgg56_us", "us"),
    lower("kernels.qconv2d_vgg56_us", "us"),
    lower("kernels.gemv_ip1_us", "us"),
    exact("kernels.conv2d_vgg56_flops", "flop"),
    exact("kernels.conv2d_vgg56_bytes", "B"),
    higher("kernels.conv2d_vgg56_gflops", "GFLOP/s"),
    // 1 − traced / untraced goodput of the workload.
    lower("trace_overhead_share", "share"),
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    END_TO_END.iter().chain(PER_LAYER).find(|s| s.name == name)
}

/// The bound `perf compare` applies on one workload. The contract
/// allows one bound per metric, which the noisiest workload sets;
/// `serve_overload` sleeps instead of computing and repeats within 1 %,
/// so it keeps the bounds ISSUE 11 gave it.
fn bound_on(workload: &str, spec: &Spec) -> Option<f64> {
    match (workload, spec.name) {
        ("serve_overload", "goodput_rps") => Some(0.05),
        ("serve_overload", "latency_p50_us") => Some(0.10),
        _ => spec.bound,
    }
}

/// One reported number of one run.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub summary: Summary,
}

pub fn metric(name: impl Into<String>, summary: Summary) -> Metric {
    Metric {
        name: name.into(),
        summary,
    }
}

/// Everything one run of one workload reports.
#[derive(Clone, Debug, Default)]
pub struct Report {
    pub workload: String,
    pub correct: bool,
    pub attempted: u64,
    pub ok: u64,
    pub refused: u64,
    pub failed: u64,
    /// The contract's metrics: every end-to-end metric of an untraced
    /// run, every per-layer metric of a traced one.
    pub metrics: Vec<Metric>,
    /// Further numbers printed beside them (stream rates in an
    /// untraced run).
    pub extra: Vec<Metric>,
    pub errors: Vec<String>,
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

fn unit_of(name: &str) -> &'static str {
    spec(name).map_or("", |s| s.unit)
}

impl Report {
    /// One line per metric: `workload metric value unit n q1 q3`.
    pub fn lines(&self) -> String {
        let mut out = String::new();
        for m in self.metrics.iter().chain(&self.extra) {
            let s = m.summary;
            let _ = writeln!(
                out,
                "{} {} {} {} {} {} {}",
                self.workload,
                m.name,
                finite(s.value),
                unit_of(&m.name),
                s.n,
                finite(s.q1),
                finite(s.q3)
            );
        }
        let _ = writeln!(
            out,
            "{} ops attempted={} ok={} refused={} failed={}",
            self.workload, self.attempted, self.ok, self.refused, self.failed
        );
        for e in &self.errors {
            let _ = writeln!(out, "{} check-failed {e}", self.workload);
        }
        out
    }

    /// The contract's last line: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    finite(m.summary.value),
                    unit_of(&m.name)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

// ----------------------------------------------------------- result files

/// Parses the metric lines of a child's standard output back into
/// `(name, summary)` pairs.
pub fn parse_lines(workload: &str, stdout: &str) -> Vec<Metric> {
    stdout
        .lines()
        .filter_map(|line| {
            let f: Vec<&str> = line.split_whitespace().collect();
            if f.len() != 7 || f[0] != workload {
                return None;
            }
            Some(Metric {
                name: f[1].to_string(),
                summary: Summary {
                    value: f[2].parse().ok()?,
                    n: f[4].parse().ok()?,
                    q1: f[5].parse().ok()?,
                    q3: f[6].parse().ok()?,
                },
            })
        })
        .collect()
}

/// `workload → metric → one summary per repeat`, as `perf run` and
/// `perf trace` collect it.
pub type Results = BTreeMap<String, BTreeMap<String, Vec<Summary>>>;

pub fn results_to_json(header: Value, results: &Results) -> String {
    let num = |v: f64| Value::float(finite(v));
    let workloads = results.iter().map(|(w, metrics)| {
        let metrics = metrics.iter().map(|(name, runs)| {
            let values: Vec<f64> = runs.iter().map(|r| r.value).collect();
            let last = runs.last().copied().unwrap_or_default();
            let entry = Value::object([
                ("value".to_string(), num(summarize(&values).value)),
                ("unit".to_string(), Value::str(unit_of(name))),
                (
                    "runs".to_string(),
                    Value::Array(values.iter().map(|&v| num(v)).collect()),
                ),
                ("n".to_string(), Value::int(last.n as i64)),
                ("q1".to_string(), num(last.q1)),
                ("q3".to_string(), num(last.q3)),
            ]);
            (name.clone(), entry)
        });
        (w.clone(), Value::object(metrics))
    });
    condor_cjson::to_string_pretty(&Value::object([
        ("schema".to_string(), Value::str("condor-perf/1")),
        ("header".to_string(), header),
        ("workloads".to_string(), Value::object(workloads)),
    ]))
}

/// One metric of a result file: the value of every repeat, and the
/// window quartiles of the last one.
struct Recorded {
    runs: Vec<f64>,
    q1: f64,
    q3: f64,
}

fn parse_results(text: &str) -> Result<BTreeMap<String, BTreeMap<String, Recorded>>, String> {
    let doc = condor_cjson::parse(text).map_err(|e| e.to_string())?;
    let workloads = doc
        .get("workloads")
        .and_then(Value::as_object)
        .ok_or("no `workloads` object")?;
    let mut out = BTreeMap::new();
    for (w, metrics) in workloads {
        let metrics = metrics
            .as_object()
            .ok_or("workload entry is not an object")?;
        let mut parsed = BTreeMap::new();
        for (name, m) in metrics {
            let f = |key: &str| m.get(key).and_then(Value::as_f64);
            let runs: Vec<f64> = m
                .get("runs")
                .and_then(Value::as_array)
                .map(|a| a.iter().filter_map(Value::as_f64).collect())
                .unwrap_or_default();
            if runs.is_empty() {
                return Err(format!("{w}.{name}: no runs recorded"));
            }
            parsed.insert(
                name.clone(),
                Recorded {
                    runs,
                    q1: f("q1").unwrap_or(0.0),
                    q3: f("q3").unwrap_or(0.0),
                },
            );
        }
        out.insert(w.clone(), parsed);
    }
    Ok(out)
}

// ---------------------------------------------------------------- compare

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The spread recorded in the files is wider than the bound, so a
    /// difference of the size of the bound cannot be told from noise.
    Unresolved,
    /// An exact count differs.
    Changed,
    /// B has no such workload or metric.
    Missing,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Changed => "changed",
            Verdict::Missing => "missing",
        }
    }
}

/// Spread of one side as a share of its median: across repeats when
/// there are at least four, else across the windows of the one run.
fn spread(r: &Recorded) -> f64 {
    let s = summarize(&r.runs);
    let (iqr, median) = if r.runs.len() >= 4 {
        (s.q3 - s.q1, s.value)
    } else {
        (r.q3 - r.q1, s.value)
    };
    if median == 0.0 {
        0.0
    } else {
        (iqr / median).abs()
    }
}

/// Verdict on one metric and the share by which B is worse than A;
/// `bound` is `None` for an exact count.
fn judge(spec: &Spec, bound: Option<f64>, a: &Recorded, b: &Recorded) -> (Verdict, f64) {
    let (ma, mb) = (summarize(&a.runs).value, summarize(&b.runs).value);
    let Some(bound) = bound else {
        let same = a.runs == b.runs || (ma == mb && a.runs.iter().all(|&v| v == ma));
        let verdict = if same { Verdict::Ok } else { Verdict::Changed };
        return (verdict, 0.0);
    };
    let worse = match spec.better {
        Better::Lower => (mb - ma) / ma.abs().max(f64::MIN_POSITIVE),
        Better::Higher => (ma - mb) / ma.abs().max(f64::MIN_POSITIVE),
    };
    let all_better = match spec.better {
        Better::Lower => b.runs.iter().all(|&y| a.runs.iter().all(|&x| y < x)),
        Better::Higher => b.runs.iter().all(|&y| a.runs.iter().all(|&x| y > x)),
    };
    let verdict = if spread(a).max(spread(b)) > bound && !all_better {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (verdict, worse)
}

/// Compares result file B against baseline A: one row per workload ×
/// bounded or exact metric of A. Returns the table and whether anything
/// regressed, changed or is missing from B.
pub fn compare(a_text: &str, b_text: &str) -> Result<(String, bool), String> {
    let a = parse_results(a_text).map_err(|e| format!("A: {e}"))?;
    let b = parse_results(b_text).map_err(|e| format!("B: {e}"))?;
    let mut table = String::new();
    let mut bad = false;
    let _ = writeln!(
        table,
        "{:<16} {:<40} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse", "bound"
    );
    for (w, metrics) in &a {
        for (name, ra) in metrics {
            let Some(spec) = spec(name) else {
                continue;
            };
            let bound = if spec.exact { None } else { bound_on(w, spec) };
            if !spec.exact && bound.is_none() {
                continue;
            }
            let ma = summarize(&ra.runs).value;
            // A run of B that crashed leaves no rows: that is a
            // failure to report, not a metric to skip.
            let Some(rb) = b.get(w).and_then(|m| m.get(name)) else {
                bad = true;
                let _ = writeln!(
                    table,
                    "{w:<16} {name:<40} {ma:>14.4} {:>14} {:>9} {:>7}  {}",
                    "-",
                    "-",
                    "-",
                    Verdict::Missing.as_str()
                );
                continue;
            };
            let (verdict, worse) = judge(spec, bound, ra, rb);
            bad |= matches!(verdict, Verdict::Regressed | Verdict::Changed);
            let _ = writeln!(
                table,
                "{:<16} {:<40} {:>14.4} {:>14.4} {:>+8.2}% {:>6.0}%  {}",
                w,
                name,
                ma,
                summarize(&rb.runs).value,
                worse * 100.0,
                bound.unwrap_or(0.0) * 100.0,
                verdict.as_str()
            );
        }
    }
    Ok((table, bad))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(goodput: &[f64], cycles: f64) -> String {
        let mut results = Results::new();
        let runs = |vals: &[f64]| -> Vec<Summary> {
            vals.iter()
                .map(|&v| Summary {
                    value: v,
                    n: 8,
                    q1: v * 0.99,
                    q3: v * 1.01,
                })
                .collect()
        };
        let w = results.entry("serve_open".to_string()).or_default();
        w.insert("goodput_rps".to_string(), runs(goodput));
        w.insert(
            "dataflow.layersim_conv2_cycles".to_string(),
            runs(&[cycles]),
        );
        w.insert("serve.mean_batch".to_string(), runs(&[2.0]));
        results_to_json(Value::object([]), &results)
    }

    #[test]
    fn compare_applies_bounds_and_exactness() {
        let base = file(&[800.0], 66_881.0);
        let (table, bad) = compare(&base, &file(&[790.0], 66_881.0)).expect("parses");
        assert!(!bad, "{table}");
        assert!(table.contains("goodput_rps") && table.contains(" ok"));
        // Unbounded, inexact metrics are not judged at all.
        assert!(!table.contains("serve.mean_batch"));

        let (table, bad) = compare(&base, &file(&[500.0], 66_881.0)).expect("parses");
        assert!(bad && table.contains("regressed"), "{table}");

        let (table, bad) = compare(&base, &file(&[800.0], 66_882.0)).expect("parses");
        assert!(bad && table.contains("changed"), "{table}");
    }

    #[test]
    fn a_metric_missing_from_b_fails_the_comparison() {
        let base = file(&[800.0], 66_881.0);
        let mut results = Results::new();
        results.entry("toolflow".to_string()).or_default();
        let empty = results_to_json(Value::object([]), &results);
        let (table, bad) = compare(&base, &empty).expect("parses");
        assert!(bad, "{table}");
        assert_eq!(table.matches("missing").count(), 2, "{table}");
        // Only what `compare` judges can be missing.
        assert!(!table.contains("serve.mean_batch"));
    }

    #[test]
    fn serve_overload_keeps_its_tighter_bounds() {
        let spec = spec("goodput_rps").expect("in the table");
        assert_eq!(bound_on("serve_open", spec), Some(0.25));
        assert_eq!(bound_on("serve_overload", spec), Some(0.05));
    }

    #[test]
    fn wide_spread_is_unresolved_not_ok() {
        let noisy = [500.0, 800.0, 1100.0, 650.0, 950.0];
        let (table, bad) = compare(&file(&noisy, 1.0), &file(&noisy, 1.0)).expect("parses");
        assert!(!bad);
        assert!(table.contains("unresolved"), "{table}");
        // …unless every run of B beats every run of A.
        let better = [2000.0, 2600.0, 3200.0, 2300.0, 2900.0];
        let (table, _) = compare(&file(&noisy, 1.0), &file(&better, 1.0)).expect("parses");
        assert!(!table.contains("unresolved"), "{table}");
    }

    #[test]
    fn lines_round_trip() {
        let report = Report {
            workload: "toolflow".to_string(),
            correct: true,
            attempted: 10,
            ok: 10,
            metrics: vec![Metric {
                name: "goodput_rps".to_string(),
                summary: Summary {
                    value: 812.25,
                    n: 4,
                    q1: 800.0,
                    q3: 820.5,
                },
            }],
            ..Report::default()
        };
        let parsed = parse_lines("toolflow", &report.lines());
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].summary, report.metrics[0].summary);
        let json = condor_cjson::parse(&report.json_line()).expect("valid JSON");
        let keys: Vec<&String> = json.as_object().expect("object").keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for s in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(s.name), "duplicate metric {}", s.name);
            assert!(s.name.len() <= 64 && s.unit.len() <= 16, "{}", s.name);
            assert!(s
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .all(|s| s.bound.is_some_and(|b| b <= 0.25)));
    }
}
