//! `perf`: one command, five workloads, end-to-end and per-layer
//! numbers for the Condor flow and its serving stack. README.md beside
//! `Cargo.toml` has the tables; `BENCHMARK.json` at the repository
//! root is the contract this binary is run under.
//!
//! ```text
//! perf --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run, as the driver makes it
//! perf run   [--workload <name>] [--seed <n>] [--seconds <s>] [--repeat <k>] [--out <file>]
//! perf trace [same options]                                        per-layer numbers, spans on
//! perf compare A.json B.json                                       B against baseline A
//! ```

#![forbid(unsafe_code)]

mod layers;
mod offline;
mod report;
mod serving;
mod stats;
mod sut;
mod toolflow;
mod trace;
mod workload;

use condor_cjson::Value;
use report::{metric, Metric, Report, Results, PER_LAYER};
use stats::Summary;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::sync::Arc;
use std::time::Duration;
use trace::Tracer;
use workload::{Opts, Outcome, WORKLOADS};

/// Threads the load generators keep busy: one generator per workload
/// (collectors block on replies). Must fit the machine, or the
/// generator competes with the system under test for a core.
const LOAD_THREADS: usize = 1;
const WINDOW: Duration = Duration::from_secs(2);
const WARMUP: Duration = Duration::from_secs(2);
const SETUP_REPS: usize = 3;

struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    repeat: usize,
    out: Option<PathBuf>,
}

fn parse_flags(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: 1,
        seconds: 16,
        trace: false,
        smoke: false,
        repeat: 1,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            parsed.smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} {value}: not a whole number"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value.clone()),
            "--seed" => parsed.seed = number()?,
            "--seconds" => parsed.seconds = number()?.max(1),
            "--trace" => parsed.trace = number()? != 0,
            "--repeat" => parsed.repeat = number()?.max(1) as usize,
            "--out" => parsed.out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown option {other}")),
        }
    }
    if let Some(w) = &parsed.workload {
        if !WORKLOADS.iter().any(|(name, _)| name == w) {
            return Err(format!("unknown workload {w}"));
        }
    }
    Ok(parsed)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process so far, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn header(args: &RunArgs) -> Value {
    Value::object([
        ("nproc".to_string(), Value::int(nproc() as i64)),
        ("arch".to_string(), Value::str(std::env::consts::ARCH)),
        // The bin cannot read the rustflags it was built with; the
        // features they enable are what it can report.
        (
            "avx2".to_string(),
            Value::Bool(cfg!(target_feature = "avx2")),
        ),
        (
            "optimised".to_string(),
            Value::Bool(!cfg!(debug_assertions)),
        ),
        ("seed".to_string(), Value::int(args.seed as i64)),
        ("seconds".to_string(), Value::int(args.seconds as i64)),
        ("trace".to_string(), Value::Bool(args.trace)),
    ])
}

fn opts(args: &RunArgs, scratch: &Path) -> Opts {
    if args.smoke {
        return Opts {
            seed: args.seed,
            warmup: Duration::from_millis(100),
            measure: Duration::from_millis(500),
            window: Duration::from_millis(500),
            setup_reps: 1,
            smoke: true,
            scratch: scratch.to_path_buf(),
        };
    }
    // A traced run spends a quarter of the time on the workload
    // untraced, a quarter traced, and the rest on the layer probes.
    let measure = if args.trace {
        let windows = (args.seconds / 4 / WINDOW.as_secs()).max(1);
        WINDOW * windows as u32
    } else {
        Duration::from_secs(args.seconds)
    };
    Opts {
        seed: args.seed,
        warmup: if args.trace { WARMUP / 2 } else { WARMUP },
        measure,
        window: WINDOW.min(measure),
        setup_reps: if args.trace { 1 } else { SETUP_REPS },
        smoke: false,
        scratch: scratch.to_path_buf(),
    }
}

fn base_report(workload: &str, outcomes: &[&Outcome]) -> Report {
    let last = outcomes[outcomes.len() - 1];
    let mut errors: Vec<String> = outcomes.iter().flat_map(|o| o.errors.clone()).collect();
    if last.attempted == 0 {
        errors.push("no operation was attempted in the measured phase".to_string());
    }
    Report {
        workload: workload.to_string(),
        correct: errors.is_empty(),
        attempted: last.attempted,
        ok: last.ok,
        refused: last.refused,
        failed: outcomes.iter().map(|o| o.failed).sum(),
        errors,
        ..Report::default()
    }
}

fn untraced_report(workload: &str, o: &Outcome, warmup: Duration) -> Report {
    let mut report = base_report(workload, &[o]);
    report.metrics = vec![
        metric("goodput_rps", o.goodput_rps),
        metric("latency_p50_us", o.latency_p50_us),
        metric("ok_share", Summary::exact(o.ok_share())),
        // As ISSUE 11 defines it — process start to the start of the
        // measured phase — with the repeated set-ups replaced by their
        // median: one set-up plus the warm-up that follows it.
        metric("setup_s", o.setup_s.shifted(warmup.as_secs_f64())),
        metric("peak_rss_mb", Summary::exact(peak_rss_mb())),
    ];
    report.extra = vec![metric("latency_p99_us", o.latency_p99_us)];
    report.extra.extend(o.layers.iter().cloned());
    report
}

/// Every per-layer metric, in table order: what the traced run and the
/// probes produced, and 0 (n = 0) where this workload never enters the
/// layer. A produced name the table does not have is an error.
fn traced_report(
    workload: &str,
    untraced: &Outcome,
    traced: &Outcome,
    probes: Vec<Metric>,
) -> Report {
    let mut report = base_report(workload, &[untraced, traced]);
    let overhead =
        1.0 - traced.goodput_rps.value / untraced.goodput_rps.value.max(f64::MIN_POSITIVE);
    let mut produced = traced.layers.clone();
    produced.extend(probes);
    produced.push(metric("latency_p99_us", traced.latency_p99_us));
    produced.push(metric("trace_overhead_share", Summary::exact(overhead)));
    for p in &produced {
        if !PER_LAYER.iter().any(|s| s.name == p.name) {
            report.correct = false;
            report
                .errors
                .push(format!("metric {} is not in the per-layer table", p.name));
        }
    }
    report.metrics = PER_LAYER
        .iter()
        .map(|spec| {
            let found = produced.iter().find(|p| p.name == spec.name);
            metric(spec.name, found.map_or(Summary::default(), |p| p.summary))
        })
        .collect();
    report
}

/// One run of one workload in this process. A traced run is the
/// workload at quarter length, first with span recording off and then
/// on, and then the layer probes.
fn run_one(name: &str, args: &RunArgs, scratch: &Path) -> Report {
    let opts = opts(args, scratch);
    let run = |traced: bool| {
        let tracer = Arc::new(Tracer::new(traced));
        let outcome = workload::run(name, &opts, &tracer).expect("workload names are validated");
        (outcome, tracer)
    };
    let (untraced, _) = run(false);
    if !args.trace {
        return untraced_report(name, &untraced, opts.warmup);
    }
    let (traced, tracer) = run(true);
    let mut report = traced_report(name, &untraced, &traced, layers::probe_all(&opts));
    let path = PathBuf::from(format!("target/perf/trace.{name}.json"));
    if let Err(e) = tracer.write_json(&path) {
        report.correct = false;
        report
            .errors
            .push(format!("writing {}: {e}", path.display()));
    }
    report
}

/// The driver's entry: one workload, one JSON line last.
fn drive(args: &RunArgs) -> ExitCode {
    let Some(name) = &args.workload else {
        eprintln!("perf: --workload is required (or use `perf run`)");
        return ExitCode::from(2);
    };
    assert!(
        LOAD_THREADS <= nproc(),
        "load generation needs {LOAD_THREADS} busy thread(s), machine has {}",
        nproc()
    );
    println!("# perf {}", condor_cjson::to_string(&header(args)));
    let scratch = PathBuf::from(format!("target/tmp/perf/{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perf: cannot create {}: {e}", scratch.display());
        return ExitCode::from(2);
    }
    let report = run_one(name, args, &scratch);
    print!("{}", report.lines());
    println!("{}", report.json_line());
    if report.correct {
        // Scratch state is removed on success and left for inspection
        // on failure.
        let _ = std::fs::remove_dir_all(&scratch);
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perf: {name}: output checks failed; scratch left in {}",
            scratch.display()
        );
        ExitCode::FAILURE
    }
}

/// `perf run` / `perf trace`: every workload in its own child process,
/// so set-up time and peak memory are per workload.
fn run_all(args: &RunArgs) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perf: cannot find own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> = WORKLOADS
        .iter()
        .map(|(name, _)| *name)
        .filter(|name| args.workload.as_deref().is_none_or(|w| w == *name))
        .collect();
    let mut results = Results::new();
    let mut failed = false;
    for name in names {
        for _ in 0..args.repeat {
            let mut child = Command::new(&exe);
            child
                .args(["--workload", name])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit());
            if args.smoke {
                child.arg("--smoke");
            }
            let output = match child.output() {
                Ok(output) => output,
                Err(e) => {
                    eprintln!("perf: cannot start child for {name}: {e}");
                    return ExitCode::from(2);
                }
            };
            let stdout = String::from_utf8_lossy(&output.stdout);
            print!("{stdout}");
            failed |= !output.status.success();
            let per_workload = results.entry(name.to_string()).or_default();
            for m in report::parse_lines(name, &stdout) {
                per_workload.entry(m.name).or_default().push(m.summary);
            }
        }
    }
    let default_out = if args.trace {
        "target/perf/layers.json"
    } else {
        "target/perf/run.json"
    };
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from(default_out));
    let written = out
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&out, report::results_to_json(header(args), &results)));
    match written {
        Ok(()) => eprintln!("perf: results written to {}", out.display()),
        Err(e) => {
            eprintln!("perf: cannot write {}: {e}", out.display());
            failed = true;
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn compare(paths: &[String]) -> ExitCode {
    let [a, b] = paths else {
        eprintln!("usage: perf compare A.json B.json");
        return ExitCode::from(2);
    };
    let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    match read(a).and_then(|a| read(b).and_then(|b| report::compare(&a, &b))) {
        Ok((table, bad)) => {
            print!("{table}");
            if bad {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("perf compare: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some(c @ ("run" | "trace" | "compare")) => (c, &args[1..]),
        _ => ("drive", &args[..]),
    };
    if command == "compare" {
        return compare(rest);
    }
    let mut parsed = match parse_flags(rest) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perf: {e}");
            return ExitCode::from(2);
        }
    };
    match command {
        "run" => {
            parsed.trace = false;
            run_all(&parsed)
        }
        "trace" => {
            parsed.trace = true;
            run_all(&parsed)
        }
        _ => drive(&parsed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use report::END_TO_END;
    use std::collections::BTreeSet;

    fn smoke_args(trace: bool) -> RunArgs {
        RunArgs {
            workload: None,
            seed: 1,
            seconds: 1,
            trace,
            smoke: true,
            repeat: 1,
            out: None,
        }
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("condor-perf-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir is writable");
        dir
    }

    /// The smoke pass: all five workloads run (0.5 s windows, no bound
    /// applied), check their outputs, and report every end-to-end
    /// metric; and between them the runs and the probes produce every
    /// name of the per-layer table — so a renamed PE or network node
    /// fails here, not in a later issue. To keep the tests short each
    /// workload runs once, spans on, and both reports are cut from that
    /// run; the probes are the same for every workload, so one pass.
    #[test]
    fn smoke_pass_over_all_workloads() {
        let dir = scratch("smoke");
        let opts = opts(&smoke_args(true), &dir);
        let mut produced = BTreeSet::new();
        let mut probes = layers::probe_all(&opts);
        for (name, _) in WORKLOADS {
            let tracer = Arc::new(Tracer::new(true));
            let traced = workload::run(name, &opts, &tracer).expect("a workload of the table");

            let report = untraced_report(name, &traced, opts.warmup);
            assert!(report.correct, "{name}: {:?}", report.errors);
            assert!(
                report.attempted > 0 && report.failed == 0,
                "{name}: {report:?}"
            );
            let names: Vec<&str> = report.metrics.iter().map(|m| m.name.as_str()).collect();
            let want: Vec<&str> = END_TO_END.iter().map(|s| s.name).collect();
            assert_eq!(names, want, "{name}");
            for m in &report.metrics {
                assert!(
                    m.summary.value > 0.0,
                    "{name}.{} is {}",
                    m.name,
                    m.summary.value
                );
            }

            assert!(!tracer.spans().is_empty(), "{name} recorded no span");
            let report = traced_report(name, &traced, &traced, std::mem::take(&mut probes));
            assert!(report.correct, "{name}: {:?}", report.errors);
            assert_eq!(report.metrics.len(), PER_LAYER.len());
            let measured = report.metrics.iter().filter(|m| m.summary.n > 0);
            produced.extend(measured.map(|m| m.name.clone()));
        }
        let table: BTreeSet<String> = PER_LAYER.iter().map(|s| s.name.to_string()).collect();
        assert_eq!(produced, table);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `BENCHMARK.json` and the tables in `report.rs` say the same.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let doc = condor_cjson::parse(include_str!("../../../../../../BENCHMARK.json"))
            .expect("BENCHMARK.json is valid JSON");
        let entries = |key: &str| -> Vec<Value> {
            doc.get(key)
                .and_then(Value::as_array)
                .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` array"))
                .to_vec()
        };
        let text = |v: &Value, key: &str| v.get(key).and_then(Value::as_str).map(str::to_string);

        let workloads: Vec<(String, String)> = entries("workloads")
            .iter()
            .map(|w| (text(w, "name").expect("name"), text(w, "why").expect("why")))
            .collect();
        let want: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|(n, w)| (n.to_string(), w.to_string()))
            .collect();
        assert_eq!(workloads, want);
        assert!(WORKLOADS.iter().all(|(_, why)| why.len() <= 200));

        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String, String, Option<f64>)> = entries(key)
                .iter()
                .map(|m| {
                    (
                        text(m, "name").expect("name"),
                        text(m, "unit").expect("unit"),
                        text(m, "better").expect("better"),
                        m.get("bound").and_then(Value::as_f64),
                    )
                })
                .collect();
            let want: Vec<(String, String, String, Option<f64>)> = table
                .iter()
                .map(|s| {
                    (
                        s.name.to_string(),
                        s.unit.to_string(),
                        s.better.as_str().to_string(),
                        // Per-layer entries carry no bound in the contract.
                        s.bound.filter(|_| key == "end_to_end"),
                    )
                })
                .collect();
            assert_eq!(listed, want, "{key}");
        }
        let paths: Vec<String> = entries("paths")
            .iter()
            .filter_map(|p| p.as_str().map(str::to_string))
            .collect();
        assert_eq!(paths, ["crates/bench/src/bin/perf"]);
    }

    /// Any failed output check makes the run incorrect, and an
    /// incorrect run exits non-zero.
    #[test]
    fn a_failed_check_fails_the_run() {
        let mut outcome = Outcome {
            attempted: 10,
            ok: 9,
            failed: 1,
            ..Outcome::default()
        };
        outcome.require(false, || {
            "reply differs from the reference output".to_string()
        });
        let report = untraced_report("serve_open", &outcome, WARMUP);
        assert!(!report.correct);
        assert!(report.json_line().starts_with("{\"correct\": false"));
        assert!(report.lines().contains("check-failed"));
    }

    #[test]
    fn flags_parse_as_the_driver_passes_them() {
        let args: Vec<String> = "--workload toolflow --seed 7 --seconds 16 --trace 1"
            .split(' ')
            .map(str::to_string)
            .collect();
        let parsed = parse_flags(&args).expect("valid flags");
        assert_eq!(parsed.workload.as_deref(), Some("toolflow"));
        assert_eq!((parsed.seed, parsed.seconds, parsed.trace), (7, 16, true));
        assert!(parse_flags(&["--workload".to_string(), "nope".to_string()]).is_err());
        assert!(parse_flags(&["--seed".to_string()]).is_err());
    }
}
