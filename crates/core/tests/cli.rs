//! Integration tests of the `condor` command-line binary.

#![allow(clippy::unwrap_used)] // test code: unwrap is the assertion

use std::path::PathBuf;
use std::process::Command;
use std::sync::OnceLock;

const BIN: &str = env!("CARGO_BIN_EXE_condor");

/// A path in the shared scratch directory that only this test process
/// uses: `$TMPDIR` outlives the run and other `cargo test` processes
/// write there too, so every file name carries the pid.
fn scratch_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("condor-cli-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!("{}-{name}", std::process::id()))
}

fn write_fixture(name: &str, contents: &str) -> PathBuf {
    let path = scratch_path(name);
    std::fs::write(&path, contents).expect("write fixture");
    path
}

/// The model most tests feed the binary. Written once: the tests run
/// as threads of this process, and a second truncate-and-rewrite would
/// let a sibling's `condor` child read a torn file.
fn mini_json() -> PathBuf {
    static PATH: OnceLock<PathBuf> = OnceLock::new();
    PATH.get_or_init(|| {
        write_fixture(
            "mini.json",
            r#"{
  "name": "mini",
  "board": "aws-f1",
  "frequency_mhz": 150.0,
  "input_shape": {"channels": 1, "height": 12, "width": 12},
  "layers": [
    {"name": "data", "type": "Input"},
    {"name": "conv1", "type": "Convolution", "num_output": 4, "kernel_size": 3},
    {"name": "ip1", "type": "InnerProduct", "num_output": 10}
  ]
}"#,
        )
    })
    .clone()
}

#[test]
fn info_prints_cost_table() {
    let out = Command::new(BIN)
        .args(["info", mini_json().to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("conv1"));
    assert!(stdout.contains("FLOPs/image"));
    assert!(stdout.contains("weights absent"));
}

#[test]
fn build_reports_bottleneck_and_utilisation() {
    let out = Command::new(BIN)
        .args(["build", mini_json().to_str().unwrap(), "--freq", "200"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("accelerator : condor_mini"));
    assert!(stdout.contains("200 MHz achieved"));
    assert!(stdout.contains("bottleneck"));
    assert!(stdout.contains("utilisation"));
}

#[test]
fn build_from_prototxt_input() {
    let path = write_fixture(
        "mini.prototxt",
        r#"name: "protomini"
layer { name: "data" type: "Input" input_param { shape: { dim: 1 dim: 1 dim: 8 dim: 8 } } }
layer { name: "conv1" type: "Convolution" convolution_param { num_output: 2 kernel_size: 3 } }
"#,
    );
    let out = Command::new(BIN)
        .args(["build", path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("condor_protomini"));
}

#[test]
fn export_writes_prototxt() {
    let out_path = scratch_path("exported.prototxt");
    let out = Command::new(BIN)
        .args([
            "export",
            mini_json().to_str().unwrap(),
            "--prototxt",
            out_path.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&out_path).expect("export exists");
    assert!(text.contains("type: \"Convolution\""));
    assert!(text.contains("num_output: 4"));
}

#[test]
fn bad_inputs_exit_nonzero_with_message() {
    // Missing file.
    let out = Command::new(BIN)
        .args(["info", "/nonexistent/net.json"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
    // Unknown command.
    let out = Command::new(BIN)
        .args(["frobnicate"])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    // Unknown flag.
    let out = Command::new(BIN)
        .args(["build", "x.json", "--bogus"])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag"));
}

#[test]
fn check_passes_clean_model_with_report() {
    let out = Command::new(BIN)
        .args(["check", mini_json().to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("PASS"));
    assert!(stdout.contains("total:"));
}

#[test]
fn check_rejects_defective_model_with_stable_code() {
    // A shape-broken model never reaches the checker (the frontend's
    // IR constructor validates on load), so the CLI-reachable defect
    // classes are plan-level: here the infrastructure alone exceeds a
    // Zynq-7020's budget, which must surface as C030.
    let out = Command::new(BIN)
        .args(["check", mini_json().to_str().unwrap(), "--board", "pynq-z1"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("C030"), "{stdout}");
    assert!(stdout.contains("FAIL"), "{stdout}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("static verification failed"));
}

#[test]
fn check_json_mode_emits_parseable_report() {
    let out = Command::new(BIN)
        .args(["check", mini_json().to_str().unwrap(), "--json"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let v = condor_cjson::parse(&String::from_utf8_lossy(&out.stdout)).expect("valid json");
    assert_eq!(
        v.get("status").and_then(condor_cjson::Value::as_str),
        Some("pass")
    );
}

#[test]
fn check_zoo_and_defect_self_checks_pass() {
    let out = Command::new(BIN)
        .args(["check", "--zoo"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = Command::new(BIN)
        .args(["check", "--defects"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("caught"));
    assert!(!stdout.contains("MISSED"));
}

#[test]
fn dse_lists_feasible_points() {
    let out = Command::new(BIN)
        .args(["dse", mini_json().to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("best feasible points"));
    assert!(stdout.contains("GFLOPS"));
}

/// Writes a live journal by firing a small plan through a journalling
/// handle, exactly as a chaos run would.
fn fired_journal(name: &str) -> PathBuf {
    use condor_faults::{FaultPlan, FaultRule};
    let path = scratch_path(name);
    let handle = FaultPlan::new(42)
        .rule(
            FaultRule::at("s3.put_object")
                .first_calls(2)
                .fail_transient(),
        )
        .rule(FaultRule::at("dataflow.pe0").nth_call(1).stall_cycles(64))
        .install_with_journal(&path)
        .expect("journal file");
    assert!(handle.check("s3.put_object").is_some());
    assert!(handle.check("s3.put_object").is_some());
    assert!(handle.timing("dataflow.pe0").is_none());
    assert!(handle.timing("dataflow.pe0").is_some());
    path
}

#[test]
fn faults_replay_reconstructs_the_fired_sequence() {
    let path = fired_journal("replay.journal");
    let out = Command::new(BIN)
        .args(["faults", "replay", path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("condor-faultlog/2"));
    assert!(stdout.contains("seed: 42"));
    assert!(stdout.contains("fired: 3 record(s)"));
    assert!(stdout.contains("s3.put_object call 0: fail-transient"));
    assert!(stdout.contains("dataflow.pe0 call 1: stall (arg 64)"));
    assert!(stdout.contains("replay plan: 3 rule(s)"));
    assert!(stdout.contains("stall(64)"));
}

#[test]
fn faults_replay_emits_a_plan_document_with_json() {
    let path = fired_journal("replay-json.journal");
    let out = Command::new(BIN)
        .args(["faults", "replay", path.to_str().unwrap(), "--json"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let doc = condor_cjson::parse(&stdout).expect("valid cjson plan document");
    assert_eq!(
        doc.get("schema").and_then(|v| v.as_str()),
        Some("condor-faultplan/1")
    );
    assert_eq!(
        doc.get("rules").and_then(|v| v.as_array()).map(|r| r.len()),
        Some(3)
    );
}

#[test]
fn faults_replay_reads_a_torn_journal_prefix() {
    let path = fired_journal("replay-torn.journal");
    let text = std::fs::read_to_string(&path).unwrap();
    let torn = &text[..text.trim_end().len() - 4];
    std::fs::write(&path, torn).unwrap();
    let out = Command::new(BIN)
        .args(["faults", "replay", path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("truncated"));
    assert!(stdout.contains("fired: 2 record(s)"));
}

#[test]
fn faults_replay_rejects_a_missing_journal() {
    let out = Command::new(BIN)
        .args(["faults", "replay", "/nonexistent/run.journal"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
}

/// The committed hostile-shape input: every command that reads a model
/// refuses it with the size gate's C017, in debug and in release,
/// instead of panicking on (or printing) an overflowed count.
#[test]
fn hostile_shape_is_refused_with_c017_by_info_check_and_build() {
    let model = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/inputs/hostile_shape.prototxt"
    );
    for cmd in ["info", "check", "build"] {
        let out = Command::new(BIN).args([cmd, model]).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{cmd}: {stderr}");
        assert!(stderr.contains("error C017"), "{cmd}: {stderr}");
        assert!(!stderr.contains("panicked"), "{cmd}: {stderr}");
    }
}
