//! Repo tooling entry point.
//!
//! ```text
//! cargo run -p xtask                  # regenerate committed snapshots
//! cargo run -p xtask -- audit         # static invariant audit (text)
//! cargo run -p xtask -- audit --json  # JSON report on stdout
//! cargo run -p xtask -- asm           # kernels still vectorised (x86_64)
//! ```
//!
//! `audit` exits non-zero when the tree has any finding; the same check
//! runs as a unit test, so `cargo test -q` gates it too. `asm` exits
//! non-zero when a release build of `condor-kernels` lost the vector
//! instructions its GEMMs depend on; it builds the crate, so CI runs it
//! as its own step.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("audit") => {
            let json = args.iter().any(|a| a == "--json");
            if let Some(bad) = args[1..].iter().find(|a| *a != "--json") {
                eprintln!("xtask audit: unknown flag `{bad}` (supported: --json)");
                return ExitCode::from(2);
            }
            audit(json)
        }
        Some("asm") => match xtask::asm::run(&xtask::repo_root()) {
            Ok(line) => {
                println!("xtask asm: {line}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("xtask asm: {e}");
                ExitCode::FAILURE
            }
        },
        Some(other) => {
            eprintln!("xtask: unknown command `{other}` (supported: audit, asm, or no command to regenerate snapshots)");
            ExitCode::from(2)
        }
        None => {
            bless();
            ExitCode::SUCCESS
        }
    }
}

fn audit(json: bool) -> ExitCode {
    let report = xtask::audit::run(&xtask::audit::AuditConfig::repo());
    if json {
        println!("{}", report.to_json_string());
        eprintln!("{}", report.render().lines().last().unwrap_or_default());
    } else {
        println!("{}", report.render());
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Regenerates every committed snapshot under `crates/xtask/api/`: the
/// public-API surfaces of the tracked crates plus the diagnostic-code
/// compatibility snapshot.
fn bless() {
    std::fs::create_dir_all(xtask::repo_root().join("crates/xtask/api"))
        .expect("api snapshot dir is creatable");
    for (name, src_dir) in xtask::TRACKED {
        let current = xtask::surface(&xtask::repo_root().join(src_dir));
        let path = xtask::snapshot_path(name);
        std::fs::write(&path, &current).expect("snapshot file is writable");
        println!(
            "wrote {} ({} items)",
            path.display(),
            current.lines().count()
        );
    }
    let codes = xtask::diag_code_snapshot();
    let path = xtask::snapshot_path("diag-codes");
    std::fs::write(&path, &codes).expect("snapshot file is writable");
    println!("wrote {} ({} codes)", path.display(), codes.lines().count());
}
