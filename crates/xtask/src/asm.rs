//! Guard against silent de-vectorisation of the compute kernels.
//!
//! `condor-kernels` forbids `unsafe`, so its hot loops are vector code
//! only because LLVM's autovectoriser makes them so. A change that
//! defeats it still passes every test, only slower. [`run`] builds the
//! crate in release with `--emit asm` (into `target/asm`, beside the
//! normal build) and `check` requires:
//!
//! * a packed 256-bit fused multiply-add (`vfmadd…ps` on `ymm`
//!   registers) in the f32 GEMM's `gemm_band`;
//! * a `vpmaddwd` anywhere in the crate (the int8 GEMM's widening dot
//!   product).
//!
//! Both are x86_64 mnemonics; on any other target the check is skipped.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The function whose body must hold packed fused multiply-adds.
const GEMM_FN: &str = "gemm_band";

/// What `check` counted in one assembly listing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Counts {
    /// Packed `ymm` `vfmadd…ps` instructions in `gemm_band`.
    gemm_packed_fma: usize,
    /// `vpmaddwd` instructions anywhere in the listing.
    vpmaddwd: usize,
}

/// Counts the vector instructions the kernels depend on in an AT&T
/// assembly listing of `condor-kernels`, and fails when either count is
/// zero or `gemm_band` is not in the listing.
fn check(asm: &str) -> Result<Counts, String> {
    let body = function_body(asm, GEMM_FN)
        .ok_or_else(|| format!("no function `{GEMM_FN}` in the listing (inlined or renamed?)"))?;
    let counts = Counts {
        gemm_packed_fma: body.iter().filter(|l| is_packed_ymm_fma(l)).count(),
        vpmaddwd: asm.lines().filter(|l| mnemonic(l) == "vpmaddwd").count(),
    };
    if counts.gemm_packed_fma == 0 {
        return Err(format!(
            "`{GEMM_FN}` holds no packed ymm vfmadd…ps: the f32 GEMM lost its vector FMAs"
        ));
    }
    if counts.vpmaddwd == 0 {
        return Err(
            "condor-kernels holds no vpmaddwd: the int8 GEMM lost its widening dot product"
                .to_string(),
        );
    }
    Ok(counts)
}

/// The instruction lines of the function whose symbol has `name` as a
/// path segment, from its label to its end marker. Both Rust manglings
/// encode a segment as its length followed by the name.
fn function_body<'a>(asm: &'a str, name: &str) -> Option<Vec<&'a str>> {
    let segment = format!("{}{name}", name.len());
    let is_label = |line: &str| {
        let Some(label) = line.strip_suffix(':') else {
            return false;
        };
        !line.starts_with(char::is_whitespace)
            && label
                .match_indices(&segment)
                .any(|(at, _)| !label[..at].ends_with(|c: char| c.is_ascii_digit()))
    };
    let mut lines = asm.lines().skip_while(|l| !is_label(l));
    lines.next()?;
    Some(
        lines
            .take_while(|l| {
                let l = l.trim_start();
                !(l.starts_with(".Lfunc_end") || l.starts_with(".cfi_endproc"))
            })
            .collect(),
    )
}

fn mnemonic(line: &str) -> &str {
    line.split_whitespace().next().unwrap_or_default()
}

fn is_packed_ymm_fma(line: &str) -> bool {
    let op = mnemonic(line);
    op.starts_with("vfmadd") && op.ends_with("ps") && line.contains("%ymm")
}

/// Builds `condor-kernels` in release with `--emit asm` under
/// `<root>/target/asm` and runs `check` on the listing. Returns the
/// line to print on success.
pub fn run(root: &Path) -> Result<String, String> {
    if !cfg!(target_arch = "x86_64") {
        return Ok(format!(
            "skipped: the check reads x86_64 mnemonics, this target is {}",
            std::env::consts::ARCH
        ));
    }
    let target_dir = root.join("target/asm");
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .current_dir(root)
        .args([
            "rustc",
            "--release",
            "--quiet",
            "-p",
            "condor-kernels",
            "--lib",
        ])
        .arg("--target-dir")
        .arg(&target_dir)
        .args(["--", "--emit", "asm"])
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!(
            "building condor-kernels with --emit asm failed ({status})"
        ));
    }
    let listing = newest_listing(&target_dir.join("release/deps"))?;
    let asm = fs::read_to_string(&listing)
        .map_err(|e| format!("cannot read {}: {e}", listing.display()))?;
    let counts = check(&asm)?;
    Ok(format!(
        "ok: `{GEMM_FN}` holds {} packed ymm FMAs, condor-kernels holds {} vpmaddwd ({})",
        counts.gemm_packed_fma,
        counts.vpmaddwd,
        listing.display()
    ))
}

/// The most recently written `condor_kernels-*.s` in `deps`.
fn newest_listing(deps: &Path) -> Result<PathBuf, String> {
    fs::read_dir(deps)
        .map_err(|e| format!("cannot list {}: {e}", deps.display()))?
        .flatten()
        .filter(|e| {
            let name = e.file_name();
            let name = name.to_string_lossy();
            name.starts_with("condor_kernels-") && name.ends_with(".s")
        })
        .max_by_key(|e| e.metadata().and_then(|m| m.modified()).ok())
        .map(|e| e.path())
        .ok_or_else(|| format!("no condor_kernels-*.s under {}", deps.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Shaped like rustc's output: a section line naming the symbol, the
    /// label, local labels inside the body, and the end markers.
    const LISTING: &str = "\
\t.section\t.text._ZN14condor_kernels4gemm9gemm_band17h0123456789abcdefE,\"ax\",@progbits
_ZN14condor_kernels4gemm9gemm_band17h0123456789abcdefE:
\t.cfi_startproc
\tvbroadcastss\t(%rax), %ymm12
\tvfmadd231ps\t%ymm12, %ymm13, %ymm0
.LBB5_3:
\tvfmadd231ps\t32(%rdx), %ymm12, %ymm1
\tvfmadd231ss\t%xmm1, %xmm2, %xmm3
\tvfmadd213ps\t%xmm1, %xmm2, %xmm3
\tretq
.Lfunc_end5:
\t.size\t_ZN14condor_kernels4gemm9gemm_band17h0123456789abcdefE, .Lfunc_end5-_ZN14condor_kernels4gemm9gemm_band17h0123456789abcdefE
\t.cfi_endproc
_ZN14condor_kernels5qgemm6dot_i1617h0123456789abcdefE:
\tvpmaddwd\t(%rdi), %ymm1, %ymm2
\tvfmadd231ps\t%ymm1, %ymm2, %ymm3
.Lfunc_end6:
";

    #[test]
    fn counts_packed_ymm_fmas_in_gemm_band_and_vpmaddwd_anywhere() {
        assert_eq!(
            check(LISTING),
            Ok(Counts {
                gemm_packed_fma: 2,
                vpmaddwd: 1
            })
        );
    }

    #[test]
    fn a_scalar_gemm_band_fails() {
        let scalar = LISTING.replace("vfmadd231ps\t%ymm12", "vmulss\t%xmm12");
        let scalar = scalar.replace("vfmadd231ps\t32(%rdx), %ymm12", "vaddss\t32(%rdx), %xmm12");
        let err = check(&scalar).expect_err("no packed FMA left in gemm_band");
        assert!(err.contains("gemm_band"), "{err}");
    }

    #[test]
    fn a_crate_without_vpmaddwd_fails() {
        let err = check(&LISTING.replace("vpmaddwd", "vpmullw")).expect_err("no vpmaddwd left");
        assert!(err.contains("vpmaddwd"), "{err}");
    }

    #[test]
    fn a_missing_or_differently_named_gemm_band_fails() {
        for renamed in ["9gemm_tile", "19gemm_band"] {
            let listing = LISTING.replace("9gemm_band", renamed);
            assert!(check(&listing).is_err(), "{renamed}");
        }
    }
}
