//! Guard against silent de-vectorisation of the compute kernels.
//!
//! `condor-kernels` forbids `unsafe`, so its hot loops are vector code
//! only because LLVM's autovectoriser makes them so. A change that
//! defeats it still passes every test, only slower. [`run`] builds the
//! crate in release with `--emit asm` (into `target/asm`, beside the
//! normal build) and `check` requires:
//!
//! * exactly three copies of the f32 GEMM's `gemm_band`, which is
//!   generic over the source of its `B` slices (the dense matrix of
//!   `gemm`, the input of an implicit-GEMM convolution and the filter
//!   panels of the Winograd convolution) and kept out of line, and a
//!   packed 256-bit fused multiply-add (`vfmadd…ps` on `ymm` registers)
//!   in every one of them, so that no source can be inlined away or lose
//!   its vector FMAs unnoticed;
//! * a packed 256-bit fused multiply-add in `dot_rows`, the multi-row
//!   loop of the fully-connected layer's GEMV, which reduces eight rows
//!   of the weight matrix per pass;
//! * packed 256-bit arithmetic in each of the Winograd convolution's
//!   two transforms, `input_transform` and `output_transform`: at least
//!   one add or subtract (`vaddps` / `vsubps`) and at least one multiply
//!   or fused multiply-add (`vmulps` / `vf…madd…ps` / `vf…msub…ps`), all
//!   on `ymm` registers. F(4×4, 3×3) transforms scale by 2, 3, 4, 5 and 8
//!   as well as add, and a scalar transform passes every test while
//!   running several times slower;
//! * a `vpmaddwd` in `qgemm_band`, the int8 GEMM's one band routine
//!   (its widening dot product), so the int8 convolution cannot lose
//!   it while some other caller of the dot product keeps one.
//!
//! All are x86_64 mnemonics; on any other target the check is skipped.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The function whose every copy must hold packed fused multiply-adds.
const GEMM_FN: &str = "gemm_band";
/// Copies of [`GEMM_FN`] the listing must hold: one per source of `B`.
const GEMM_COPIES: usize = 3;
/// The multi-row GEMV loop, which must hold packed fused multiply-adds.
const GEMV_FN: &str = "dot_rows";
/// The Winograd transforms, each of which must hold packed adds or
/// subtracts and packed multiplies or fused multiply-adds.
const TRANSFORM_FNS: [&str; 2] = ["input_transform", "output_transform"];
/// The int8 GEMM's band routine, which must hold a `vpmaddwd`.
const QGEMM_FN: &str = "qgemm_band";

/// What `check` counted in one assembly listing.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Counts {
    /// Packed `ymm` `vfmadd…ps` instructions in each copy of
    /// `gemm_band`, in listing order.
    gemm_packed_fma: Vec<usize>,
    /// Packed `ymm` `vfmadd…ps` instructions in `dot_rows`.
    gemv_packed_fma: usize,
    /// Packed `ymm` `vaddps` / `vsubps` instructions in each of
    /// [`TRANSFORM_FNS`], in that order.
    transform_packed_add: [usize; 2],
    /// Packed `ymm` multiplies and fused multiply-adds in each of
    /// [`TRANSFORM_FNS`], in that order.
    transform_packed_mul: [usize; 2],
    /// `vpmaddwd` instructions in `qgemm_band`.
    vpmaddwd: usize,
}

/// Counts the vector instructions the kernels depend on in an AT&T
/// assembly listing of `condor-kernels`, and fails when the listing does
/// not hold exactly [`GEMM_COPIES`] copies of `gemm_band`, when any copy has no
/// packed FMA, when `dot_rows` is missing or has no packed FMA, when a
/// Winograd transform is missing or lacks a packed add or subtract or a
/// packed multiply or fused multiply-add, or when `qgemm_band` is
/// missing or has no `vpmaddwd`.
fn check(asm: &str) -> Result<Counts, String> {
    let bodies = function_bodies(asm, GEMM_FN);
    if bodies.len() != GEMM_COPIES {
        return Err(format!(
            "{} copies of `{GEMM_FN}` in the listing, want {GEMM_COPIES}, one per source \
             of B (inlined, renamed or a source added?)",
            bodies.len()
        ));
    }
    let gemv_packed_fma = only_body(asm, GEMV_FN)?
        .iter()
        .filter(|l| is_packed_ymm_fma(l))
        .count();
    if gemv_packed_fma == 0 {
        return Err(format!(
            "`{GEMV_FN}` holds no packed ymm vfmadd…ps: the multi-row GEMV went scalar"
        ));
    }
    let (mut transform_packed_add, mut transform_packed_mul) = ([0; 2], [0; 2]);
    for (at, name) in TRANSFORM_FNS.into_iter().enumerate() {
        let body = only_body(asm, name)?;
        transform_packed_add[at] = body.iter().filter(|l| is_packed_ymm_add(l)).count();
        transform_packed_mul[at] = body.iter().filter(|l| is_packed_ymm_mul(l)).count();
        if transform_packed_add[at] == 0 {
            return Err(format!(
                "`{name}` holds no packed ymm vaddps/vsubps: the Winograd transform went scalar"
            ));
        }
        if transform_packed_mul[at] == 0 {
            return Err(format!(
                "`{name}` holds no packed ymm vmulps/vfmadd…ps: the Winograd transform went scalar"
            ));
        }
    }
    let counts = Counts {
        gemm_packed_fma: bodies
            .iter()
            .map(|body| body.iter().filter(|l| is_packed_ymm_fma(l)).count())
            .collect(),
        gemv_packed_fma,
        transform_packed_add,
        transform_packed_mul,
        vpmaddwd: only_body(asm, QGEMM_FN)?
            .iter()
            .filter(|l| mnemonic(l) == "vpmaddwd")
            .count(),
    };
    if let Some(copy) = counts.gemm_packed_fma.iter().position(|&n| n == 0) {
        return Err(format!(
            "copy {} of {} of `{GEMM_FN}` holds no packed ymm vfmadd…ps: \
             the f32 GEMM lost its vector FMAs",
            copy + 1,
            bodies.len()
        ));
    }
    if counts.vpmaddwd == 0 {
        return Err(format!(
            "`{QGEMM_FN}` holds no vpmaddwd: the int8 GEMM lost its widening dot product"
        ));
    }
    Ok(counts)
}

/// The instruction lines of every function whose symbol has `name` as a
/// path segment, each from its label to its end marker. Both Rust
/// manglings encode a segment as its length followed by the name; the
/// copies of a generic function differ only in their hash suffix.
fn function_bodies<'a>(asm: &'a str, name: &str) -> Vec<Vec<&'a str>> {
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
    let is_end = |line: &&str| {
        let l = line.trim_start();
        l.starts_with(".Lfunc_end") || l.starts_with(".cfi_endproc")
    };
    let mut lines = asm.lines();
    let mut bodies = Vec::new();
    while lines.by_ref().any(is_label) {
        bodies.push(lines.by_ref().take_while(|l| !is_end(l)).collect());
    }
    bodies
}

/// The body of the one function in the listing named `name`; an error
/// when there is none or more than one.
fn only_body<'a>(asm: &'a str, name: &str) -> Result<Vec<&'a str>, String> {
    let mut bodies = function_bodies(asm, name);
    match bodies.pop() {
        Some(body) if bodies.is_empty() => Ok(body),
        _ => Err(format!(
            "want one copy of `{name}` in the listing (inlined, renamed or generic?)"
        )),
    }
}

fn mnemonic(line: &str) -> &str {
    line.split_whitespace().next().unwrap_or_default()
}

fn is_packed_ymm_fma(line: &str) -> bool {
    let op = mnemonic(line);
    op.starts_with("vfmadd") && op.ends_with("ps") && line.contains("%ymm")
}

fn is_packed_ymm_add(line: &str) -> bool {
    matches!(mnemonic(line), "vaddps" | "vsubps") && line.contains("%ymm")
}

/// A packed `ymm` multiply or fused multiply-add of any sign
/// (`vmulps`, `vfmadd…ps`, `vfnmadd…ps`, `vfmsub…ps`, `vfnmsub…ps`).
fn is_packed_ymm_mul(line: &str) -> bool {
    let op = mnemonic(line);
    let fused = ["vfmadd", "vfnmadd", "vfmsub", "vfnmsub"]
        .iter()
        .any(|p| op.starts_with(p));
    (op == "vmulps" || fused && op.ends_with("ps")) && line.contains("%ymm")
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
        "ok: the {} copies of `{GEMM_FN}` hold {:?} packed ymm FMAs, `{GEMV_FN}` holds {}, \
         `{}` and `{}` hold {:?} packed ymm adds and subtracts and {:?} multiplies and \
         FMAs, `{QGEMM_FN}` holds {} vpmaddwd ({})",
        counts.gemm_packed_fma.len(),
        counts.gemm_packed_fma,
        counts.gemv_packed_fma,
        TRANSFORM_FNS[0],
        TRANSFORM_FNS[1],
        counts.transform_packed_add,
        counts.transform_packed_mul,
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
    /// label, local labels inside the body, and the end markers. It holds
    /// three copies of `gemm_band`, as a generic function compiles to,
    /// one `dot_rows` and one `qgemm_band`, and a `vpmaddwd` outside
    /// `qgemm_band` as well.
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
_ZN14condor_kernels4gemm9gemm_band17hfedcba9876543210E:
\t.cfi_startproc
\tvfmadd231ps\t(%rsi), %ymm4, %ymm5
\tvaddss\t%xmm1, %xmm2, %xmm3
.Lfunc_end6:
\t.cfi_endproc
_ZN14condor_kernels4gemm9gemm_band17h00112233aabbccddE:
\t.cfi_startproc
\tvfmadd231ps\t64(%r8), %ymm6, %ymm7
\tvfmadd231ps\t96(%r8), %ymm6, %ymm8
\tvfmadd231ps\t128(%r8), %ymm6, %ymm9
.Lfunc_end11:
\t.cfi_endproc
_ZN14condor_kernels5qgemm10qgemm_band17h0123456789abcdefE:
\t.cfi_startproc
\tvpmaddwd\t(%rdi), %ymm1, %ymm2
\tvpmaddwd\t32(%rdi), %ymm1, %ymm3
\tvfmadd231ps\t%ymm1, %ymm2, %ymm3
.Lfunc_end7:
_ZN14condor_kernels5qgemm8qgemv_i817h0123456789abcdefE:
\t.cfi_startproc
\tvpmaddwd\t(%rsi), %ymm4, %ymm5
.Lfunc_end13:
_ZN14condor_kernels4gemm8dot_rows17h0123456789abcdefE:
\t.cfi_startproc
\tvfmadd231ps\t(%rdi,%rcx,4), %ymm8, %ymm0
\tvfmadd231ps\t(%rsi,%rcx,4), %ymm8, %ymm1
\tvfmadd231ss\t%xmm1, %xmm2, %xmm3
.Lfunc_end10:
_ZN14condor_kernels8winograd15input_transform17h0123456789abcdefE:
\t.cfi_startproc
\tvsubps\t(%rdx,%rcx,4), %ymm1, %ymm2
\tvaddps\t%ymm3, %ymm4, %ymm5
\tvsubss\t%xmm1, %xmm2, %xmm3
\tvfnmadd231ps\t-288(%rcx), %ymm13, %ymm0
\tvfmadd231ps\t-224(%rcx), %ymm14, %ymm0
\tvfmadd231ss\t%xmm1, %xmm2, %xmm3
.Lfunc_end8:
_ZN14condor_kernels8winograd16output_transform17h0123456789abcdefE:
\t.cfi_startproc
\tvaddps\t(%r10,%rcx,4), %ymm2, %ymm3
\tvaddss\t%xmm1, %xmm2, %xmm3
\tvmulps\t%ymm8, %ymm9, %ymm10
\tvmulss\t%xmm8, %xmm9, %xmm10
.Lfunc_end9:
";

    #[test]
    fn counts_packed_ymm_fmas_in_gemm_band_and_vpmaddwd_in_qgemm_band() {
        assert_eq!(
            check(LISTING),
            Ok(Counts {
                gemm_packed_fma: vec![2, 1, 3],
                gemv_packed_fma: 2,
                transform_packed_add: [2, 1],
                transform_packed_mul: [2, 1],
                vpmaddwd: 2
            })
        );
    }

    /// One copy whose only packed FMA went scalar, while the others
    /// keep theirs.
    #[test]
    fn one_scalar_copy_of_two_fails() {
        let scalar = LISTING.replace("vfmadd231ps\t(%rsi), %ymm4", "vmulss\t(%rsi), %xmm4");
        let err = check(&scalar).expect_err("the second copy lost its packed FMA");
        assert!(err.contains("copy 2 of 3"), "{err}");
    }

    #[test]
    fn a_single_copy_of_gemm_band_fails() {
        let one = LISTING
            .replace("9gemm_band17hfedcba", "9gemm_tile17hfedcba")
            .replace("9gemm_band17h0011", "9gemm_tile17h0011");
        let err = check(&one).expect_err("only one gemm_band left");
        assert!(err.contains("1 copies"), "{err}");
    }

    /// The check counts the copies the crate has, one per source of
    /// `B`: a source whose copy was inlined into its caller fails it,
    /// and so does a fourth source nobody added to the count.
    #[test]
    fn a_copy_of_gemm_band_more_or_less_fails() {
        let two = LISTING.replace("9gemm_band17h0011", "8run_part17h0011");
        let err = check(&two).expect_err("the panel copy was inlined");
        assert!(err.contains("2 copies") && err.contains("want 3"), "{err}");
        let fourth = "_ZN14condor_kernels4gemm9gemm_band17h99887766aabbccddE:\n\
                      \tvfmadd231ps\t(%rsi), %ymm4, %ymm5\n.Lfunc_end12:\n";
        let err = check(&format!("{LISTING}{fourth}")).expect_err("a fourth copy");
        assert!(err.contains("4 copies"), "{err}");
    }

    #[test]
    fn a_scalar_gemm_band_fails() {
        let scalar = LISTING.replace("vfmadd231ps\t%ymm12", "vmulss\t%xmm12");
        let scalar = scalar.replace("vfmadd231ps\t32(%rdx), %ymm12", "vaddss\t32(%rdx), %xmm12");
        let err = check(&scalar).expect_err("no packed FMA left in gemm_band");
        assert!(err.contains("gemm_band"), "{err}");
    }

    #[test]
    fn a_scalar_or_missing_dot_rows_fails() {
        let scalar = LISTING
            .replace(
                "vfmadd231ps\t(%rdi,%rcx,4), %ymm8, %ymm0",
                "vfmadd231ss\t(%rdi,%rcx,4), %xmm8, %xmm0",
            )
            .replace(
                "vfmadd231ps\t(%rsi,%rcx,4), %ymm8, %ymm1",
                "vfmadd231ss\t(%rsi,%rcx,4), %xmm8, %xmm1",
            );
        let err = check(&scalar).expect_err("the multi-row GEMV went scalar");
        assert!(err.contains("`dot_rows`"), "{err}");
        let inlined = LISTING.replace("8dot_rows17h", "10gemv_serial17h");
        let err = check(&inlined).expect_err("no dot_rows left");
        assert!(err.contains("`dot_rows`"), "{err}");
    }

    /// Both transforms compiled to scalar code, as first versions of
    /// them were: every add, subtract and fused multiply-add on one `xmm`
    /// lane.
    #[test]
    fn a_scalar_winograd_transform_fails() {
        let scalar = LISTING
            .replace(
                "vsubps\t(%rdx,%rcx,4), %ymm1, %ymm2",
                "vsubss\t(%rdx,%rcx,4), %xmm1, %xmm2",
            )
            .replace("vaddps\t%ymm3, %ymm4, %ymm5", "vaddss\t%xmm3, %xmm4, %xmm5")
            .replace(
                "vfnmadd231ps\t-288(%rcx), %ymm13, %ymm0",
                "vfnmadd231ss\t-288(%rcx), %xmm13, %xmm0",
            )
            .replace(
                "vfmadd231ps\t-224(%rcx), %ymm14, %ymm0",
                "vfmadd231ss\t-224(%rcx), %xmm14, %xmm0",
            );
        let err = check(&scalar).expect_err("the input transform went scalar");
        assert!(err.contains("`input_transform`"), "{err}");
        let scalar = LISTING
            .replace(
                "vaddps\t(%r10,%rcx,4), %ymm2, %ymm3",
                "vaddss\t(%r10,%rcx,4), %xmm2, %xmm3",
            )
            .replace(
                "vmulps\t%ymm8, %ymm9, %ymm10",
                "vmulss\t%xmm8, %xmm9, %xmm10",
            );
        let err = check(&scalar).expect_err("the output transform went scalar");
        assert!(err.contains("`output_transform`"), "{err}");
    }

    /// Packed adds alone do not pass: the transforms' multiplies and
    /// fused multiply-adds must be packed too.
    #[test]
    fn a_winograd_transform_with_scalar_multiplies_fails() {
        let scalar = LISTING
            .replace(
                "vfnmadd231ps\t-288(%rcx), %ymm13, %ymm0",
                "vfnmadd231ss\t-288(%rcx), %xmm13, %xmm0",
            )
            .replace(
                "vfmadd231ps\t-224(%rcx), %ymm14, %ymm0",
                "vfmadd231ss\t-224(%rcx), %xmm14, %xmm0",
            );
        let err = check(&scalar).expect_err("the input transform's FMAs went scalar");
        assert!(
            err.contains("`input_transform`") && err.contains("vmulps"),
            "{err}"
        );
        let scalar = LISTING.replace(
            "vmulps\t%ymm8, %ymm9, %ymm10",
            "vmulss\t%xmm8, %xmm9, %xmm10",
        );
        let err = check(&scalar).expect_err("the output transform's multiplies went scalar");
        assert!(
            err.contains("`output_transform`") && err.contains("vmulps"),
            "{err}"
        );
    }

    #[test]
    fn a_missing_winograd_transform_fails() {
        let inlined = LISTING.replace("16output_transform17h", "12winograd_on17h");
        let err = check(&inlined).expect_err("no output_transform left");
        assert!(err.contains("`output_transform`"), "{err}");
    }

    #[test]
    fn a_crate_without_vpmaddwd_fails() {
        let err = check(&LISTING.replace("vpmaddwd", "vpmullw")).expect_err("no vpmaddwd left");
        assert!(err.contains("vpmaddwd"), "{err}");
    }

    /// A `vpmaddwd` elsewhere in the crate does not stand in for the
    /// band routine's: `qgemm_band` without one fails, and so does a
    /// listing where it was inlined away.
    #[test]
    fn a_vpmaddwd_outside_qgemm_band_fails() {
        let scalar = LISTING
            .replace("vpmaddwd\t(%rdi)", "vpmulld\t(%rdi)")
            .replace("vpmaddwd\t32(%rdi)", "vpaddd\t32(%rdi)");
        let err = check(&scalar).expect_err("qgemm_band lost its vpmaddwd");
        assert!(err.contains("`qgemm_band`"), "{err}");
        let inlined = LISTING.replace("10qgemm_band17h", "15gemm_i8_requant17h");
        let err = check(&inlined).expect_err("no qgemm_band left");
        assert!(err.contains("`qgemm_band`"), "{err}");
    }

    #[test]
    fn a_missing_or_differently_named_gemm_band_fails() {
        for renamed in ["9gemm_tile", "19gemm_band"] {
            let listing = LISTING.replace("9gemm_band", renamed);
            assert!(check(&listing).is_err(), "{renamed}");
        }
    }
}
