//! The canonical fault-site registry.
//!
//! Every injection site the substrate consults — each string passed to
//! [`FaultHandle::gate`](crate::FaultHandle::gate),
//! [`FaultHandle::check`](crate::FaultHandle::check) or
//! [`FaultHandle::timing`](crate::FaultHandle::timing) by the cloud,
//! deploy, dataflow and serving layers — must appear here, and every
//! entry here must be exercised somewhere. `cargo run -p xtask audit`
//! enforces both directions statically (diagnostics `X001`–`X003`), so
//! a typo'd site can no longer compile into a rule that silently never
//! fires.
//!
//! Entries are *templates*: a `{}` placeholder stands for a run of
//! decimal digits chosen at runtime (`dataflow.pe{}` covers
//! `dataflow.pe0`, `dataflow.pe17`, …). The matching functions below
//! define the template semantics; they are the single implementation
//! the audit and any runtime assertion share.
//!
//! To add a site: wire the `gate`/`check`/`timing` call, add a
//! [`SiteSpec`] row here (grouped by layer), and re-run the audit. The
//! registry is append-only — renaming a site breaks every committed
//! fault plan and journal that mentions it.

/// One registered injection site (or site template).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SiteSpec {
    /// Site name; `{}` matches one-or-more decimal digits.
    pub name: &'static str,
    /// The layer that owns the site (`"cloud"`, `"core"`, …).
    pub layer: &'static str,
    /// What the site intercepts.
    pub doc: &'static str,
}

/// Every injection site the substrate consults, grouped by layer.
pub const SITES: &[SiteSpec] = &[
    SiteSpec {
        name: "s3.put_object",
        layer: "cloud",
        doc: "upload of a build artifact to the model bucket",
    },
    SiteSpec {
        name: "s3.get_object",
        layer: "cloud",
        doc: "download of a build artifact from the model bucket",
    },
    SiteSpec {
        name: "afi.create_fpga_image",
        layer: "cloud",
        doc: "the CreateFpgaImage API call itself",
    },
    SiteSpec {
        name: "afi.generation",
        layer: "cloud",
        doc: "outcome of the asynchronous AFI generation job",
    },
    SiteSpec {
        name: "f1.load_afi",
        layer: "cloud",
        doc: "programming an AFI into an F1 slot",
    },
    SiteSpec {
        name: "f1.clear_slot",
        layer: "cloud",
        doc: "clearing a previously programmed F1 slot",
    },
    SiteSpec {
        name: "sdaccel.xocc_link",
        layer: "core",
        doc: "the on-premise xocc link step",
    },
    SiteSpec {
        name: "sdaccel.program",
        layer: "core",
        doc: "programming the on-premise board",
    },
    SiteSpec {
        name: "dataflow.datamover",
        layer: "dataflow",
        doc: "datamover transfers (functional) and per-burst timing",
    },
    SiteSpec {
        name: "dataflow.pe{}",
        layer: "dataflow",
        doc: "one processing element's stream worker (functional + timing)",
    },
    SiteSpec {
        name: "serve.backend{}",
        layer: "serve",
        doc: "one serving lane's backend execution",
    },
    SiteSpec {
        name: "fleet{}g{}.serve.backend{}",
        layer: "serve",
        doc: "a fleet instance's serving lane, prefixed per replica and generation",
    },
    SiteSpec {
        name: "queue.append",
        layer: "queue",
        doc: "writing one record frame into the disk-backed admission queue",
    },
    SiteSpec {
        name: "queue.fsync",
        layer: "queue",
        doc: "flushing a queue segment or ack journal to stable storage",
    },
    SiteSpec {
        name: "queue.checkpoint",
        layer: "queue",
        doc: "writing the atomic reader checkpoint (tmp write + rename)",
    },
    SiteSpec {
        name: "queue.segment_rotate",
        layer: "queue",
        doc: "closing a full queue segment and opening its successor",
    },
    SiteSpec {
        name: "shed.codel",
        layer: "serve",
        doc: "forces a CoDel shed decision on the next admission-queue dequeue",
    },
    SiteSpec {
        name: "breaker.probe",
        layer: "serve",
        doc: "suppresses half-open breaker probes while firing (holds a breaker open)",
    },
];

/// Collapses every `{...}` placeholder (named format captures included)
/// to the canonical bare `{}`, so `"dataflow.pe{idx}"` compares equal
/// to the registered `"dataflow.pe{}"`.
fn normalize(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '{' {
            for inner in chars.by_ref() {
                if inner == '}' {
                    break;
                }
            }
            out.push_str("{}");
        } else {
            out.push(c);
        }
    }
    out
}

/// True when `s` (a concrete site, or a `{}`-normalized template) is an
/// instance of template `t`: literal characters match exactly and each
/// `{}` in `t` consumes either one-or-more decimal digits of `s` or a
/// `{}` of `s`.
pub fn template_matches(s: &str, t: &str) -> bool {
    match_impl(normalize(s).as_bytes(), normalize(t).as_bytes(), false)
}

/// True when `p` is a prefix of *some* expansion of template `t` — the
/// relation a [`FaultRule`](crate::FaultRule) site prefix needs to ever
/// fire at a site registered as `t`.
pub fn template_prefix_matches(p: &str, t: &str) -> bool {
    match_impl(normalize(p).as_bytes(), normalize(t).as_bytes(), true)
}

fn match_impl(s: &[u8], t: &[u8], prefix: bool) -> bool {
    if s.is_empty() {
        return prefix || t.is_empty();
    }
    if t.is_empty() {
        return false;
    }
    if t[0] == b'{' && t.get(1) == Some(&b'}') {
        if s[0] == b'{' && s.get(1) == Some(&b'}') {
            return match_impl(&s[2..], &t[2..], prefix);
        }
        let digits = s.iter().take_while(|c| c.is_ascii_digit()).count();
        if digits == 0 {
            return false;
        }
        // A prefix ending inside the digit run is a prefix of some
        // longer expansion.
        if prefix && digits == s.len() {
            return true;
        }
        (1..=digits).any(|i| match_impl(&s[i..], &t[2..], prefix))
    } else {
        s[0] == t[0] && match_impl(&s[1..], &t[1..], prefix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_well_formed() {
        let mut names: Vec<_> = SITES.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), SITES.len());
        for s in SITES {
            assert!(
                s.name
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || "._{}".contains(c)),
                "site {} has unexpected characters",
                s.name
            );
            assert!(!s.doc.is_empty());
            assert!(!s.layer.is_empty());
        }
    }

    #[test]
    fn normalization_collapses_named_placeholders() {
        assert_eq!(normalize("dataflow.pe{idx}"), "dataflow.pe{}");
        assert_eq!(normalize("{}serve.backend{idx}"), "{}serve.backend{}");
        assert_eq!(normalize("plain.site"), "plain.site");
    }

    #[test]
    fn concrete_sites_match_their_templates() {
        assert!(template_matches("dataflow.pe0", "dataflow.pe{}"));
        assert!(template_matches("dataflow.pe17", "dataflow.pe{}"));
        assert!(template_matches("serve.backend3", "serve.backend{}"));
        assert!(template_matches(
            "fleet0g12.serve.backend1",
            "fleet{}g{}.serve.backend{}"
        ));
        assert!(template_matches("s3.put_object", "s3.put_object"));
        assert!(!template_matches("s3.putobject", "s3.put_object"));
        assert!(!template_matches("dataflow.pe", "dataflow.pe{}"));
        assert!(!template_matches("dataflow.peX", "dataflow.pe{}"));
    }

    #[test]
    fn template_literals_match_templates() {
        assert!(template_matches("dataflow.pe{idx}", "dataflow.pe{}"));
        assert!(template_matches("serve.backend{lane}", "serve.backend{}"));
        assert!(!template_matches("serve.backend{lane}", "dataflow.pe{}"));
    }

    #[test]
    fn prefixes_match_expansions() {
        assert!(template_prefix_matches("s3.", "s3.put_object"));
        assert!(template_prefix_matches("dataflow.pe", "dataflow.pe{}"));
        assert!(template_prefix_matches("dataflow.pe0", "dataflow.pe{}"));
        assert!(template_prefix_matches(
            "fleet0g0.serve.",
            "fleet{}g{}.serve.backend{}"
        ));
        assert!(template_prefix_matches(
            "serve.backend{lane}",
            "serve.backend{}"
        ));
        assert!(!template_prefix_matches("s4.", "s3.put_object"));
        assert!(!template_prefix_matches("dataflow.px", "dataflow.pe{}"));
    }

    #[test]
    fn registry_lookups() {
        let is_registered = |site: &str| SITES.iter().any(|s| template_matches(site, s.name));
        let prefix_is_registered =
            |p: &str| SITES.iter().any(|s| template_prefix_matches(p, s.name));
        assert!(is_registered("s3.put_object"));
        assert!(is_registered("dataflow.pe4"));
        assert!(!is_registered("s3.putobject"));
        assert!(prefix_is_registered("fleet0g0.serve."));
        assert!(prefix_is_registered("serve.backend"));
        assert!(!prefix_is_registered("nosuch."));
    }
}
