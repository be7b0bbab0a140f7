//! Structured diagnostics: stable codes, severities and rendering.
//!
//! Every condition `condor check` can report carries a stable `C0xx`
//! code (the compatibility surface scripts and CI may match on), a
//! severity, the offending layer or module when known, and a fix hint.
//! Codes are never renumbered or repurposed — new conditions get new
//! codes (see DESIGN.md, "Static verification").

use condor_cjson::Value;
use condor_dataflow::{DataflowError, DataflowErrorKind};
use condor_nn::{NnErrorKind, ShapeErrorKind};
use std::fmt;

/// How serious a finding is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational; never blocks a build.
    Note,
    /// Suspicious but buildable; recorded in the build report.
    Warning,
    /// The plan cannot work; the build flow aborts before HLS codegen.
    Error,
}

impl Severity {
    /// Lower-case label used in rendered output and JSON.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Stable diagnostic codes.
///
/// Grouped by pass: `C00x` network structure, `C01x` shape/stream
/// typing, `C02x` SDF/FIFO analysis, `C03x` resource budgets, `C04x`
/// dataflow-graph (DAG) structure.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Code {
    /// Network has no computational layers.
    C001,
    /// A layer has an empty name.
    C002,
    /// Two layers share a name.
    C003,
    /// An `Input` layer appears after position 0.
    C004,
    /// A hyper-parameter makes a layer meaningless (zero kernel, ...).
    C010,
    /// A sliding window exceeds the (padded) input extent.
    C011,
    /// A layer needs a flat `1×1` stream but receives a feature map.
    C012,
    /// Installed weights disagree with the declared layer shape.
    C013,
    /// A weight-bearing layer has no weights installed.
    C014,
    /// Weight fan-in does not match the layer's input channels.
    C015,
    /// Unclassified error propagated from a lower layer.
    C016,
    /// The plan maps no PEs.
    C020,
    /// A parallelism degree or stream width is zero.
    C021,
    /// Parallelism exceeds the available feature maps (will be clamped).
    C022,
    /// A filter-chain FIFO is shallower than the spatial-distance rule
    /// requires.
    C023,
    /// The filter chain cannot hold one full window: static deadlock.
    C024,
    /// The plan's layer topology disagrees with the network.
    C025,
    /// The datamover bounds the initiation interval.
    C026,
    /// A filter-chain FIFO is deeper than required (wasted BRAM).
    C027,
    /// An inter-PE stream crosses a precision boundary (int8 PE feeding
    /// an f32 PE or vice versa): a format converter is synthesised on
    /// the edge, costing resources and one pipeline stage.
    C028,
    /// The design exceeds the board's usable resources.
    C030,
    /// A single module alone exceeds the whole board budget.
    C031,
    /// Utilisation above 90 % — placement/routing risk.
    C032,
    /// The requested clock is not achievable for this design size.
    C033,
    /// The plan names a board missing from the catalog.
    C034,
    /// A non-output node's result is consumed by no one (dangling
    /// branch — its compute would be synthesised and thrown away).
    C040,
    /// A merge layer's input shapes disagree (concat spatial extents,
    /// eltwise operand shapes).
    C041,
    /// A node's fan-in is impossible for its kind (merge with one
    /// input, unary layer with two, `Input` with any).
    C042,
    /// The two sides of a fork/join produce tokens at different rates,
    /// forcing the join to stall and buffer (SDF rate imbalance).
    C043,
}

impl Code {
    /// Every defined code, in numeric order.
    pub const ALL: &'static [Code] = &[
        Code::C001,
        Code::C002,
        Code::C003,
        Code::C004,
        Code::C010,
        Code::C011,
        Code::C012,
        Code::C013,
        Code::C014,
        Code::C015,
        Code::C016,
        Code::C020,
        Code::C021,
        Code::C022,
        Code::C023,
        Code::C024,
        Code::C025,
        Code::C026,
        Code::C027,
        Code::C028,
        Code::C030,
        Code::C031,
        Code::C032,
        Code::C033,
        Code::C034,
        Code::C040,
        Code::C041,
        Code::C042,
        Code::C043,
    ];

    /// The stable code string (`"C011"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Code::C001 => "C001",
            Code::C002 => "C002",
            Code::C003 => "C003",
            Code::C004 => "C004",
            Code::C010 => "C010",
            Code::C011 => "C011",
            Code::C012 => "C012",
            Code::C013 => "C013",
            Code::C014 => "C014",
            Code::C015 => "C015",
            Code::C016 => "C016",
            Code::C020 => "C020",
            Code::C021 => "C021",
            Code::C022 => "C022",
            Code::C023 => "C023",
            Code::C024 => "C024",
            Code::C025 => "C025",
            Code::C026 => "C026",
            Code::C027 => "C027",
            Code::C028 => "C028",
            Code::C030 => "C030",
            Code::C031 => "C031",
            Code::C032 => "C032",
            Code::C033 => "C033",
            Code::C034 => "C034",
            Code::C040 => "C040",
            Code::C041 => "C041",
            Code::C042 => "C042",
            Code::C043 => "C043",
        }
    }

    /// One-line meaning, used by `condor check --explain` style output
    /// and the documentation table.
    pub fn summary(self) -> &'static str {
        match self {
            Code::C001 => "network has no computational layers",
            Code::C002 => "layer with empty name",
            Code::C003 => "duplicate layer name",
            Code::C004 => "Input layer not first",
            Code::C010 => "invalid layer hyper-parameter",
            Code::C011 => "window exceeds input extent",
            Code::C012 => "non-flat stream into flat-only layer",
            Code::C013 => "weight shape mismatch",
            Code::C014 => "missing weights",
            Code::C015 => "weight fan-in / channel mismatch",
            Code::C016 => "unclassified error",
            Code::C020 => "plan maps no PEs",
            Code::C021 => "zero parallelism or stream width",
            Code::C022 => "parallelism exceeds feature maps",
            Code::C023 => "FIFO undersized for spatial distance",
            Code::C024 => "filter chain deadlock (window does not fit)",
            Code::C025 => "plan topology disagrees with network",
            Code::C026 => "datamover bounds initiation interval",
            Code::C027 => "FIFO deeper than required",
            Code::C028 => "mixed-precision stream needs a converter",
            Code::C030 => "design exceeds board resource budget",
            Code::C031 => "single module exceeds board budget",
            Code::C032 => "utilisation above 90%",
            Code::C033 => "requested clock not achievable",
            Code::C034 => "unknown board",
            Code::C040 => "dangling node (result never consumed)",
            Code::C041 => "merge input shapes disagree",
            Code::C042 => "impossible fan-in for layer kind",
            Code::C043 => "unbalanced fork/join token rates",
        }
    }

    /// The severity this code reports at.
    pub fn severity(self) -> Severity {
        match self {
            Code::C014
            | Code::C022
            | Code::C027
            | Code::C028
            | Code::C032
            | Code::C033
            | Code::C043 => Severity::Warning,
            Code::C026 => Severity::Note,
            _ => Severity::Error,
        }
    }

    /// Maps a typed network error onto its diagnostic code.
    pub fn from_nn_kind(kind: NnErrorKind) -> Code {
        match kind {
            NnErrorKind::NoComputeLayers => Code::C001,
            NnErrorKind::EmptyLayerName => Code::C002,
            NnErrorKind::DuplicateLayerName => Code::C003,
            NnErrorKind::InputNotFirst => Code::C004,
            NnErrorKind::Shape(ShapeErrorKind::BadHyperParam) => Code::C010,
            NnErrorKind::Shape(ShapeErrorKind::WindowExceedsInput) => Code::C011,
            NnErrorKind::Shape(ShapeErrorKind::NonFlatStream) => Code::C012,
            NnErrorKind::Shape(ShapeErrorKind::MergeMismatch) => Code::C041,
            NnErrorKind::Shape(ShapeErrorKind::WrongArity) | NnErrorKind::BadFanIn => Code::C042,
            NnErrorKind::WeightShape => Code::C013,
            NnErrorKind::MissingWeights => Code::C014,
            NnErrorKind::InputMismatch => Code::C015,
            NnErrorKind::UnknownLayer => Code::C025,
            NnErrorKind::Other => Code::C016,
        }
    }

    /// Maps a typed dataflow error onto its diagnostic code.
    pub fn from_dataflow_kind(kind: DataflowErrorKind) -> Code {
        match kind {
            DataflowErrorKind::Plan => Code::C021,
            DataflowErrorKind::Nn(k) => Code::from_nn_kind(k),
            DataflowErrorKind::Execution | DataflowErrorKind::Simulation => Code::C016,
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding.
#[derive(Clone, Debug, PartialEq)]
pub struct Diagnostic {
    /// Stable code.
    pub code: Code,
    /// Severity (defaults to the code's severity).
    pub severity: Severity,
    /// Offending layer, PE or module, when known.
    pub site: Option<String>,
    /// Human-readable description.
    pub message: String,
    /// Suggested fix, when one exists.
    pub hint: Option<String>,
}

impl Diagnostic {
    /// A finding at the code's default severity.
    pub fn new(code: Code, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: code.severity(),
            site: None,
            message: message.into(),
            hint: None,
        }
    }

    /// Attaches the offending layer/PE/module name.
    #[must_use]
    pub fn at(mut self, site: impl Into<String>) -> Self {
        self.site = Some(site.into());
        self
    }

    /// Attaches a fix hint.
    #[must_use]
    pub fn hint(mut self, hint: impl Into<String>) -> Self {
        self.hint = Some(hint.into());
        self
    }

    /// Wraps a typed dataflow error.
    pub fn from_dataflow_error(e: &DataflowError) -> Self {
        let code = Code::from_dataflow_kind(e.kind);
        Diagnostic {
            code,
            severity: code.severity(),
            site: None,
            message: e.message.clone(),
            hint: None,
        }
    }

    /// Renders the finding as one (or two, with a hint) lines.
    pub fn render(&self) -> String {
        let site = self
            .site
            .as_deref()
            .map(|s| format!(" [{s}]"))
            .unwrap_or_default();
        let mut out = format!("{} {}{}: {}", self.severity, self.code, site, self.message);
        if let Some(h) = &self.hint {
            out.push_str(&format!("\n    hint: {h}"));
        }
        out
    }

    /// JSON form of the finding.
    pub fn to_json(&self) -> Value {
        let mut pairs = vec![
            ("code".to_string(), Value::str(self.code.as_str())),
            ("severity".to_string(), Value::str(self.severity.label())),
            ("message".to_string(), Value::str(self.message.clone())),
        ];
        if let Some(site) = &self.site {
            pairs.push(("site".to_string(), Value::str(site.clone())));
        }
        if let Some(hint) = &self.hint {
            pairs.push(("hint".to_string(), Value::str(hint.clone())));
        }
        Value::object(pairs)
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// An ordered collection of findings.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Diagnostics {
    items: Vec<Diagnostic>,
}

impl Diagnostics {
    /// An empty collection.
    pub fn new() -> Self {
        Diagnostics::default()
    }

    /// Records a finding.
    pub fn push(&mut self, d: Diagnostic) {
        self.items.push(d);
    }

    /// Appends every finding from another collection.
    pub fn merge(&mut self, other: Diagnostics) {
        self.items.extend(other.items);
    }

    /// All findings in discovery order.
    pub fn iter(&self) -> impl Iterator<Item = &Diagnostic> {
        self.items.iter()
    }

    /// Number of findings.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when nothing was found.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// True when at least one error-severity finding exists.
    pub fn has_errors(&self) -> bool {
        self.error_count() > 0
    }

    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.items
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity findings.
    pub fn warning_count(&self) -> usize {
        self.items
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }

    /// Stable code strings of every finding, in discovery order.
    pub fn codes(&self) -> Vec<&'static str> {
        self.items.iter().map(|d| d.code.as_str()).collect()
    }

    /// True when some finding carries the given code.
    pub fn has_code(&self, code: Code) -> bool {
        self.items.iter().any(|d| d.code == code)
    }

    /// Human-readable rendering, one finding per line (plus hints).
    pub fn render(&self) -> String {
        self.items
            .iter()
            .map(|d| format!("  {}", d.render()))
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// JSON array of findings.
    pub fn to_json(&self) -> Value {
        Value::Array(self.items.iter().map(Diagnostic::to_json).collect())
    }
}

impl IntoIterator for Diagnostics {
    type Item = Diagnostic;
    type IntoIter = std::vec::IntoIter<Diagnostic>;
    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter()
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;

    #[test]
    fn codes_are_unique_and_stable() {
        let mut strs: Vec<_> = Code::ALL.iter().map(|c| c.as_str()).collect();
        strs.sort_unstable();
        strs.dedup();
        assert_eq!(strs.len(), Code::ALL.len());
        assert_eq!(Code::C011.as_str(), "C011");
        assert_eq!(Code::C030.as_str(), "C030");
    }

    #[test]
    fn severities_by_group() {
        assert_eq!(Code::C011.severity(), Severity::Error);
        assert_eq!(Code::C014.severity(), Severity::Warning);
        assert_eq!(Code::C026.severity(), Severity::Note);
        assert_eq!(Code::C030.severity(), Severity::Error);
    }

    #[test]
    fn nn_kind_mapping_covers_shape_kinds() {
        assert_eq!(
            Code::from_nn_kind(NnErrorKind::Shape(ShapeErrorKind::WindowExceedsInput)),
            Code::C011
        );
        assert_eq!(Code::from_nn_kind(NnErrorKind::MissingWeights), Code::C014);
        assert_eq!(
            Code::from_dataflow_kind(DataflowErrorKind::Nn(NnErrorKind::DuplicateLayerName)),
            Code::C003
        );
        assert_eq!(
            Code::from_dataflow_kind(DataflowErrorKind::Plan),
            Code::C021
        );
    }

    #[test]
    fn dag_codes_map_from_graph_errors() {
        assert_eq!(
            Code::from_nn_kind(NnErrorKind::Shape(ShapeErrorKind::MergeMismatch)),
            Code::C041
        );
        assert_eq!(
            Code::from_nn_kind(NnErrorKind::Shape(ShapeErrorKind::WrongArity)),
            Code::C042
        );
        assert_eq!(Code::from_nn_kind(NnErrorKind::BadFanIn), Code::C042);
        assert_eq!(Code::C040.severity(), Severity::Error);
        assert_eq!(Code::C043.severity(), Severity::Warning);
    }

    #[test]
    fn render_includes_code_site_and_hint() {
        let d = Diagnostic::new(Code::C023, "depth 1 < required 24")
            .at("pe0")
            .hint("use the spatial-distance rule");
        let text = d.render();
        assert!(text.contains("error C023 [pe0]"));
        assert!(text.contains("hint: use the spatial-distance rule"));
    }

    #[test]
    fn diagnostics_counting_and_codes() {
        let mut ds = Diagnostics::new();
        assert!(ds.is_empty());
        ds.push(Diagnostic::new(Code::C011, "a"));
        ds.push(Diagnostic::new(Code::C014, "b"));
        ds.push(Diagnostic::new(Code::C026, "c"));
        assert_eq!(ds.len(), 3);
        assert_eq!(ds.error_count(), 1);
        assert_eq!(ds.warning_count(), 1);
        assert!(ds.has_errors());
        assert!(ds.has_code(Code::C026));
        assert_eq!(ds.codes(), vec!["C011", "C014", "C026"]);
    }

    #[test]
    fn json_roundtrip_shape() {
        let d = Diagnostic::new(Code::C030, "over budget").at("total");
        let v = d.to_json();
        assert_eq!(v.get("code").and_then(Value::as_str), Some("C030"));
        assert_eq!(v.get("severity").and_then(Value::as_str), Some("error"));
        assert_eq!(v.get("site").and_then(Value::as_str), Some("total"));
        let text = condor_cjson::write::to_string(&v);
        let back = condor_cjson::parse(&text).unwrap();
        assert_eq!(back.get("code").and_then(Value::as_str), Some("C030"));
    }
}
