//! Accelerator architecture description ("plan") and its cycle model.
//!
//! A [`PePlan`] records which logical network layers map onto one
//! hardware PE (the paper's layer fusion: "our methodology includes the
//! possibility to map multiple logical layers onto a single PE, so long
//! as they implement a similar computation") and the PE's parallelism
//! ("we can choose to implement a layer … as a single-input/single-output
//! port PE … or increase the level of parallelism reading and processing
//! multiple feature maps at once").
//!
//! The closed-form cycle model here is the contract between the
//! element-level simulation (which validates it), the pipeline timing
//! model (which consumes it for Figure 5) and the design-space
//! exploration in the core crate.

use condor_nn::{LayerKind, Network, NnError, NnErrorKind, NodeId, Stage};
use condor_tensor::Shape;
use std::fmt;

/// Machine-readable classification of a [`DataflowError`]. Mapped onto
/// stable diagnostic codes by `condor-check`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DataflowErrorKind {
    /// Invalid mapping directives (zero parallelism, unknown layers).
    Plan,
    /// A propagated network error (see the wrapped [`NnErrorKind`]).
    Nn(NnErrorKind),
    /// Runtime misuse: unweighted network, wrong input shape, a worker
    /// aborting mid-batch.
    Execution,
    /// Element-level layer simulation got inconsistent inputs.
    Simulation,
}

/// Error raised while building or validating an accelerator plan.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DataflowError {
    /// Machine-readable failure class.
    pub kind: DataflowErrorKind,
    /// Human-readable description.
    pub message: String,
    /// True when the failure is transient — an injected fault truncated
    /// the stream and re-running the batch may succeed. Plan/shape
    /// validation errors are never transient.
    pub transient: bool,
}

impl DataflowError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        DataflowError {
            kind: DataflowErrorKind::Plan,
            message: message.into(),
            transient: false,
        }
    }

    pub(crate) fn kinded(kind: DataflowErrorKind, message: impl Into<String>) -> Self {
        DataflowError {
            kind,
            message: message.into(),
            transient: false,
        }
    }

    pub(crate) fn mark_transient(mut self) -> Self {
        self.transient = true;
        self
    }
}

impl condor_faults::retry::Retryable for DataflowError {
    fn is_transient(&self) -> bool {
        self.transient
    }
}

impl fmt::Display for DataflowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dataflow plan error: {}", self.message)
    }
}

impl std::error::Error for DataflowError {}

impl From<NnError> for DataflowError {
    fn from(e: NnError) -> Self {
        DataflowError::kinded(DataflowErrorKind::Nn(e.kind), e.to_string())
    }
}

/// Arithmetic precision of a PE's datapath.
///
/// The paper's flow synthesizes single-precision floating-point PEs;
/// narrowing a PE to INT8 (the scheme `condor-kernels`' quantized path
/// models in software) changes its resource profile: one DSP48E2 packs
/// two int8 MACs, and weight/stream buffers shrink to one byte per word
/// while bias and partial-sum buffers keep their 32-bit accumulators.
/// The DSE can therefore trade precision against the DSP budget per
/// layer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Precision {
    /// Single-precision floating point (the paper's baseline).
    #[default]
    F32,
    /// Symmetric 8-bit integers with 32-bit accumulation.
    Int8,
}

impl Precision {
    /// Bytes of one weight or activation word on streams and in
    /// weight buffers (accumulators always stay 4 bytes).
    pub fn bytes_per_word(self) -> usize {
        match self {
            Precision::F32 => 4,
            Precision::Int8 => 1,
        }
    }

    /// Stable lower-case name (`"f32"` / `"int8"`), used by the plan
    /// serialization.
    pub fn as_str(self) -> &'static str {
        match self {
            Precision::F32 => "f32",
            Precision::Int8 => "int8",
        }
    }

    /// Parses the name produced by [`Precision::as_str`].
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "f32" => Some(Precision::F32),
            "int8" => Some(Precision::Int8),
            _ => None,
        }
    }
}

impl fmt::Display for Precision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Feature-map parallelism of a PE (paper Section 3.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PeParallelism {
    /// Input feature maps read concurrently (one filter pipeline each).
    pub parallel_in: usize,
    /// Output feature maps computed concurrently.
    pub parallel_out: usize,
    /// MACs per cycle of a fully-connected PE (vector width of its
    /// single-input/single-output stream).
    pub fc_simd: usize,
}

impl Default for PeParallelism {
    fn default() -> Self {
        // "single-input/single-output port PE, where input feature maps
        // are read sequentially and output feature maps are equally
        // serially computed".
        PeParallelism {
            parallel_in: 1,
            parallel_out: 1,
            fc_simd: 1,
        }
    }
}

/// One logical network layer as mapped into a PE.
#[derive(Clone, Debug, PartialEq)]
pub struct PlannedLayer {
    /// Stable identity of the layer's node in the source network graph.
    pub node: NodeId,
    /// Layer name.
    pub name: String,
    /// Operator snapshot.
    pub kind: LayerKind,
    /// Single-item input shape.
    pub input: Shape,
    /// Single-item output shape.
    pub output: Shape,
}

impl PlannedLayer {
    /// Square window extent the layer slides over its input (kernel for
    /// conv/pool, 1 for everything else — the paper implements FC as a
    /// 1×1 convolution).
    pub fn window(&self) -> usize {
        match self.kind {
            LayerKind::Convolution { kernel, .. } | LayerKind::Pooling { kernel, .. } => kernel,
            _ => 1,
        }
    }

    /// True for layers whose memory subsystem is a filter chain
    /// (feature-extraction sliding windows).
    pub fn needs_filter_chain(&self) -> bool {
        self.window() > 1
    }
}

/// One hardware PE with its fused layers and memory subsystem summary.
#[derive(Clone, Debug, PartialEq)]
pub struct PePlan {
    /// PE instance name (`pe0`, `pe1`, …).
    pub name: String,
    /// The consecutive logical layers this PE implements. Activation
    /// layers fuse into the preceding weighted/pooling layer at zero
    /// cycle cost, as the accelerator applies them on the output stream.
    pub layers: Vec<PlannedLayer>,
    /// Stage the PE belongs to.
    pub stage: Stage,
    /// Indices of the PEs whose output streams feed this PE (distinct,
    /// in first-use order over its layers' graph inputs). Empty means
    /// the PE is fed by the datamover (it reads the network input or an
    /// `Input` node). Linear chains get `[previous PE]` everywhere
    /// except the first PE; fork/join topologies carry the real graph
    /// edges, which the DES and the threaded runtime wire up.
    pub inputs: Vec<usize>,
    /// Feature-map parallelism.
    pub parallelism: PeParallelism,
    /// Datapath precision (f32 by default; int8 halves the DSP cost per
    /// MAC and narrows weight/stream buffers).
    pub precision: Precision,
    /// Explicit FIFO depths between consecutive filters, overriding the
    /// spatial-distance rule. `PlanBuilder` always leaves this `None`
    /// (the rule is exact); hand-tuned or mutated plans may set it, and
    /// `condor-check` statically verifies it against the rule.
    pub fifo_depth_override: Option<Vec<usize>>,
}

impl PePlan {
    /// The largest sliding-window extent among fused layers — the paper:
    /// "When multiple layers are fused together, the memory pipeline is
    /// created considering the layer with the biggest window size".
    pub fn max_window(&self) -> usize {
        self.layers
            .iter()
            .map(PlannedLayer::window)
            .max()
            .unwrap_or(1)
    }

    /// The widest input row among fused layers — "The FIFOs size is
    /// instead determined considering the layer with the greatest input
    /// feature maps size".
    pub fn max_input_width(&self) -> usize {
        self.layers.iter().map(|l| l.input.w).max().unwrap_or(1)
    }

    /// Number of filter processes per parallel input map: one per point
    /// of the sliding window (`K²` accesses).
    pub fn filters_per_pipeline(&self) -> usize {
        let k = self.max_window();
        k * k
    }

    /// FIFO depths between consecutive filters of one pipeline, in
    /// filter order, sized by the paper's rule: "their size is equal to
    /// the spatial distance between the two accesses that the filters at
    /// each end of the FIFO represent". For a K×K window on a W-wide
    /// image that distance is 1 within a row and `W − K + 1` across row
    /// boundaries.
    pub fn fifo_depths(&self) -> Vec<usize> {
        if let Some(depths) = &self.fifo_depth_override {
            return depths.clone();
        }
        self.required_fifo_depths()
    }

    /// FIFO depths mandated by the spatial-distance rule, ignoring any
    /// [`PePlan::fifo_depth_override`] — the reference `condor-check`
    /// verifies declared depths against.
    pub fn required_fifo_depths(&self) -> Vec<usize> {
        let k = self.max_window();
        let w = self.max_input_width();
        let mut depths = Vec::with_capacity(k * k - 1);
        for tap in 1..(k * k) {
            let crosses_row = tap % k == 0;
            depths.push(if crosses_row { w - k + 1 } else { 1 });
        }
        depths
    }

    /// Total elements buffered on chip per pipeline — "only the elements
    /// that are spatially located in between the first and the last
    /// access are buffered on-chip": `(K−1)·W + K` for a K×K window.
    pub fn onchip_window_elems(&self) -> usize {
        let k = self.max_window();
        if k <= 1 {
            return 0;
        }
        (k - 1) * self.max_input_width() + k
    }

    /// Cycles this PE needs per image — the shared cycle model.
    ///
    /// * convolution: `max(⌈F/P_out⌉·⌈C/P_in⌉·H_out·W_out,
    ///   ⌈C/P_in⌉·H_pad·W_pad)`. The first term is compute: the filter
    ///   chain presents a full window and the PE spends one cycle per
    ///   output-map group per window (the `K²` MACs are spatially
    ///   unrolled). The second is the stream bound: each input map group
    ///   enters at one element per port per cycle;
    /// * pooling: `⌈C/P_in⌉ · H_pad · W_pad` — one comparison window per
    ///   output, but the input stream dominates;
    /// * fully-connected: `⌈(C_in · F) / fc_simd⌉` (a 1×1 convolution on
    ///   a single-input/single-output PE);
    /// * activations / softmax: fused, zero additional cycles except a
    ///   `C`-cycle drain for softmax.
    ///
    /// Fused layers execute back-to-back within the PE ("an additional
    /// outer loop that iterates through the implemented layers"), so
    /// their cycle counts add. The element-level simulation in
    /// [`crate::layersim`] validates these formulas.
    pub fn cycles_per_image(&self) -> u64 {
        let p = &self.parallelism;
        self.layers
            .iter()
            .map(|l| match l.kind {
                LayerKind::Convolution {
                    num_output, pad, ..
                } => {
                    let f_groups = num_output.div_ceil(p.parallel_out) as u64;
                    let c_groups = l.input.c.div_ceil(p.parallel_in) as u64;
                    let compute = f_groups * c_groups * (l.output.h * l.output.w) as u64;
                    let stream = c_groups * ((l.input.h + 2 * pad) * (l.input.w + 2 * pad)) as u64;
                    compute.max(stream)
                }
                LayerKind::Pooling { pad, .. } => {
                    let c_groups = l.input.c.div_ceil(p.parallel_in) as u64;
                    c_groups * ((l.input.h + 2 * pad) * (l.input.w + 2 * pad)) as u64
                }
                LayerKind::InnerProduct { num_output, .. } => {
                    ((l.input.item_len() * num_output) as u64).div_ceil(p.fc_simd as u64)
                }
                LayerKind::Softmax { .. } => l.input.c as u64,
                LayerKind::ReLU { .. } | LayerKind::Sigmoid | LayerKind::TanH => 0,
                LayerKind::Input => 0,
                // Merges are pure stream plumbing: one output element per
                // cycle while the joined branch streams drain in lockstep.
                LayerKind::Concat | LayerKind::Eltwise { .. } => l.output.item_len() as u64,
            })
            .sum()
    }

    /// Pipeline fill latency of the PE's memory subsystem: the filter
    /// chain must buffer `(K−1)·W + K` elements before the first window
    /// is complete.
    pub fn fill_latency(&self) -> u64 {
        self.onchip_window_elems() as u64
    }
}

/// The whole accelerator: an ordered pipeline of PEs plus the datamover.
#[derive(Clone, Debug, PartialEq)]
pub struct AcceleratorPlan {
    /// Source network name.
    pub network: String,
    /// Target board name (resolved against the `condor-fpga` catalog by
    /// the framework).
    pub board: String,
    /// Requested clock in MHz (from the network representation).
    pub freq_mhz: f64,
    /// PEs in pipeline order.
    pub pes: Vec<PePlan>,
    /// Words per cycle the datamover moves between on-board memory and
    /// the accelerator streams.
    pub datamover_words_per_cycle: usize,
    /// Words the datamover must stream in per image (input feature maps,
    /// re-read once per output-map group for every conv PE that requests
    /// them — see `PlanBuilder`).
    pub input_words_per_image: u64,
}

impl AcceleratorPlan {
    /// Cycles the datamover needs per image.
    pub fn datamover_cycles_per_image(&self) -> u64 {
        self.input_words_per_image
            .div_ceil(self.datamover_words_per_cycle as u64)
    }

    /// Initiation interval of the accelerator: the slowest stage bounds
    /// steady-state throughput.
    pub fn initiation_interval(&self) -> u64 {
        self.pes
            .iter()
            .map(PePlan::cycles_per_image)
            .chain([self.datamover_cycles_per_image()])
            .max()
            .unwrap_or(0)
    }

    /// Single-image latency: the critical path through the PE graph
    /// (datamover plus the slowest chain of dependent stages, fills
    /// included). For a linear pipeline every PE is on the one path, so
    /// this is the historical sum of all stage cycles; fork/join plans
    /// only pay the slower branch.
    pub fn image_latency(&self) -> u64 {
        let dm = self.datamover_cycles_per_image();
        let mut done: Vec<u64> = Vec::with_capacity(self.pes.len());
        for pe in &self.pes {
            let upstream = pe.inputs.iter().map(|&i| done[i]).fold(dm, u64::max);
            done.push(upstream + pe.cycles_per_image() + pe.fill_latency());
        }
        done.into_iter().max().unwrap_or(dm)
    }

    /// Number of pipeline stages (datamover + PEs).
    pub fn stage_count(&self) -> usize {
        self.pes.len() + 1
    }

    /// The bottleneck stage: `(name, cycles_per_image)` of the slowest
    /// pipeline stage — what the DSE must attack to raise throughput.
    pub fn bottleneck(&self) -> (String, u64) {
        let mut best = ("datamover".to_string(), self.datamover_cycles_per_image());
        for pe in &self.pes {
            let cycles = pe.cycles_per_image();
            if cycles > best.1 {
                let layers = pe
                    .layers
                    .iter()
                    .map(|l| l.name.as_str())
                    .collect::<Vec<_>>()
                    .join("+");
                best = (format!("{} ({layers})", pe.name), cycles);
            }
        }
        best
    }
}

/// Builds an [`AcceleratorPlan`] from a network and mapping directives.
pub struct PlanBuilder<'a> {
    net: &'a Network,
    board: String,
    freq_mhz: f64,
    /// Fusion factor: how many *computational* layers share one PE
    /// within a stage (1 = full spatial unfold, the paper's 1:1 mapping).
    fusion: usize,
    parallelism: PeParallelism,
    /// Per-layer parallelism overrides — the paper's network
    /// representation carries the "desired level of parallelism of each
    /// layer". Keyed by layer name; applies to the PE hosting the layer.
    layer_overrides: std::collections::BTreeMap<String, PeParallelism>,
    precision: Precision,
    /// Per-layer precision overrides, mirroring the parallelism ones.
    layer_precisions: std::collections::BTreeMap<String, Precision>,
    datamover_words_per_cycle: usize,
}

impl<'a> PlanBuilder<'a> {
    /// Starts a builder with the paper's defaults: full spatial unfold,
    /// single-input/single-output PEs, a 16-word datamover.
    pub fn new(net: &'a Network) -> Self {
        PlanBuilder {
            net,
            board: "aws-f1".to_string(),
            freq_mhz: 100.0,
            fusion: 1,
            parallelism: PeParallelism::default(),
            layer_overrides: std::collections::BTreeMap::new(),
            precision: Precision::default(),
            layer_precisions: std::collections::BTreeMap::new(),
            datamover_words_per_cycle: 16,
        }
    }

    /// Sets the target board name.
    pub fn board(mut self, board: impl Into<String>) -> Self {
        self.board = board.into();
        self
    }

    /// Sets the requested clock.
    pub fn freq_mhz(mut self, f: f64) -> Self {
        self.freq_mhz = f;
        self
    }

    /// Sets how many computational layers fuse into each PE.
    pub fn fusion(mut self, k: usize) -> Self {
        self.fusion = k.max(1);
        self
    }

    /// Sets the feature-map parallelism applied to every PE.
    pub fn parallelism(mut self, p: PeParallelism) -> Self {
        self.parallelism = p;
        self
    }

    /// Overrides the parallelism of the PE hosting `layer` (the paper's
    /// per-layer "desired level of parallelism"). When fused layers
    /// carry conflicting overrides, the first override in layer order
    /// wins.
    pub fn layer_parallelism(mut self, layer: impl Into<String>, p: PeParallelism) -> Self {
        self.layer_overrides.insert(layer.into(), p);
        self
    }

    /// Sets the datapath precision applied to every PE.
    pub fn precision(mut self, p: Precision) -> Self {
        self.precision = p;
        self
    }

    /// Overrides the precision of the PE hosting `layer`. When fused
    /// layers carry conflicting overrides, the first override in layer
    /// order wins (as with [`PlanBuilder::layer_parallelism`]).
    pub fn layer_precision(mut self, layer: impl Into<String>, p: Precision) -> Self {
        self.layer_precisions.insert(layer.into(), p);
        self
    }

    /// Sets the datamover stream width in 32-bit words per cycle.
    pub fn datamover_words_per_cycle(mut self, w: usize) -> Self {
        self.datamover_words_per_cycle = w.max(1);
        self
    }

    /// Builds and validates the plan.
    ///
    /// Grouping rules follow the paper: activation layers fuse into the
    /// PE of the layer that produces their input; fusion clusters only
    /// layers of the same stage ("we cluster together in a single PE
    /// either layers from the features extraction part or
    /// fully-connected layers").
    pub fn build(self) -> Result<AcceleratorPlan, DataflowError> {
        if self.parallelism.parallel_in == 0
            || self.parallelism.parallel_out == 0
            || self.parallelism.fc_simd == 0
        {
            return Err(DataflowError::new("parallelism degrees must be positive"));
        }
        for (name, p) in &self.layer_overrides {
            if !self.net.layers.iter().any(|l| &l.name == name) {
                return Err(DataflowError::new(format!(
                    "parallelism override references unknown layer '{name}'"
                )));
            }
            if p.parallel_in == 0 || p.parallel_out == 0 || p.fc_simd == 0 {
                return Err(DataflowError::new(format!(
                    "parallelism override for '{name}' must be positive"
                )));
            }
        }
        for name in self.layer_precisions.keys() {
            if !self.net.layers.iter().any(|l| &l.name == name) {
                return Err(DataflowError::new(format!(
                    "precision override references unknown layer '{name}'"
                )));
            }
        }
        let ins = self.net.input_shapes()?;
        let outs = self.net.output_shapes()?;
        let stages = self.net.stages();

        // Collect the "anchor" layers (those that own a PE slot) and the
        // trailing operators fused onto them. On a graph, an activation
        // rides along only when it is the sole consumer of the group's
        // last layer — an activation whose input also feeds a skip edge
        // must keep its own stream. On a linear chain the condition
        // always holds, reproducing the historical grouping exactly.
        let mut groups: Vec<(Stage, Vec<PlannedLayer>)> = Vec::new();
        for (i, layer) in self.net.layers.iter().enumerate() {
            let id = NodeId::from_index(i);
            let planned = PlannedLayer {
                node: id,
                name: layer.name.clone(),
                kind: layer.kind.clone(),
                input: ins[i],
                output: outs[i],
            };
            match layer.kind {
                LayerKind::Input => continue,
                LayerKind::ReLU { .. }
                | LayerKind::Sigmoid
                | LayerKind::TanH
                | LayerKind::Softmax { .. } => {
                    let preds = self.net.inputs_of(id);
                    let fusable = match (preds.as_slice(), groups.last()) {
                        ([p], Some((_, layers))) => {
                            layers.last().map(|l| l.node) == Some(*p)
                                && self.net.consumers_of(*p) == [id]
                        }
                        _ => false,
                    };
                    match groups.last_mut() {
                        Some((_, layers)) if fusable => layers.push(planned),
                        _ => groups.push((stages[i], vec![planned])),
                    }
                }
                _ => groups.push((stages[i], vec![planned])),
            }
        }
        if groups.is_empty() {
            return Err(DataflowError::new("network has no mappable layers"));
        }

        // Apply the fusion factor: consecutive groups share a PE only
        // within one stage AND along a purely linear segment — the next
        // group's first layer must be the sole consumer of the current
        // cluster's last layer. Merge nodes (fan-in > 1) therefore start
        // a fresh PE and branch points (fan-out > 1) end one, keeping
        // every fork/join boundary visible to the DES and the runtime.
        let mut pes: Vec<PePlan> = Vec::new();
        let mut current: Option<(Stage, Vec<PlannedLayer>, usize)> = None;
        for (stage, layers) in groups {
            let linear_link = match (&current, layers.first()) {
                (Some((_, cur_layers, _)), Some(first)) => {
                    let last = cur_layers.last().expect("cluster has layers");
                    self.net.inputs_of(first.node) == [last.node]
                        && self.net.consumers_of(last.node) == [first.node]
                }
                _ => false,
            };
            match current.as_mut() {
                Some((cur_stage, cur_layers, anchors))
                    if *cur_stage == stage && *anchors < self.fusion && linear_link =>
                {
                    cur_layers.extend(layers);
                    *anchors += 1;
                }
                _ => {
                    if let Some((stage, layers, _)) = current.take() {
                        pes.push(self.make_pe(pes.len(), stage, layers));
                    }
                    current = Some((stage, layers, 1));
                }
            }
        }
        if let Some((stage, layers, _)) = current.take() {
            pes.push(self.make_pe(pes.len(), stage, layers));
        }

        // Wire the PE-level dataflow edges off the network graph: PE j
        // feeds PE i when any layer of i reads a node mapped into j.
        // Nodes outside every PE (`Input` nodes, the network input) are
        // the datamover's job and contribute no edge.
        let mut pe_of_node = vec![usize::MAX; self.net.node_count()];
        for (pi, pe) in pes.iter().enumerate() {
            for l in &pe.layers {
                pe_of_node[l.node.index()] = pi;
            }
        }
        let inputs_list: Vec<Vec<usize>> = pes
            .iter()
            .enumerate()
            .map(|(pi, pe)| {
                let mut ins_pe: Vec<usize> = Vec::new();
                for l in &pe.layers {
                    for p in self.net.inputs_of(l.node) {
                        let src = pe_of_node[p.index()];
                        if src != usize::MAX && src != pi && !ins_pe.contains(&src) {
                            ins_pe.push(src);
                        }
                    }
                }
                ins_pe
            })
            .collect();
        for (pe, ins_pe) in pes.iter_mut().zip(inputs_list) {
            pe.inputs = ins_pe;
        }

        // Clamp parallelism per PE to the feature-map counts it can use:
        // a layer with C input maps cannot read more than C in parallel
        // (the DSE sweeps global degrees; layers saturate individually).
        for pe in &mut pes {
            let max_in = pe
                .layers
                .iter()
                .map(|l| l.input.c)
                .max()
                .unwrap_or(1)
                .max(1);
            let max_out = pe
                .layers
                .iter()
                .filter_map(|l| match l.kind {
                    LayerKind::Convolution { num_output, .. } => Some(num_output),
                    _ => None,
                })
                .max()
                .unwrap_or(1)
                .max(1);
            pe.parallelism.parallel_in = pe.parallelism.parallel_in.min(max_in);
            pe.parallelism.parallel_out = pe.parallelism.parallel_out.min(max_out);
        }

        // Input stream volume per image: the raw input feature maps.
        // Convolutional PEs with sequential output maps re-request their
        // input once per output-map group; the datamover therefore
        // streams layer-0 input once and inter-PE traffic stays on-chip,
        // while weights stream in parallel on a dedicated port (modelled
        // as non-blocking at steady state).
        let input_words = self.net.input_shape.item_len() as u64;

        Ok(AcceleratorPlan {
            network: self.net.name.clone(),
            board: self.board,
            freq_mhz: self.freq_mhz,
            pes,
            datamover_words_per_cycle: self.datamover_words_per_cycle,
            input_words_per_image: input_words,
        })
    }

    fn make_pe(&self, index: usize, stage: Stage, layers: Vec<PlannedLayer>) -> PePlan {
        // A per-layer override (first in layer order) beats the global
        // directive for the PE hosting that layer.
        let base = layers
            .iter()
            .find_map(|l| self.layer_overrides.get(&l.name).copied())
            .unwrap_or(self.parallelism);
        let precision = layers
            .iter()
            .find_map(|l| self.layer_precisions.get(&l.name).copied())
            .unwrap_or(self.precision);
        PePlan {
            name: format!("pe{index}"),
            layers,
            stage,
            inputs: Vec::new(), // wired from the graph after clustering
            fifo_depth_override: None,
            precision,
            parallelism: match stage {
                Stage::FeatureExtraction => PeParallelism { fc_simd: 1, ..base },
                // The paper implements FC layers as single-input/
                // single-output PEs; only the MAC vector width applies.
                Stage::Classification => PeParallelism {
                    parallel_in: 1,
                    parallel_out: 1,
                    fc_simd: base.fc_simd,
                },
            },
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use condor_nn::zoo;

    #[test]
    fn lenet_unfused_plan_has_one_pe_per_anchor_layer() {
        let net = zoo::lenet();
        let plan = PlanBuilder::new(&net).build().unwrap();
        // Anchors: conv1, pool1, conv2, pool2, ip1, ip2 (relu1 fuses into
        // ip1, prob fuses into ip2, data is not mapped).
        assert_eq!(plan.pes.len(), 6);
        assert_eq!(plan.pes[0].layers[0].name, "conv1");
        assert_eq!(plan.pes[4].layers.len(), 2); // ip1 + relu1
        assert_eq!(plan.pes[5].layers.len(), 2); // ip2 + prob
    }

    #[test]
    fn stages_are_not_mixed_under_fusion() {
        let net = zoo::lenet();
        let plan = PlanBuilder::new(&net).fusion(10).build().unwrap();
        // All 4 feature-extraction anchors in one PE, both FC anchors in
        // another.
        assert_eq!(plan.pes.len(), 2);
        assert_eq!(plan.pes[0].stage, Stage::FeatureExtraction);
        assert_eq!(plan.pes[1].stage, Stage::Classification);
    }

    #[test]
    fn fusion_factor_two_groups_pairs() {
        let net = zoo::lenet();
        let plan = PlanBuilder::new(&net).fusion(2).build().unwrap();
        // FE anchors conv1+pool1, conv2+pool2; FC anchors ip1+ip2.
        assert_eq!(plan.pes.len(), 3);
        assert_eq!(plan.pes[0].layers.len(), 2);
        assert_eq!(plan.pes[2].layers.len(), 4); // ip1 relu1 ip2 prob
    }

    #[test]
    fn cycle_model_lenet_sequential() {
        let net = zoo::lenet();
        let plan = PlanBuilder::new(&net).build().unwrap();
        let cycles: Vec<u64> = plan.pes.iter().map(PePlan::cycles_per_image).collect();
        assert_eq!(cycles[0], 20 * 24 * 24); // conv1: compute-bound, F·C·H_out·W_out
        assert_eq!(cycles[1], 20 * 24 * 24); // pool1: stream-bound, C·H_in·W_in
        assert_eq!(cycles[2], 50 * 20 * 8 * 8); // conv2
        assert_eq!(cycles[3], 50 * 8 * 8); // pool2: stream-bound
        assert_eq!(cycles[4], 800 * 500); // ip1 (relu fused free)
        assert_eq!(cycles[5], 500 * 10 + 10); // ip2 + softmax drain
                                              // ip1 dominates the initiation interval.
        assert_eq!(plan.initiation_interval(), 400_000);
    }

    #[test]
    fn parallelism_divides_cycles() {
        let net = zoo::lenet();
        let plan = PlanBuilder::new(&net)
            .parallelism(PeParallelism {
                parallel_in: 2,
                parallel_out: 5,
                fc_simd: 4,
            })
            .build()
            .unwrap();
        // conv2: ceil(50/5)·ceil(20/2)·64 = 10·10·64.
        assert_eq!(plan.pes[2].cycles_per_image(), 6_400);
        // conv1: C=1 → ceil(1/2)=1 group.
        assert_eq!(plan.pes[0].cycles_per_image(), 4 * 576);
        // ip1: 400000/4.
        assert_eq!(plan.pes[4].cycles_per_image(), 100_000);
    }

    #[test]
    fn excessive_parallelism_clamps_to_feature_map_counts() {
        let net = zoo::lenet();
        let plan = PlanBuilder::new(&net)
            .parallelism(PeParallelism {
                parallel_in: 64,
                parallel_out: 64, // conv1 has only 20 outputs
                fc_simd: 1,
            })
            .build()
            .unwrap();
        // conv1 PE: C=1 input map, 20 output maps.
        assert_eq!(plan.pes[0].parallelism.parallel_in, 1);
        assert_eq!(plan.pes[0].parallelism.parallel_out, 20);
        // conv2 PE: 20 input maps, 50 outputs.
        assert_eq!(plan.pes[2].parallelism.parallel_in, 20);
        assert_eq!(plan.pes[2].parallelism.parallel_out, 50);
    }

    #[test]
    fn fifo_depths_follow_spatial_distance_rule() {
        let net = zoo::lenet();
        let plan = PlanBuilder::new(&net).build().unwrap();
        let conv1 = &plan.pes[0];
        assert_eq!(conv1.max_window(), 5);
        assert_eq!(conv1.filters_per_pipeline(), 25);
        let depths = conv1.fifo_depths();
        assert_eq!(depths.len(), 24);
        // Within a row: distance 1; across rows on a 28-wide image:
        // 28 − 5 + 1 = 24.
        assert_eq!(depths[0], 1);
        assert_eq!(depths[4], 24); // tap 5 crosses the first row boundary
        assert_eq!(depths.iter().filter(|&&d| d == 24).count(), 4);
        assert_eq!(depths.iter().filter(|&&d| d == 1).count(), 20);
        // Total on-chip buffering: (K−1)·W + K = 4·28 + 5.
        assert_eq!(conv1.onchip_window_elems(), 117);
    }

    #[test]
    fn fused_pe_uses_biggest_window_and_widest_input() {
        let net = zoo::lenet();
        let plan = PlanBuilder::new(&net).fusion(10).build().unwrap();
        let fe = &plan.pes[0];
        assert_eq!(fe.max_window(), 5);
        assert_eq!(fe.max_input_width(), 28);
        // Fused cycles are the sum of member layer cycles.
        let unfused = PlanBuilder::new(&net).build().unwrap();
        let sum: u64 = unfused.pes[..4].iter().map(PePlan::cycles_per_image).sum();
        assert_eq!(fe.cycles_per_image(), sum);
    }

    #[test]
    fn fc_pe_ignores_feature_map_parallelism() {
        let net = zoo::lenet();
        let plan = PlanBuilder::new(&net)
            .parallelism(PeParallelism {
                parallel_in: 2,
                parallel_out: 2,
                fc_simd: 1,
            })
            .build()
            .unwrap();
        assert_eq!(plan.pes[4].parallelism.parallel_in, 1);
        assert_eq!(plan.pes[4].parallelism.parallel_out, 1);
    }

    #[test]
    fn datamover_cycles_and_latency() {
        let net = zoo::tc1();
        let plan = PlanBuilder::new(&net).build().unwrap();
        assert_eq!(plan.input_words_per_image, 256);
        assert_eq!(plan.datamover_cycles_per_image(), 16);
        assert!(plan.image_latency() > plan.initiation_interval());
        assert_eq!(plan.stage_count(), plan.pes.len() + 1);
    }

    #[test]
    fn tc1_initiation_interval_regime() {
        // With the reconstructed TC1 and fc_simd=2, conv1 should be the
        // bottleneck stage (the Table 1 calibration point).
        let net = zoo::tc1();
        let plan = PlanBuilder::new(&net)
            .parallelism(PeParallelism {
                parallel_in: 1,
                parallel_out: 1,
                fc_simd: 2,
            })
            .build()
            .unwrap();
        assert_eq!(plan.initiation_interval(), 8 * 12 * 12);
    }

    #[test]
    fn chain_plans_keep_linear_pe_edges() {
        let net = zoo::lenet();
        let plan = PlanBuilder::new(&net).build().unwrap();
        for (i, pe) in plan.pes.iter().enumerate() {
            if i == 0 {
                assert!(pe.inputs.is_empty(), "first PE is datamover-fed");
            } else {
                assert_eq!(pe.inputs, vec![i - 1]);
            }
        }
    }

    #[test]
    fn resnet_block_plan_has_fork_join_edges() {
        let net = zoo::resnet_block();
        let plan = PlanBuilder::new(&net).build().unwrap();
        let anchors: Vec<&str> = plan
            .pes
            .iter()
            .map(|pe| pe.layers[0].name.as_str())
            .collect();
        assert_eq!(anchors, ["conv1", "conv2", "join", "ip1"]);
        // The trailing ReLU is the join's sole consumer, so it fuses into
        // the join PE; prob fuses into ip1 as on any chain.
        assert_eq!(plan.pes[2].layers.len(), 2);
        assert_eq!(plan.pes[3].layers.len(), 2);
        assert_eq!(plan.pes[0].inputs, Vec::<usize>::new());
        assert_eq!(plan.pes[1].inputs, vec![0]);
        assert_eq!(plan.pes[2].inputs, vec![0, 1]); // join reads both convs
        assert_eq!(plan.pes[3].inputs, vec![2]);
        // Merge cycle model: one output element per cycle.
        let join = &plan.pes[2].layers[0];
        assert_eq!(join.output.item_len(), 8 * 8 * 8);
    }

    #[test]
    fn fusion_never_crosses_fork_join_boundaries() {
        let net = zoo::resnet_block();
        let plan = PlanBuilder::new(&net).fusion(10).build().unwrap();
        // conv1 feeds both conv2 and the join (a branch point), and the
        // join has fan-in 2 — no grouping may erase those boundaries even
        // with an unlimited fusion budget.
        assert_eq!(plan.pes.len(), 4);
    }

    #[test]
    fn parallel_branches_overlap_in_latency() {
        use condor_nn::{EltwiseOp, Layer, NetworkBuilder};
        let mut b = NetworkBuilder::new("fork", condor_tensor::Shape::chw(3, 8, 8));
        let data = b.add(Layer::new("data", LayerKind::Input), &[]).unwrap();
        let conv = |name: &str| {
            Layer::new(
                name,
                LayerKind::Convolution {
                    num_output: 4,
                    kernel: 3,
                    stride: 1,
                    pad: 1,
                    bias: true,
                },
            )
        };
        let c1 = b.add(conv("conv1"), &[data]).unwrap();
        let c2 = b.add(conv("conv2"), &[data]).unwrap();
        b.add(
            Layer::new("join", LayerKind::Eltwise { op: EltwiseOp::Sum }),
            &[c1, c2],
        )
        .unwrap();
        let net = b.build().unwrap();
        let plan = PlanBuilder::new(&net).build().unwrap();
        assert_eq!(plan.pes[0].inputs, Vec::<usize>::new());
        assert_eq!(plan.pes[1].inputs, Vec::<usize>::new());
        assert_eq!(plan.pes[2].inputs, vec![0, 1]);
        // Latency pays the slower branch once, not both branches.
        let dm = plan.datamover_cycles_per_image();
        let c = |i: usize| plan.pes[i].cycles_per_image() + plan.pes[i].fill_latency();
        assert_eq!(plan.image_latency(), dm + c(0).max(c(1)) + c(2));
        assert!(plan.image_latency() < dm + c(0) + c(1) + c(2));
    }

    #[test]
    fn zero_parallelism_rejected() {
        let net = zoo::tc1();
        assert!(PlanBuilder::new(&net)
            .parallelism(PeParallelism {
                parallel_in: 0,
                parallel_out: 1,
                fc_simd: 1
            })
            .build()
            .is_err());
    }
}

#[cfg(test)]
mod bottleneck_tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use condor_nn::zoo;

    #[test]
    fn lenet_bottleneck_is_ip1() {
        let net = zoo::lenet();
        let plan = PlanBuilder::new(&net).build().unwrap();
        let (name, cycles) = plan.bottleneck();
        assert!(name.contains("ip1"), "{name}");
        assert_eq!(cycles, 400_000);
    }

    #[test]
    fn bottleneck_equals_initiation_interval() {
        for seed in 0..20u64 {
            let net = condor_nn::arbitrary::random_chain(seed);
            let plan = PlanBuilder::new(&net).build().unwrap();
            assert_eq!(plan.bottleneck().1, plan.initiation_interval());
        }
    }
}

#[cfg(test)]
mod layer_override_tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use condor_nn::zoo;

    #[test]
    fn per_layer_override_beats_global_directive() {
        let net = zoo::lenet();
        let plan = PlanBuilder::new(&net)
            .parallelism(PeParallelism {
                parallel_in: 1,
                parallel_out: 1,
                fc_simd: 1,
            })
            .layer_parallelism(
                "conv2",
                PeParallelism {
                    parallel_in: 4,
                    parallel_out: 10,
                    fc_simd: 1,
                },
            )
            .build()
            .unwrap();
        // conv1's PE keeps the global sequential setting…
        assert_eq!(plan.pes[0].parallelism.parallel_out, 1);
        // …while conv2's PE takes the override (clamped to its maps).
        assert_eq!(plan.pes[2].parallelism.parallel_in, 4);
        assert_eq!(plan.pes[2].parallelism.parallel_out, 10);
        assert_eq!(plan.pes[2].cycles_per_image(), 5 * 5 * 64);
    }

    #[test]
    fn override_on_fused_member_applies_to_whole_pe() {
        let net = zoo::lenet();
        let plan = PlanBuilder::new(&net)
            .fusion(10)
            .layer_parallelism(
                "pool1",
                PeParallelism {
                    parallel_in: 2,
                    parallel_out: 2,
                    fc_simd: 1,
                },
            )
            .build()
            .unwrap();
        // conv1 is first in the fused FE PE and has no override; pool1's
        // applies because conv1 carries none.
        assert_eq!(plan.pes[0].parallelism.parallel_in, 2);
    }

    #[test]
    fn precision_defaults_to_f32_and_threads_through() {
        let net = zoo::lenet();
        let plan = PlanBuilder::new(&net).build().unwrap();
        assert!(plan.pes.iter().all(|pe| pe.precision == Precision::F32));
        let plan = PlanBuilder::new(&net)
            .precision(Precision::Int8)
            .layer_precision("conv1", Precision::F32)
            .build()
            .unwrap();
        assert_eq!(plan.pes[0].precision, Precision::F32);
        assert!(plan.pes[1..]
            .iter()
            .all(|pe| pe.precision == Precision::Int8));
        // The cycle model is precision-independent: narrowing the
        // datapath changes resources, not the schedule.
        let f32_plan = PlanBuilder::new(&net).build().unwrap();
        assert_eq!(plan.initiation_interval(), f32_plan.initiation_interval());
    }

    #[test]
    fn precision_names_roundtrip() {
        for p in [Precision::F32, Precision::Int8] {
            assert_eq!(Precision::parse(p.as_str()), Some(p));
        }
        assert_eq!(Precision::parse("fp16"), None);
        assert_eq!(Precision::F32.bytes_per_word(), 4);
        assert_eq!(Precision::Int8.bytes_per_word(), 1);
    }

    #[test]
    fn unknown_precision_override_rejected() {
        let net = zoo::lenet();
        let err = PlanBuilder::new(&net)
            .layer_precision("conv99", Precision::Int8)
            .build()
            .unwrap_err();
        assert!(err.message.contains("conv99"));
    }

    #[test]
    fn unknown_override_layer_rejected() {
        let net = zoo::lenet();
        let err = PlanBuilder::new(&net)
            .layer_parallelism("conv99", PeParallelism::default())
            .build()
            .unwrap_err();
        assert!(err.message.contains("conv99"));
    }

    #[test]
    fn zero_override_rejected() {
        let net = zoo::lenet();
        let err = PlanBuilder::new(&net)
            .layer_parallelism(
                "conv1",
                PeParallelism {
                    parallel_in: 0,
                    parallel_out: 1,
                    fc_simd: 1,
                },
            )
            .build()
            .unwrap_err();
        assert!(err.message.contains("positive"));
    }

    #[test]
    fn fc_override_controls_simd() {
        let net = zoo::lenet();
        let plan = PlanBuilder::new(&net)
            .layer_parallelism(
                "ip1",
                PeParallelism {
                    parallel_in: 1,
                    parallel_out: 1,
                    fc_simd: 8,
                },
            )
            .build()
            .unwrap();
        assert_eq!(plan.pes[4].parallelism.fc_simd, 8);
        assert_eq!(plan.pes[4].cycles_per_image(), 50_000);
        // ip2 keeps the default.
        assert_eq!(plan.pes[5].parallelism.fc_simd, 1);
    }
}
